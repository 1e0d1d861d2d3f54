"""Gaussian-sketched variant of the fixed-point solver.

Each sweep replaces the exact scores by unbiased sketched estimates: with
``B = sqrt(W) A`` and a fresh ``s x m`` standard Gaussian ``S`` drawn per
iteration,

    w_i <- (1/s) * || S B (B^T B)^{-1} (sqrt(w_i) a_i) ||^2 .

After averaging the T iterates the weights are rescaled to sum exactly to
n.  Defaults ``s = ceil(80/eps)`` and ``T = ceil((10/eps) log(m/delta))``
give ``max_i sigma_i(v) <= (1+eps)^2`` with probability at least
``1 - 2 delta``.

Randomness contract: a single ``numpy.random.default_rng(seed)`` stream
(PCG64) supplies every sketch; iteration k consumes exactly ``s * m``
standard normals via one ``standard_normal((s, m))`` call, so the stream is
spent iteration-major, then row-major within each sketch matrix.  Runs with
identical inputs and seeds are bitwise reproducible.  Each sweep draws into
one ``(s, m)`` buffer allocated per solve, which spends the stream exactly as
a fresh ``standard_normal((s, m))`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PolytopeInstance, _left_product, _row_norms, cholesky_of_weighted_gram
from .errors import check_count, check_unit_interval
from .fixed_point import SolveTrace, _average_iterates

__all__ = [
    "SketchConfig",
    "RowSumCheck",
    "default_sketch_rows",
    "default_sketch_iterations",
    "sketched_solve",
    "expected_row_sum_distribution_check",
]


def default_sketch_rows(epsilon: float) -> int:
    """Sketch size ``ceil(80 / epsilon)``."""
    check_unit_interval("epsilon", epsilon)
    return math.ceil(80.0 / epsilon)


def default_sketch_iterations(m: int, epsilon: float, delta: float) -> int:
    """Iteration count ``ceil((10/epsilon) * log(m/delta))``."""
    check_unit_interval("epsilon", epsilon)
    check_unit_interval("delta", delta)
    return max(1, math.ceil((10.0 / epsilon) * math.log(m / delta)))


@dataclass(frozen=True)
class SketchConfig:
    """Sketched-solver knobs.

    ``sketch_rows`` and ``iterations`` default to the values above when
    left as None.  ``seed`` follows the package's one rule for seeds, as
    ``certify``'s ``containment_seed`` and ``GeneratorSpec.seed`` do: any
    integer, Python or numpy, that is at least 0 (``errors.check_count``).
    ``record_history`` computes exact score maxima per iterate for the
    trace, which costs one exact sweep per iteration and exists for
    diagnostics only.
    """

    epsilon: float
    delta: float
    seed: int = 0
    sketch_rows: int | None = None
    iterations: int | None = None
    record_history: bool = False

    def __post_init__(self):
        check_unit_interval("epsilon", self.epsilon)
        check_unit_interval("delta", self.delta)
        check_count("seed", self.seed, minimum=0)
        if self.sketch_rows is not None:
            check_count("sketch_rows", self.sketch_rows)
        if self.iterations is not None:
            check_count("iterations", self.iterations)

    def resolve_sketch_rows(self) -> int:
        if self.sketch_rows is not None:
            return self.sketch_rows
        return default_sketch_rows(self.epsilon)

    def resolve_iterations(self, m: int) -> int:
        if self.iterations is not None:
            return self.iterations
        return default_sketch_iterations(m, self.epsilon, self.delta)


def _sketch_step(
    inst: PolytopeInstance,
    w: np.ndarray,
    rows: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One sketched sweep: estimate ``w_i * sigma_i(w)`` for every row.

    Computes ``S B`` first (rows x n), then applies ``(B^T B)^{-1}`` as two
    products by the inverse ``L^{-1}`` of its Cholesky factor (n x n,
    ``quad.inv_l``), so every dense call stays on numpy's BLAS.  The image
    ``A (S B (B^T B)^{-1})^T`` is reduced to its squared row norms by core's
    streamed pass (``core._row_norms``), one row block at a time, so no
    ``m x rows`` image is formed.  ``S`` is drawn into ``out`` (a
    ``rows x m`` float64 buffer) when one is given and scaled there in
    place, so repeated sweeps reuse one block, the only scratch that grows
    as ``m x rows``: ``S B`` comes from ``core._left_product``, which on CSR
    copies 16 rows of the draw at a time.  One sweep at ``rows = 160`` with
    the buffer passed in peaked under tracemalloc at 1.22 MiB for
    ``gaussian-dense:20000x20`` and at 2.22 MiB for
    ``sparse-bernoulli:20000x20:density=0.1``.
    """
    quad = cholesky_of_weighted_gram(inst, w)
    scaled = rng.standard_normal((rows, inst.m), out=out)
    scaled *= np.sqrt(w)
    flat = (_left_product(inst, scaled) @ quad.inv_l.T) @ quad.inv_l
    return w * _row_norms(inst, flat.T) / rows


def sketched_solve(
    inst: PolytopeInstance, config: SketchConfig
) -> tuple[np.ndarray, SolveTrace]:
    """Run T sketched sweeps and return (rescaled weights, trace).

    The returned vector averages all T iterates and is rescaled by
    ``n / sum`` so it sums to n up to rounding in the final multiply.
    """
    rows = config.resolve_sketch_rows()
    rng = np.random.default_rng(config.seed)
    sketch = np.empty((rows, inst.m))
    averaged, trace = _average_iterates(
        inst,
        config.resolve_iterations(inst.m),
        lambda w: (_sketch_step(inst, w, rows, rng, sketch), None),
        config.record_history,
    )
    return averaged * (inst.n / averaged.sum()), trace


@dataclass(frozen=True)
class RowSumCheck:
    """Summary of repeated single-sweep mass draws.

    A single sketched sweep from uniform weights has total mass distributed
    as ``chi^2(n * s) / s`` (mean n, variance 2n/s); ``within_band`` states
    whether the sample mean landed inside the three-sigma band for
    ``trials`` draws.  The band is only meaningful for large ``trials``.
    """

    sample_mean: float
    sample_variance: float
    expected_mean: float
    expected_variance: float
    band: float
    within_band: bool
    trials: int
    sketch_rows: int


def expected_row_sum_distribution_check(
    inst: PolytopeInstance, config: SketchConfig, trials: int
) -> RowSumCheck:
    """Draw ``trials`` single sketched sweeps and compare mass statistics.

    Per-trial generators are spawned from ``SeedSequence(config.seed)`` so
    the trials are independent yet fully reproducible.
    """
    check_count("trials", trials)
    m, n = inst.m, inst.n
    rows = config.resolve_sketch_rows()
    uniform = np.full(m, n / m)

    children = np.random.SeedSequence(config.seed).spawn(trials)
    sums = np.empty(trials)
    sketch = np.empty((rows, m))
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        sums[t] = _sketch_step(inst, uniform, rows, rng, sketch).sum()

    band = 3.0 * math.sqrt(2.0 * n / (rows * trials))
    mean = float(sums.mean())
    variance = float(sums.var(ddof=1)) if trials > 1 else 0.0
    return RowSumCheck(
        sample_mean=mean,
        sample_variance=variance,
        expected_mean=float(n),
        expected_variance=2.0 * n / rows,
        band=band,
        within_band=abs(mean - n) <= band,
        trials=trials,
        sketch_rows=rows,
    )
