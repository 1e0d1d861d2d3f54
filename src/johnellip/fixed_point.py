"""Exact fixed-point solver for approximate John ellipsoid weights.

Starting from the uniform vector ``w = (n/m) * ones``, each sweep rescales
every weight by its current score, ``w_i <- w_i * sigma_i(w)``, and the
returned weights are the average of all T iterates (the uniform start
included).  With the default iteration count ``T = ceil((2/eps) log(m/n))``
the average satisfies ``max_i sigma_i(w) <= 1 + eps`` and ``sum(w) = n``,
so ``{x : x^T A^T diag(w) A x <= 1}`` is a (1+eps)-approximation of the
maximum-volume inscribed ellipsoid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import PolytopeInstance, leverage_scores
from .errors import check_count, check_unit_interval

__all__ = [
    "FixedPointConfig",
    "SolveTrace",
    "default_iterations",
    "fixed_point_solve",
]


def default_iterations(m: int, n: int, epsilon: float) -> int:
    """Iteration count ``max(1, ceil((2/epsilon) * log(m/n)))``."""
    check_unit_interval("epsilon", epsilon)
    return max(1, math.ceil((2.0 / epsilon) * math.log(m / n)))


@dataclass(frozen=True)
class FixedPointConfig:
    """Solver knobs: target ``epsilon`` in (0, 1), optional explicit
    iteration count ``iterations`` (default derived from epsilon and the
    instance shape), and ``record_history`` to populate the trace."""

    epsilon: float
    iterations: int | None = None
    record_history: bool = False

    def __post_init__(self):
        check_unit_interval("epsilon", self.epsilon)
        if self.iterations is not None:
            check_count("iterations", self.iterations)

    def resolve_iterations(self, m: int, n: int) -> int:
        if self.iterations is not None:
            return self.iterations
        return default_iterations(m, n, self.epsilon)


@dataclass
class SolveTrace:
    """Per-iterate records; empty unless ``record_history`` was set.

    Row k holds the iterate index k (1-based), ``max_i sigma_i(w^(k))``,
    ``sum(w^(k))`` and the wall milliseconds of the whole step from
    ``w^(k)`` to ``w^(k+1)``: the exact scores and the rescaling for the
    fixed-point solver, the sketched sweep for the sketched one.  The final
    iterate's score maximum requires one exact leverage evaluation the
    solver itself does not need, so traces cost one extra sweep, which the
    final row times.  The sketched solver's exact maxima for the earlier
    rows are likewise trace-only and not timed.
    """

    iterations: list[int] = field(default_factory=list)
    max_sigma: list[float] = field(default_factory=list)
    weight_sum: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)

    def add(self, k: int, max_sigma: float, weight_sum: float, wall_ms: float) -> None:
        self.iterations.append(k)
        self.max_sigma.append(float(max_sigma))
        self.weight_sum.append(float(weight_sum))
        self.wall_ms.append(float(wall_ms))

    def __len__(self) -> int:
        return len(self.iterations)


def _average_iterates(inst: PolytopeInstance, total: int, step, record: bool):
    """Average ``w^(0..T-1)`` from the uniform start; return (average, trace).

    ``step(w)`` returns ``w^(k+1)`` and the exact scores of ``w^(k)`` when it
    computed them (else None); only ``step`` is timed.  Scores that exist
    only for the trace come from :func:`leverage_scores`, and the final row
    times that evaluation.
    """
    trace = SolveTrace()
    w = np.full(inst.m, inst.n / inst.m)
    accum = w.copy()
    for k in range(1, total):
        start = time.perf_counter()
        w_next, sigma = step(w)
        elapsed = (time.perf_counter() - start) * 1e3
        if record:
            sigma = leverage_scores(inst, w) if sigma is None else sigma
            trace.add(k, float(sigma.max()), float(w.sum()), elapsed)
        w = w_next
        accum += w
    if record:
        start = time.perf_counter()
        sigma = leverage_scores(inst, w)
        trace.add(total, float(sigma.max()), float(w.sum()),
                  (time.perf_counter() - start) * 1e3)
    return accum / total, trace


def fixed_point_solve(
    inst: PolytopeInstance, config: FixedPointConfig
) -> tuple[np.ndarray, SolveTrace]:
    """Run T fixed-point sweeps and return (averaged weights, trace).

    Deterministic: identical inputs produce bitwise-identical weights.
    """

    def step(w):
        sigma = leverage_scores(inst, w)
        return w * sigma, sigma

    total = config.resolve_iterations(inst.m, inst.n)
    return _average_iterates(inst, total, step, config.record_history)
