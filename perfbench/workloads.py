"""The three benchmark workloads and the correctness gate.

Each workload is what a user of ``johnellip solve``, ``solve-sketched`` or
``oracle`` runs: load or generate an instance (set-up), run the solver(s),
then grade the result.  Every call into the package goes through a module
attribute (``fixed_point.fixed_point_solve``, not a name imported here), so a
traced run sees it through the rebound wrappers.

The gate re-derives the certificate without the package's kernel: the
scores come from a Householder QR of ``sqrt(w) * A`` (``numpy.linalg.qr``)
instead of the Cholesky factor of the weighted Gram matrix.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from johnellip import certification, fixed_point, generators, mmio, sketched

# Relative agreement required between certify's max sigma and the QR one.
SIGMA_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One workload at a given size; ``kind`` picks the solve/grade pair."""

    name: str
    kind: str  # "exact" or "sketch-oracle"
    spec: str  # generator spec, without the seed
    from_file: bool = False
    epsilon: float = 0.2
    delta: float = 0.1
    tol: float = 1e-6
    samples: int = 1000  # certify's default containment sample count

    def generator_spec(self, seed: int):
        return generators.parse_generator_spec(self.spec, default_seed=seed)

    def data_path(self, work_dir: Path, seed: int) -> Path:
        stem = self.spec.replace(":", "_").replace("=", "")
        return work_dir / f"{stem}-seed{seed}.mtx"

    def prepare(self, work_dir: Path, seed: int) -> Path | None:
        """Untimed, once per seed: write the Matrix Market input if needed."""
        if not self.from_file:
            return None
        path = self.data_path(work_dir, seed)
        if not path.exists():
            inst = generators.generate(self.generator_spec(seed))
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            mmio.write_matrix_market(tmp, inst)
            os.replace(tmp, path)
        return path

    def setup(self, seed: int, path: Path | None):
        """Time-to-ready: generator draw or file read, plus build_instance."""
        if self.from_file:
            return mmio.read_matrix_market(path)
        return generators.generate(self.generator_spec(seed))

    def solve(self, inst, seed: int) -> dict:
        if self.kind == "exact":
            config = fixed_point.FixedPointConfig(epsilon=self.epsilon)
            weights, _ = fixed_point.fixed_point_solve(inst, config)
            return {"weights": weights, "T": config.resolve_iterations(inst.m, inst.n)}
        config = sketched.SketchConfig(epsilon=self.epsilon, delta=self.delta, seed=seed)
        weights, _ = sketched.sketched_solve(inst, config)
        oracle = certification.oracle_solve(inst, self.tol)
        return {"weights": weights, "T": config.resolve_iterations(inst.m), "oracle": oracle}

    def target(self) -> float:
        # The sketched guarantee is multiplicative, as in `solve-sketched`.
        if self.kind == "exact":
            return self.epsilon
        return (1.0 + self.epsilon) ** 2 - 1.0

    def grade(self, inst, solved: dict, seed: int) -> dict:
        w = solved["weights"]
        graded = {
            "report": certification.certify(
                inst, w, self.target(),
                containment_samples=self.samples, containment_seed=seed,
            )
        }
        if self.kind == "sketch-oracle":
            oracle = solved["oracle"]
            graded["duality_gap"] = certification.duality_gap(inst, w, oracle)
            graded["volume_ratio"] = certification.volume_ratio(inst, w, oracle.weights)
        return graded


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-tall", "exact", "gaussian-dense:50000x50"),
        Workload("sparse-mtx", "exact", "sparse-bernoulli:50000x40:density=0.05",
                 from_file=True),
        Workload("sketch-oracle", "sketch-oracle", "gaussian-dense:1500x40", epsilon=0.5),
    )
}

# Reduced sizes with the same code paths, for the smoke tests.
TINY = {
    "dense-tall": Workload("dense-tall", "exact", "gaussian-dense:600x6", samples=200),
    "sparse-mtx": Workload("sparse-mtx", "exact", "sparse-bernoulli:600x5:density=0.3",
                           from_file=True, samples=200),
    "sketch-oracle": Workload("sketch-oracle", "sketch-oracle", "gaussian-dense:120x4",
                              epsilon=0.5, samples=200),
}


def independent_max_sigma(inst, w) -> float:
    """``max_i a_i^T (A^T W A)^{-1} a_i`` from a QR of ``sqrt(w) * A``.

    With ``sqrt(W) A = Q R`` the Gram matrix is ``R^T R``, so each score is
    ``||R^{-T} a_i||^2``.  Shares no code with the package's kernel.
    """
    a = inst.toarray()
    r = np.linalg.qr(np.sqrt(w)[:, None] * a, mode="r")
    x = solve_triangular(r, a.T, trans="T", lower=False, check_finite=False)
    return float(np.einsum("ij,ij->j", x, x).max())


def gate(workload: Workload, inst, solved: dict, graded: dict) -> list[str]:
    """Names of the correctness checks that fail; empty when all pass."""
    w = solved["weights"]
    rep = graded["report"]
    n = inst.n
    failed = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failed.append(name)

    qr_sigma = independent_max_sigma(inst, w)
    check("max_sigma_matches_qr",
          abs(qr_sigma - rep.max_sigma) <= SIGMA_RTOL * abs(qr_sigma))
    check("certified", rep.passed)
    check("containment_inner",
          rep.containment_inner_violations == 0 and rep.containment_samples == workload.samples)
    check("containment_outer", rep.containment_outer_violations == 0)
    check("weight_sum", abs(float(np.sum(w)) - n) <= 1e-6 * n)

    if workload.kind == "sketch-oracle":
        oracle = solved["oracle"]
        check("oracle_support_deviation", oracle.support_deviation <= workload.tol)
        eps_hat = rep.max_sigma - 1.0
        ratio = graded["volume_ratio"]
        check("volume_ratio_band",
              math.exp(-n * eps_hat / 2.0) - 1e-9 <= ratio <= 1.0 + 1e-6)
        gap, _ = graded["duality_gap"]
        expected = n * math.log(rep.max_sigma)
        check("duality_gap_formula", abs(gap - expected) <= 1e-12 * max(1.0, abs(expected)))
    return failed
