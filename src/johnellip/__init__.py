"""Approximate maximum-volume inscribed ellipsoids of symmetric polytopes.

Given an m-by-n matrix A of full column rank describing the polytope
``{x : -1 <= A x <= 1}``, this package computes nonnegative row weights w
such that ``{x : x^T A^T diag(w) A x <= 1}`` is a provably good inscribed
ellipsoid, via an exact leverage-score fixed-point iteration or a
Gaussian-sketched variant, and certifies the result independently.

Submodules are imported lazily, on first access to a name below, so that
``johnellip --help`` and the command line's usage errors load neither numpy
nor scipy (see ``cli``).
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    # core
    "PolytopeInstance": "core",
    "EllipsoidQuadratic": "core",
    "build_instance": "core",
    "cholesky_of_weighted_gram": "core",
    "leverage_scores": "core",
    "validate_weights": "core",
    # fixed_point
    "FixedPointConfig": "fixed_point",
    "SolveTrace": "fixed_point",
    "default_iterations": "fixed_point",
    "fixed_point_solve": "fixed_point",
    # sketched
    "SketchConfig": "sketched",
    "RowSumCheck": "sketched",
    "default_sketch_rows": "sketched",
    "default_sketch_iterations": "sketched",
    "sketched_solve": "sketched",
    "expected_row_sum_distribution_check": "sketched",
    # certification
    "CertificateReport": "certification",
    "ContainmentResult": "certification",
    "OracleSolution": "certification",
    "certify": "certification",
    "containment_check": "certification",
    "duality_gap": "certification",
    "oracle_solve": "certification",
    "volume_ratio": "certification",
    # io
    "read_matrix_market": "mmio",
    "write_matrix_market": "mmio",
    "GeneratorSpec": "generators",
    "FAMILIES": "generators",
    "generate": "generators",
    "parse_generator_spec": "generators",
    "REPORT_KEYS": "reports",
    "TRACE_HEADER": "reports",
    "render_report_json": "reports",
    "render_trace_csv": "reports",
    # cli
    "RunRequest": "cli",
    # errors
    "JohnEllipsoidError": "errors",
    "DimensionError": "errors",
    "ZeroRowError": "errors",
    "RankDeficientError": "errors",
    "NotPositiveDefiniteError": "errors",
    "DomainError": "errors",
    "NoConvergenceError": "errors",
    "ParseError": "errors",
    "GenerationFailedError": "errors",
}

__all__ = sorted(_EXPORTS) + ["run", "__version__"]


def __getattr__(name: str):
    if name == "run":
        from ._driver import run

        return run
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__():
    return __all__
