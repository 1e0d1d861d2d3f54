"""Implementation behind the CLI: request validation and dispatch."""

from __future__ import annotations

import json
import sys
import time

from .certification import certify, oracle_solve
from .cli import RunRequest
from .core import PolytopeInstance
from .errors import DomainError, JohnEllipsoidError, check_count, check_unit_interval
from .fixed_point import FixedPointConfig, SolveTrace, fixed_point_solve
from .generators import generate, parse_generator_spec
from .mmio import read_matrix_market, write_matrix_market
from .reports import render_report_json, render_trace_csv
from .sketched import SketchConfig, sketched_solve

__all__ = ["run"]

_VOLUME_MODE_ITER_WARN = 10**6
_VOLUME_MODE_BLOCK_WARN_GIB = 1.0

_EXIT_OK = 0
_EXIT_NOT_CERTIFIED = 1
_EXIT_BAD_REQUEST = 2
_EXIT_RUNTIME = 3


def _fail(exc: BaseException, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _validate(request: RunRequest) -> None:
    if request.command not in ("solve", "solve-sketched", "verify", "oracle", "gen"):
        raise DomainError(f"unknown command {request.command!r}")
    if request.command != "gen" and (request.input_path is None) == (request.generator is None):
        raise DomainError("exactly one of --input and --gen is required")
    if request.fmt not in ("json", "csv"):
        raise DomainError(f"unknown report format {request.fmt!r}")
    check_count("--seed", request.seed, minimum=0)
    check_count("--samples", request.samples, minimum=0)
    if request.command in ("solve", "solve-sketched", "verify"):
        check_unit_interval("--eps", request.epsilon)
    if request.command in ("solve", "solve-sketched") and request.iterations is not None:
        check_count("--iters", request.iterations)
    if request.command == "solve-sketched":
        check_unit_interval("--delta", request.delta)
        if request.sketch_rows is not None:
            check_count("--sketch-rows", request.sketch_rows)
    if request.command == "oracle":
        check_unit_interval("--tol", request.tol)
        check_count("--max-iters", request.max_iters)
    if request.command == "verify" and request.weights_path is None:
        raise DomainError("verify requires --weights")
    if request.command == "gen":
        if request.generator is None:
            raise DomainError("gen requires --gen")
        if request.out_path is None:
            raise DomainError("gen requires --out")


def _generated(request: RunRequest) -> PolytopeInstance:
    return generate(parse_generator_spec(request.generator, default_seed=request.seed))


def _load_instance(request: RunRequest) -> PolytopeInstance:
    if request.input_path is not None:
        return read_matrix_market(request.input_path)
    return _generated(request)


def _emit(request: RunRequest, text: str) -> None:
    if request.out_path is None:
        sys.stdout.write(text)
    else:
        with open(request.out_path, "w", encoding="ascii") as handle:
            handle.write(text)


def _weights(request: RunRequest, inst: PolytopeInstance):
    """The command's weights as (weights, trace, iterations, target, algorithm).

    A ``verify`` file's weights are returned as parsed: ``certify`` is the
    one place that validates them.  ``verify`` and ``oracle`` have no trace,
    so theirs is empty.
    """
    if request.command == "verify":
        with open(request.weights_path, "r", encoding="ascii") as handle:
            weights = json.load(handle)
        return weights, SolveTrace(), 0, request.epsilon, "verify"
    if request.command == "oracle":
        solution = oracle_solve(inst, request.tol, request.max_iters)
        return solution.weights, SolveTrace(), solution.iterations, request.tol, "oracle"
    eps = request.epsilon / inst.n if request.volume_mode else request.epsilon
    record = request.fmt == "csv"
    if request.command == "solve":
        config = FixedPointConfig(epsilon=eps, iterations=request.iterations, record_history=record)
        solve, algorithm = fixed_point_solve, "fixed-point"
        total, target = config.resolve_iterations(inst.m, inst.n), eps
        implied, block_gib = f"{total} iterations", 0.0
    else:
        config = SketchConfig(
            epsilon=eps, delta=request.delta, seed=request.seed,
            sketch_rows=request.sketch_rows, iterations=request.iterations,
            record_history=record,
        )
        solve, algorithm = sketched_solve, "sketched"
        # The sketched guarantee is multiplicative: certify at (1+eps)^2 - 1.
        total, target = config.resolve_iterations(inst.m), (1.0 + eps) ** 2 - 1.0
        rows = config.resolve_sketch_rows()
        block_gib = rows * inst.m * 8 / 2**30  # one float64 s x m Gaussian block
        implied = (
            f"{total} iterations and {rows} sketch rows, "
            f"a {block_gib:.2f} GiB {rows} x {inst.m} block per sweep"
        )
    if request.volume_mode and (
        (request.iterations is None and total > _VOLUME_MODE_ITER_WARN)
        or block_gib > _VOLUME_MODE_BLOCK_WARN_GIB
    ):
        print(
            f"warning: volume mode implies {implied} "
            f"(eps={eps:.3e}); consider --iters"
            + (" and --sketch-rows" if algorithm == "sketched" else ""),
            file=sys.stderr,
        )
    weights, trace = solve(inst, config)
    return weights, trace, total, target, algorithm


def _run_graded(request: RunRequest) -> int:
    inst = _load_instance(request)
    start = time.perf_counter()
    weights, trace, iterations, target, algorithm = _weights(request, inst)
    solved = time.perf_counter()
    report = certify(
        inst, weights, target,
        containment_samples=request.samples, containment_seed=request.seed,
    )
    # wall_ms times the solver, or certify for verify, whose weights are given.
    wall_ms = (time.perf_counter() - solved if algorithm == "verify" else solved - start) * 1e3
    fields = {
        "m": inst.m,
        "n": inst.n,
        "epsilon_target": report.target_epsilon,
        "epsilon_achieved": report.epsilon_achieved,
        "max_sigma": report.max_sigma,
        "weight_sum": report.weight_sum,
        "duality_gap": report.duality_gap,
        "logdet": report.logdet,
        "iterations": iterations,
        "wall_ms": wall_ms,
        "seed": request.seed,
        "algorithm": algorithm,
        "certified": report.passed,
    }
    # _validate lets only json and csv through.
    _emit(request, render_trace_csv(trace) if request.fmt == "csv" else render_report_json(fields))
    if not (report.containment_inner_pass and report.containment_outer_pass):
        print(
            f"containment: {report.containment_inner_violations} inner and "
            f"{report.containment_outer_violations} outer violations "
            f"in {report.containment_samples} samples",
            file=sys.stderr,
        )
        return _EXIT_NOT_CERTIFIED
    return _EXIT_OK if report.passed else _EXIT_NOT_CERTIFIED


def _run_gen(request: RunRequest) -> int:
    write_matrix_market(request.out_path, _generated(request))
    return _EXIT_OK


def run(request: RunRequest) -> int:
    """Execute a validated request; returns the process exit code."""
    try:
        _validate(request)
        return (_run_gen if request.command == "gen" else _run_graded)(request)
    except DomainError as exc:  # a ValueError too, so it must come first
        return _fail(exc, _EXIT_BAD_REQUEST)
    except (JohnEllipsoidError, OSError, ValueError, MemoryError) as exc:
        return _fail(exc, _EXIT_RUNTIME)
