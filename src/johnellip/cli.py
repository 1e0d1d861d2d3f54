"""Command-line entry point.

Subcommands: ``solve`` (exact weights), ``solve-sketched`` (randomized
weights), ``verify`` (grade supplied weights), ``oracle`` (reference
weights via greedy ascent) and ``gen`` (write a generated instance).
Exit codes: 0 when the run certified (or the action simply succeeded), 1
when it ran but did not certify or sampled containment found a violation,
2 for invalid requests, 3 for runtime failures; failures print one JSON
object ``{"error": ..., "message": ...}`` to stderr.  ``--trace`` is
``--format csv`` under another name.

This module and the package root import nothing heavy at module scope, so
``johnellip --help`` and argparse's usage errors answer without loading
numpy or scipy; the implementation (``_driver``) is imported only once a
request has parsed.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

__all__ = ["RunRequest"]


@dataclass(frozen=True)
class RunRequest:
    """One CLI invocation, validated before any computation starts."""

    command: str
    input_path: str | None = None
    generator: str | None = None
    epsilon: float = 0.1
    delta: float = 0.1
    seed: int = 0
    iterations: int | None = None
    sketch_rows: int | None = None
    tol: float = 1e-6
    max_iters: int = 200_000
    volume_mode: bool = False
    samples: int = 1000
    weights_path: str | None = None
    out_path: str | None = None
    fmt: str = "json"


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", dest="input_path", metavar="PATH",
                        help="Matrix Market file with the constraint matrix")
    source.add_argument("--gen", dest="generator", metavar="SPEC",
                        help="generator spec, e.g. gaussian-dense:200x10:seed=7")


def _add_report_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", dest="out_path", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        help="json: certificate report; csv: per-iteration trace")
    parser.add_argument("--samples", type=int, help="containment sample count (0 disables)")
    parser.add_argument("--seed", type=int, help="seed for generation, sketching and sampling")


def _add_solver_args(parser: argparse.ArgumentParser, trace_help: str) -> None:
    parser.add_argument("--eps", dest="epsilon", metavar="EPS", type=float,
                        help="target epsilon in (0, 1)")
    parser.add_argument("--iters", dest="iterations", metavar="ITERS", type=int,
                        help="override the iteration count")
    parser.add_argument("--volume-mode", action="store_true",
                        help="aim for a (1+eps) volume factor by solving at eps/n")
    parser.add_argument("--trace", action="store_const", dest="fmt", const="csv",
                        help=trace_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="johnellip",
        description="Approximate maximum-volume inscribed ellipsoids of "
                    "symmetric polytopes {x : -1 <= Ax <= 1}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="exact fixed-point solver")
    _add_instance_args(solve)
    _add_report_args(solve)
    _add_solver_args(solve, "same as --format csv")

    sketched = sub.add_parser("solve-sketched", help="Gaussian-sketched solver")
    _add_instance_args(sketched)
    _add_report_args(sketched)
    _add_solver_args(sketched, "same as --format csv (computes exact scores)")
    sketched.add_argument("--delta", type=float, help="failure probability in (0, 1)")
    sketched.add_argument("--sketch-rows", type=int, help="override the sketch size")

    verify = sub.add_parser("verify", help="grade weights from a JSON file")
    _add_instance_args(verify)
    _add_report_args(verify)
    verify.add_argument("--weights", dest="weights_path", required=True, metavar="PATH",
                        help="JSON array with one weight per constraint row")
    verify.add_argument("--eps", dest="epsilon", metavar="EPS", type=float,
                        help="target epsilon in (0, 1)")

    oracle = sub.add_parser("oracle", help="reference weights via greedy ascent")
    _add_instance_args(oracle)
    _add_report_args(oracle)
    oracle.add_argument("--tol", type=float, help="score tolerance")
    oracle.add_argument("--max-iters", type=int, help="iteration budget before giving up")

    gen = sub.add_parser("gen", help="write a generated instance as Matrix Market")
    gen.add_argument("--gen", dest="generator", required=True, metavar="SPEC",
                     help="generator spec")
    gen.add_argument("--seed", type=int, help="seed when SPEC has none")
    gen.add_argument("--out", dest="out_path", required=True, metavar="PATH",
                     help="output file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Every dest is a RunRequest field; flags left unset keep its defaults.
    request = RunRequest(**{k: v for k, v in vars(args).items() if v is not None})
    from . import _driver

    return _driver.run(request)
