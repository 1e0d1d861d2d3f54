"""Deterministic report serialization.

The JSON report is a single object with a fixed key order

    m, n, epsilon_target, epsilon_achieved, max_sigma, weight_sum,
    duality_gap, logdet, iterations, wall_ms, seed, algorithm, certified

and the CSV report is one row per trace entry under the header
``iter,max_sigma,weight_sum,wall_ms``.  Floats are rendered with 17
significant digits (``%.17g``), which round-trips float64 exactly, so two
runs on identical inputs produce byte-identical files apart from measured
wall times.
"""

from __future__ import annotations

import json
import math

from .fixed_point import SolveTrace

__all__ = [
    "REPORT_KEYS",
    "TRACE_HEADER",
    "render_report_json",
    "render_trace_csv",
]

REPORT_KEYS = (
    "m",
    "n",
    "epsilon_target",
    "epsilon_achieved",
    "max_sigma",
    "weight_sum",
    "duality_gap",
    "logdet",
    "iterations",
    "wall_ms",
    "seed",
    "algorithm",
    "certified",
)

TRACE_HEADER = "iter,max_sigma,weight_sum,wall_ms"


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in report")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported report value {value!r}")


def render_report_json(fields: dict) -> str:
    """Serialize a report dict in the fixed key order."""
    missing = [key for key in REPORT_KEYS if key not in fields]
    if missing:
        raise ValueError(f"report is missing keys {missing}")
    body = ",\n".join(f"  {json.dumps(key)}: {_scalar(fields[key])}" for key in REPORT_KEYS)
    return "{\n" + body + "\n}\n"


def render_trace_csv(trace: SolveTrace) -> str:
    """Serialize a solve trace, header included."""
    lines = [TRACE_HEADER]
    for k, sigma, total, wall in zip(
        trace.iterations, trace.max_sigma, trace.weight_sum, trace.wall_ms
    ):
        lines.append(f"{k},{sigma:.17g},{total:.17g},{wall:.17g}")
    return "\n".join(lines) + "\n"

