"""Spans around the package's public functions, recorded from outside.

Nothing in ``src/`` knows about tracing.  A traced run rebinds each public
function's name in every module that calls it (``fixed_point.leverage_scores``,
``core.cholesky_of_weighted_gram``, ...) to a wrapper that opens a span on
entry and closes it on exit, and restores the originals afterwards.  Private
helpers (``_leverage_from_factor``, ``_sketch_step``, ``_exact_state``) are
not wrapped, so their time counts toward the public span that called them.

Spans live in memory as a flat list; each has a name, start and end
(``time.perf_counter`` seconds), the index of its parent span (or -1) and,
when the tracer runs with ``memory=True``, the tracemalloc peak it needed
above the traced memory at its start.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

# Span name ("<defining module>.<function>") -> modules whose global of that
# name is rebound.  A module is listed when it calls the function by that
# global name, or when the benchmark itself calls the function through it.
TRACED = {
    "core.build_instance": ("generators", "mmio"),
    "core.validate_weights": ("core", "certification"),
    "core.cholesky_of_weighted_gram": ("core", "sketched", "certification"),
    "core.leverage_scores": ("fixed_point", "sketched", "certification"),
    "generators.generate": ("generators",),
    "mmio.read_matrix_market": ("mmio",),
    "mmio.write_matrix_market": ("mmio",),
    "fixed_point.fixed_point_solve": ("fixed_point",),
    "sketched.sketched_solve": ("sketched",),
    "certification.certify": ("certification",),
    "certification.containment_check": ("certification",),
    "certification.duality_gap": ("certification",),
    "certification.volume_ratio": ("certification",),
    "certification.oracle_solve": ("certification",),
}

_ORIGINAL = "__perfbench_original__"


def _module(short: str):
    return importlib.import_module(f"johnellip.{short}")


def _bindings():
    """Yield (span name, module, attribute) for every name to rebind.

    A listed module is skipped when its global of that name is not the
    package's function (it no longer imports it, or defines its own).
    """
    for span, callers in TRACED.items():
        home, attr = span.split(".")
        fn = getattr(_module(home), attr)
        for caller in callers:
            module = _module(caller)
            if getattr(module, attr, None) is fn:
                yield span, module, attr


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        # Open spans: (span index, traced bytes at entry, running peak).
        self._stack: list[list[int]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        self._stack.append([idx, current, current])
        self.spans.append(Span(name, perf_counter(), parent=parent))
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        top = self._stack.pop()
        if top[0] != idx:
            raise RuntimeError(f"span {idx} closed while span {top[0]} is open")
        span = self.spans[idx]
        span.end = end
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            peak = max(top[2], peak)
            span.peak_bytes = peak - top[1]
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(traced, _ORIGINAL, fn)
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced name to a wrapper; restore the originals on exit."""
    saved = []
    wrappers = {}
    try:
        for span, module, attr in _bindings():
            original = getattr(module, attr)
            if hasattr(original, _ORIGINAL):
                raise RuntimeError(f"{module.__name__}.{attr} is already wrapped")
            if span not in wrappers:
                wrappers[span] = tracer.wrap(span, original)
            saved.append((module, attr, original))
            setattr(module, attr, wrappers[span])
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    assert_unwrapped()


def assert_unwrapped() -> None:
    """Raise if any traced name is still bound to a tracing wrapper."""
    for span, callers in TRACED.items():
        attr = span.split(".")[1]
        for caller in callers:
            if hasattr(getattr(_module(caller), attr, None), _ORIGINAL):
                raise RuntimeError(f"johnellip.{caller}.{attr} still carries a tracing wrapper")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def summarize(spans: list[Span]) -> dict:
    """Per-layer totals of one traced iteration.

    ``layers`` maps every span name to its call count, summed self time and
    largest memory peak; ``counts`` holds the derived counts the benchmark
    reports: sweeps under each solver, oracle refreshes and factorizations
    under the grading spans.
    """
    own = self_times(spans)
    layers: dict = {}
    for s, self_s in zip(spans, own):
        entry = layers.setdefault(s.name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["peak_mb"] = max(entry["peak_mb"], s.peak_bytes / 2**20)

    def parent_name(s: Span) -> str | None:
        return spans[s.parent].name if s.parent >= 0 else None

    def under(s: Span, names) -> bool:
        while s.parent >= 0:
            s = spans[s.parent]
            if s.name in names:
                return True
        return False

    grading = (
        "certification.certify",
        "certification.containment_check",
        "certification.duality_gap",
        "certification.volume_ratio",
    )
    chol = [s for s in spans if s.name == "core.cholesky_of_weighted_gram"]
    counts = {
        "fixed_point.sweeps": sum(
            1 for s in spans
            if s.name == "core.leverage_scores"
            and parent_name(s) == "fixed_point.fixed_point_solve"
        ),
        "sketched.sweeps": sum(1 for s in chol if parent_name(s) == "sketched.sketched_solve"),
        "certification.oracle.refreshes": sum(
            1 for s in chol if parent_name(s) == "certification.oracle_solve"
        ),
        "certification.factorizations": sum(1 for s in chol if under(s, grading)),
    }
    return {"layers": layers, "counts": counts}


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent < 0)
