"""One benchmark iteration in a fresh process.

Usage (normally started by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload dense-tall --seed 0 --mode plain

Modes:

* ``prep``   untimed: write the workload's Matrix Market input for this seed
  if it is missing, and report the environment stamp;
* ``plain``  one timed iteration with no wrappers installed;
* ``trace``  one iteration with spans recorded around every public call;
* ``memory`` like ``trace`` under tracemalloc, for per-span memory peaks.

Prints one JSON object on stdout.  A failure inside the workload is reported
in that object (``"failed": [...]``) with exit code 0; exit code 2 means the
package under test could not be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / ".work"

# A plain iteration repeats set-up (at least 3 times) until SETUP_BUDGET_S
# and grading (at least once) until GRADE_BUDGET_S has passed, and reports
# every repeat, so the medians stay steady where one call takes only
# milliseconds.  Set-up and grading that take longer run only the minimum.
SETUP_MIN = 3
SETUP_BUDGET_S = 0.25
GRADE_BUDGET_S = 0.6


def _import_package() -> None:
    src = (ROOT / "src").resolve()
    try:
        import johnellip
    except ImportError as exc:
        print(f"perfbench: cannot import johnellip from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(johnellip.__file__).resolve().parents:
        print(f"perfbench: johnellip came from {johnellip.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas.get("openblas configuration"),
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "JOHN_THREADS")},
    }


def _rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat(call, at_least: int, budget: float) -> tuple[list[float], object]:
    """Time ``call()`` at least ``at_least`` times and until ``budget`` s passed."""
    times = []
    began = perf_counter()
    while True:
        start = perf_counter()
        result = call()
        times.append(perf_counter() - start)
        if len(times) >= at_least and perf_counter() - began >= budget:
            return times, result


def iterate(workload, seed: int, work_dir: Path, tracer=None, repeat: bool = False) -> dict:
    """Set up, solve and grade, then run the gate on the graded result.

    ``time_to_cert_s`` is the one interval from the solver call to the end of
    the first grading.  With ``repeat``, set-up and grading are repeated
    (see SETUP_BUDGET_S, GRADE_BUDGET_S) and every duration is reported.  Times are
    ``perf_counter`` seconds; ``peak_rss_mb`` is read before the gate so the
    gate's own arrays do not count.
    """
    from workloads import gate

    path = workload.prepare(work_dir, seed)
    wall_start = perf_counter()
    at_least, budget = (SETUP_MIN, SETUP_BUDGET_S) if repeat else (1, 0.0)
    setup_s, inst = _repeat(lambda: workload.setup(seed, path), at_least, budget)
    start = perf_counter()
    solved = workload.solve(inst, seed)
    solved_at = perf_counter()
    graded = workload.grade(inst, solved, seed)
    end = perf_counter()
    certify_s = [end - solved_at]
    if repeat and certify_s[0] < GRADE_BUDGET_S:
        more, _ = _repeat(lambda: workload.grade(inst, solved, seed), 1,
                          GRADE_BUDGET_S - certify_s[0])
        certify_s += more
    out = {
        "setup_s": setup_s,
        "solve_s": solved_at - start,
        "certify_s": certify_s,
        "time_to_cert_s": end - start,
        "peak_rss_mb": _rss_mib(),
        "m": inst.m,
        "n": inst.n,
        "T": solved["T"],
        "wall_s": end - wall_start,
    }
    if "oracle" in solved:
        out["oracle_steps"] = solved["oracle"].iterations
    if path is not None:
        out["read_bytes"] = path.stat().st_size
    if tracer is not None and path is not None:
        # The untimed write of the prep step, traced on the same matrix.
        from johnellip import mmio

        copy = work_dir / f"trace-write-{os.getpid()}.mtx"
        try:
            mmio.write_matrix_market(copy, inst)
        finally:
            copy.unlink(missing_ok=True)
    out["failed"] = gate(workload, inst, solved, graded)
    return out


def run(workload_name: str, seed: int, mode: str, tiny: bool, work_dir: Path) -> dict:
    import tracing
    from workloads import TINY, WORKLOADS

    workload = (TINY if tiny else WORKLOADS)[workload_name]
    work_dir.mkdir(parents=True, exist_ok=True)
    if mode == "prep":
        workload.prepare(work_dir, seed)
        return {"env": environment()}

    # Warm-up: a whole iteration at the tiny size, then one full-size set-up,
    # so lazy imports, first BLAS calls and BLAS thread start-up happen here
    # and not in the timed region.
    iterate(TINY[workload_name], seed, work_dir)
    workload.setup(seed, workload.prepare(work_dir, seed))

    if mode == "plain":
        tracing.assert_unwrapped()
        return iterate(workload, seed, work_dir, repeat=True)

    tracer = tracing.Tracer(memory=mode == "memory")
    if tracer.memory:
        tracemalloc.start()
    with tracing.installed(tracer):
        out = iterate(workload, seed, work_dir, tracer=tracer)
    if tracer.memory:
        tracemalloc.stop()
    spans = tracer.spans
    origin = spans[0].start if spans else 0.0
    timed = [s for s in spans if s.name != "mmio.write_matrix_market"]
    out["top_level_s"] = tracing.top_level_seconds(timed)
    out["coverage"] = out["top_level_s"] / out["wall_s"]
    out.update(tracing.summarize(spans))
    out["spans"] = [
        {"name": s.name, "start": s.start - origin, "end": s.end - origin,
         "parent": s.parent, "peak_bytes": s.peak_bytes}
        for s in spans
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("prep", "plain", "trace", "memory"), required=True)
    args = parser.parse_args(argv)

    _import_package()
    try:
        out = run(args.workload, args.seed, args.mode, False, WORK_DIR)
    except Exception as exc:  # a failed operation, reported to the parent
        out = {"failed": [f"exception: {type(exc).__name__}: {exc}"],
               "traceback": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
