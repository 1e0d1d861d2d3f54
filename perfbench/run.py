"""Benchmark entry point: time johnellip end to end, or trace it layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload dense-tall --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each iteration runs in a fresh ``worker.py`` process, one at a time, so
``peak_rss_mb`` belongs to one iteration and no two iterations share the
machine.  Iterations repeat until ``--seconds`` have passed.  With
``--trace 0`` every iteration runs without wrappers and the
end-to-end metrics are reported; with ``--trace 1`` one tracemalloc pass is
followed by alternating traced and untraced iterations, and the per-layer
metrics are reported.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment stamp, every iteration, spans) goes to
``perfbench/.work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / ".work"

# Whole-run budget: stop starting iterations after SOFT_STOP_S, and kill a
# worker still running at HARD_STOP_S, so a run always ends within 180 s.
SOFT_STOP_S = 120.0
HARD_STOP_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "time_to_cert_s": "s",
    "peak_rss_mb": "MiB",
}


def _self(span):
    return "s", lambda t, m: t["layers"].get(span, {}).get("self_s", 0.0)


def _calls(span):
    return "count", lambda t, m: t["layers"].get(span, {}).get("calls", 0)


def _peak(span):
    return "MiB", lambda t, m: m["layers"].get(span, {}).get("peak_mb", 0.0)


def _count(key):
    return "count", lambda t, m: t["counts"][key]


# Per-layer metric -> (unit, value from one traced and the memory iteration).
# trace.overhead_s is added from the traced and untraced iterations together.
PER_LAYER = {
    "generators.generate.self_s": _self("generators.generate"),
    "core.build_instance.self_s": _self("core.build_instance"),
    "mmio.read_matrix_market.self_s": _self("mmio.read_matrix_market"),
    "mmio.read_matrix_market.bytes": ("B", lambda t, m: t.get("read_bytes", 0)),
    "mmio.write_matrix_market.self_s": _self("mmio.write_matrix_market"),
    "core.validate_weights.calls": _calls("core.validate_weights"),
    "core.validate_weights.self_s": _self("core.validate_weights"),
    "core.cholesky_of_weighted_gram.calls": _calls("core.cholesky_of_weighted_gram"),
    "core.cholesky_of_weighted_gram.self_s": _self("core.cholesky_of_weighted_gram"),
    "core.leverage_scores.calls": _calls("core.leverage_scores"),
    "core.leverage_scores.self_s": _self("core.leverage_scores"),
    "fixed_point.fixed_point_solve.self_s": _self("fixed_point.fixed_point_solve"),
    "fixed_point.sweeps": _count("fixed_point.sweeps"),
    "sketched.sketched_solve.self_s": _self("sketched.sketched_solve"),
    "sketched.sweeps": _count("sketched.sweeps"),
    "certification.oracle_solve.self_s": _self("certification.oracle_solve"),
    "certification.oracle.steps": ("count", lambda t, m: t.get("oracle_steps", 0)),
    "certification.oracle.refreshes": _count("certification.oracle.refreshes"),
    "certification.certify.self_s": _self("certification.certify"),
    "certification.containment_check.self_s": _self("certification.containment_check"),
    "certification.factorizations": _count("certification.factorizations"),
    "certification.duality_gap.self_s": _self("certification.duality_gap"),
    "certification.volume_ratio.self_s": _self("certification.volume_ratio"),
    "certification.containment_check.peak_mb": _peak("certification.containment_check"),
    "fixed_point.fixed_point_solve.peak_mb": _peak("fixed_point.fixed_point_solve"),
    "sketched.sketched_solve.peak_mb": _peak("sketched.sketched_solve"),
    "trace.top_level_coverage": ("ratio", lambda t, m: t["coverage"]),
}

# The traced run fails an iteration whose top-level spans cover less than
# this share of the traced wall time.
MIN_COVERAGE = 0.95


class PackageMissing(RuntimeError):
    """The package under test cannot be imported from this checkout."""


class PrepFailed(RuntimeError):
    """The untimed preparation of a workload's input failed."""


def worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "failed": [f"timeout after {timeout:.0f} s"]}
    if proc.returncode == 2:
        raise PackageMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "failed": [f"worker exited {proc.returncode}: {tail[0]}"]}
    out = json.loads(lines[-1])
    out["mode"] = mode
    return out


def _trace_checks(out: dict) -> list[str]:
    failed = []
    if out["coverage"] < MIN_COVERAGE:
        failed.append(f"top-level spans cover {out['coverage']:.3f} of the traced wall time")
    sweeps = out["counts"]["sketched.sweeps" if "oracle_steps" in out else "fixed_point.sweeps"]
    if sweeps != out["T"] - 1:
        failed.append(f"{sweeps} sweeps traced, expected T - 1 = {out['T'] - 1}")
    return failed


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return "max", max(values)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations of one workload for ``seconds`` and aggregate them."""
    start = perf_counter()

    def elapsed() -> float:
        return perf_counter() - start

    prep = worker(workload, seed, "prep", HARD_STOP_S)
    if prep.get("failed"):
        raise PrepFailed(f"preparing {workload} failed: {prep['failed']}")

    runs = []
    if trace:
        runs.append(worker(workload, seed, "memory", HARD_STOP_S - elapsed()))
    cycle = ("trace", "plain") if trace else ("plain",)
    while True:
        runs.append(worker(workload, seed, cycle[len(runs) % len(cycle)],
                           HARD_STOP_S - elapsed()))
        modes = {r["mode"] for r in runs if not r.get("failed")}
        done = elapsed() >= seconds and (not trace or {"trace", "plain"} <= modes)
        if done or elapsed() >= SOFT_STOP_S:
            break

    for r in runs:
        if r["mode"] in ("trace", "memory") and not r.get("failed"):
            r["failed"] = _trace_checks(r)
    good = {mode: [r for r in runs if r["mode"] == mode and not r.get("failed")]
            for mode in ("plain", "trace", "memory")}
    samples = {}
    for name in END_TO_END:
        # setup_s and certify_s hold every repeat of the iteration.
        samples[name] = [v for r in good["plain"] for v in
                         (r[name] if isinstance(r[name], list) else [r[name]])]

    if trace:
        wanted = {name: unit for name, (unit, _) in PER_LAYER.items()}
        wanted["trace.overhead_s"] = "s"
        if good["trace"] and good["memory"]:
            for name, (_, value) in PER_LAYER.items():
                samples[name] = [value(t, good["memory"][0]) for t in good["trace"]]
        if good["trace"] and good["plain"]:
            samples["trace.overhead_s"] = [
                statistics.median(r["time_to_cert_s"] for r in good["trace"])
                - statistics.median(samples["time_to_cert_s"])
            ]
    else:
        wanted = END_TO_END
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in wanted.items() if samples.get(name)}

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": elapsed(),
        "env": prep["env"],
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.get("failed")),
        "failures": [r["failed"] for r in runs if r.get("failed")],
        "metrics": metrics,
        "samples": samples,
        "complete": len(metrics) == len(wanted),
        "runs": runs,
    }


def _print_summary(result: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} iterations in {result['elapsed_s']:.1f} s, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED: {'; '.join(failure)}")
    for name, metric in result["metrics"].items():
        values = result["samples"][name]
        label, hi = tail_percentile(values)
        print(f"  {name:<42} {metric['unit']:<6} median {metric['value']:<12.6g} "
              f"{label} {hi:<12.6g} n={len(values)}")
    env = result["env"]
    print(f"  env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['env']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="dense-tall, sparse-mtx, sketch-oracle, or all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "johnellip" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'johnellip'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")

    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace)))
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except PrepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out_dir = WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        _print_summary(result)
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        print(f"  full record: {path.relative_to(ROOT)}")
    if not all(r["complete"] for r in results):
        print("perfbench: no iteration produced the reported metrics", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
