"""Which results of the benchmark workloads depend on the BLAS thread count.

Runs set-up, solve and grade of each workload in ``perfbench/workloads.py``
at seed 0 in a fresh process, once with ``OPENBLAS_NUM_THREADS=1`` and once
on the default thread count, and compares hashes of the results.  Asserted
equal: the exact weights (``dense-tall``, ``sparse-mtx``), every ``certify``
field (all three workloads), and the oracle's weights, step count and
logdet (``sketch-oracle``).  The sketched weights' hashes are printed but
not compared: OpenBLAS may round their products differently on one thread.

    python tests/thread_invariance.py

prints one line per result and exits 1 if an asserted one differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNASSERTED = "sketched weights"


def _digest(value) -> str:
    data = value.tobytes() if hasattr(value, "tobytes") else repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _hashes(work_dir: Path) -> dict[str, str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        inst = workload.setup(0, workload.prepare(work_dir, 0))
        solved = workload.solve(inst, 0)
        exact = workload.kind == "exact"
        out[f"{name} {'weights' if exact else UNASSERTED}"] = _digest(solved["weights"])
        for field, value in asdict(workload.grade(inst, solved, 0)["report"]).items():
            out[f"{name} certify.{field}"] = _digest(value)
        if not exact:
            oracle = solved["oracle"]
            for field in ("weights", "iterations", "logdet"):
                out[f"{name} oracle.{field}"] = _digest(getattr(oracle, field))
    return out


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        json.dump(_hashes(Path(sys.argv[2])), sys.stdout)
        return 0
    runs = []
    with tempfile.TemporaryDirectory() as work_dir:
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            child = [sys.executable, __file__, "--child", work_dir]
            done = subprocess.run(child, env=env, check=True, stdout=subprocess.PIPE, text=True)
            runs.append(json.loads(done.stdout))
    one, default = runs
    differ = []
    for key in one:
        same = one[key] == default[key]
        print(f"{'same   ' if same else 'DIFFERS'} {one[key]} {default[key]} {key}")
        if not same and not key.endswith(UNASSERTED):
            differ.append(key)
    if differ:
        print("thread-dependent: " + ", ".join(differ), file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
