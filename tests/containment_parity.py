"""Containment's float32 screen against the exact pass on the benchmark workloads.

For each workload in ``perfbench/workloads.py`` at seeds 0-4 and the
held-out seed 7, sets up, solves and grades once, then grades again with
``certification._screened_maxima`` replaced by the exact column-maximum
pass, so that every sample takes it.  Every ``certify`` field must be equal
bit for bit.  Both runs happen in a fresh process with
``OPENBLAS_NUM_THREADS=1`` and in one on the default thread count.

    python tests/containment_parity.py

prints one line per workload, seed and thread count, saying whether the
screen ran (``sparse-mtx`` is CSR, which keeps the exact pass) and how many
samples it left to the exact pass, and exits 1 if a field differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2, 3, 4, 7)


def _compare(work_dir: Path) -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    from johnellip import certification, core

    screen, exact = certification._screened_maxima, certification._column_maxima
    errors, undecided = [], []

    def recording_screen(inst, right):
        approx, error = screen(inst, right)
        errors.append(error)
        return approx, error

    def counting_exact(inst, right):
        undecided.append(right.shape[1])
        return exact(inst, right)

    def exact_only(inst, right):
        return core._column_maxima(inst, right), 0.0

    out = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            inst = workload.setup(seed, workload.prepare(work_dir, seed))
            solved = workload.solve(inst, seed)
            errors.clear()
            undecided.clear()
            certification._screened_maxima = recording_screen
            certification._column_maxima = counting_exact
            try:
                screened = workload.grade(inst, solved, seed)["report"]
            finally:
                certification._screened_maxima = screen
                certification._column_maxima = exact
            certification._screened_maxima = exact_only
            try:
                reference = workload.grade(inst, solved, seed)["report"]
            finally:
                certification._screened_maxima = screen
            differ = [
                field
                for field, value in asdict(screened).items()
                if repr(value) != repr(getattr(reference, field))
            ]
            out.append({"workload": name, "seed": seed, "screened": bool(errors[0] > 0.0),
                        "undecided": sum(undecided), "differ": differ})
    return out


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        json.dump(_compare(Path(sys.argv[2])), sys.stdout)
        return 0
    failed = False
    with tempfile.TemporaryDirectory() as work_dir:
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            child = [sys.executable, __file__, "--child", work_dir]
            done = subprocess.run(child, env=env, check=True, stdout=subprocess.PIPE, text=True)
            for row in json.loads(done.stdout):
                same = not row["differ"]
                failed |= not same
                path = (f"{row['undecided']} samples undecided" if row["screened"]
                        else "exact pass, not screened")
                print(f"{'same   ' if same else 'DIFFERS'} {row['workload']} seed {row['seed']} "
                      f"threads {threads or 'default'}: {path}"
                      + ("" if same else "; differ: " + ", ".join(row["differ"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
