"""Containment's shortcuts against the passes they stand in for, on the
benchmark workloads.

For each workload in ``perfbench/workloads.py`` at seeds 0-4 and the
held-out seed 7, sets up, solves and grades once, then grades again without
the shortcut.  Dense ``A`` is graded again with
``certification._screened_maxima`` replaced by the exact column-maximum
pass, so that every sample takes it.  CSR ``A``, which always takes the
exact pass but skips rows in its walk by l1 norm, is graded again with
``core._l1_norms`` giving every row an infinite bound, so that no direction
retires and every row is multiplied.  Every ``certify`` field must be equal
bit for bit.  The report's containment fields are violation counts, which a
wrong maximum need not change, so the column maxima of certify's own
directions are checked too: on CSR, ``core._column_maxima`` against the
every-row walk, bit for bit; on dense ``A``, ``core._screened_maxima``'s
``approx`` within its bound ``E`` of ``core._column_maxima``.  All runs
happen in a fresh process with ``OPENBLAS_NUM_THREADS=1`` and in one on the
default thread count.

    python tests/containment_parity.py

prints one line per workload, seed and thread count, saying how many
samples the screen left to the exact pass, or, on CSR, how many rows
containment visited against the every-row walk, and exits 1 if a field or
a maximum differs.
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
    import numpy as np
    from workloads import WORKLOADS

    from johnellip import certification, core

    screen, exact = certification._screened_maxima, certification._column_maxima
    walk, l1_norms = core._row_blocks, core._l1_norms
    errors, undecided = [], []
    visited = {"width": None, "rows": 0}

    def recording_screen(inst, right):
        approx, error = screen(inst, right)
        errors.append(error)
        return approx, error

    def counting_exact(inst, right):
        undecided.append(right.shape[1])
        return exact(inst, right)

    def exact_only(inst, right):
        return core._column_maxima(inst, right), 0.0

    def counting_walk(inst, width, *order):
        for start, block, out in walk(inst, width, *order):
            visited["rows"] += block.shape[0] if width == visited["width"] else 0
            yield start, block, out

    def unbounded(inst):
        return np.full(inst.m, np.inf)

    def walked(run, bounds):
        # What run() returns with the walk's row bounds from bounds, and the
        # rows that containment's passes visited.
        visited["rows"] = 0
        core._row_blocks, core._l1_norms = counting_walk, bounds
        try:
            result = run()
        finally:
            core._row_blocks, core._l1_norms = walk, l1_norms
        return result, visited["rows"]

    def maxima_differ(inst, seed, samples):
        # certify's directions for this seed, through the shortcut and
        # through the pass it stands in for.
        u = np.random.default_rng(seed).standard_normal((inst.n, samples))
        u /= np.linalg.norm(u, axis=0)
        if inst.is_sparse:
            chosen = core._column_maxima(inst, u)
            reference, _ = walked(lambda: core._column_maxima(inst, u), unbounded)
            return not np.array_equal(chosen, reference)
        approx, error = core._screened_maxima(inst, u)
        return not np.all(np.abs(approx - core._column_maxima(inst, u)) <= error)

    out = []
    for name, workload in WORKLOADS.items():
        visited["width"] = workload.samples
        for seed in SEEDS:
            inst = workload.setup(seed, workload.prepare(work_dir, seed))
            solved = workload.solve(inst, seed)

            def grade():
                return workload.grade(inst, solved, seed)["report"]

            if inst.is_sparse:
                chosen, rows = walked(grade, l1_norms)
                reference, every = walked(grade, unbounded)
                path = f"l1 walk, {rows} rows; every row: {every} rows"
            else:
                errors.clear()
                undecided.clear()
                certification._screened_maxima = recording_screen
                certification._column_maxima = counting_exact
                try:
                    chosen = grade()
                finally:
                    certification._screened_maxima = screen
                    certification._column_maxima = exact
                certification._screened_maxima = exact_only
                try:
                    reference = grade()
                finally:
                    certification._screened_maxima = screen
                path = (f"{sum(undecided)} samples undecided" if errors[0] > 0.0
                        else "exact pass, not screened")
            differ = [
                field
                for field, value in asdict(chosen).items()
                if repr(value) != repr(getattr(reference, field))
            ]
            if maxima_differ(inst, seed, workload.samples):
                differ.append("column maxima")
            out.append({"workload": name, "seed": seed, "path": path, "differ": differ})
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
                print(f"{'same   ' if same else 'DIFFERS'} {row['workload']} seed {row['seed']} "
                      f"threads {threads or 'default'}: {row['path']}"
                      + ("" if same else "; differ: " + ", ".join(row["differ"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
