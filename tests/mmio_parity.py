"""The bulk Matrix Market parser against the per-line one, at full size.

Writes ``sparse-bernoulli:50000x40:density=0.05`` at seeds 0 and 7 (the
``sparse-mtx`` benchmark's shape) as coordinate files and
``gaussian-dense:20000x50`` as an array file into a temporary directory,
then reads each file twice: once with the per-line parser made to raise,
so the bulk parse must keep the file, and once with the bulk parse turned
off.  The two instances must be equal byte for byte: the CSR arrays with
their dtypes, or the dense matrix with its shape and dtype.  Tier-1 tests
hold entry blocks of about 1 MiB; these files are about 3 and 20 MB.

    python tests/mmio_parity.py

prints one line per file and exits 1 if any pair differs.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = (
    "sparse-bernoulli:50000x40:density=0.05:seed=0",
    "sparse-bernoulli:50000x40:density=0.05:seed=7",
    "gaussian-dense:20000x50:seed=0",
)


def _fingerprint(inst) -> tuple:
    matrix = inst.matrix
    if inst.is_sparse:
        arrays = (matrix.indptr, matrix.indices, matrix.data)
    else:
        arrays = (matrix,)
    return (matrix.shape,) + tuple((a.dtype.str, a.tobytes()) for a in arrays)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from johnellip import generate, mmio, parse_generator_spec, read_matrix_market, write_matrix_market

    parse_bulk, parse_lines = mmio._parse_bulk, mmio._parse_lines

    def no_fallback(path):
        raise RuntimeError("the bulk parse handed the file to the per-line parser")

    failed = False
    with tempfile.TemporaryDirectory() as work:
        for spec in SPECS:
            path = Path(work) / "matrix.mtx"
            write_matrix_market(path, generate(parse_generator_spec(spec)))
            try:
                mmio._parse_lines = no_fallback
                bulk = _fingerprint(read_matrix_market(path))
                mmio._parse_lines, mmio._parse_bulk = parse_lines, lambda path: None
                per_line = _fingerprint(read_matrix_market(path))
            finally:
                mmio._parse_bulk, mmio._parse_lines = parse_bulk, parse_lines
            same = bulk == per_line
            failed |= not same
            size = path.stat().st_size
            print(f"{spec}: {size} bytes, {'same bytes' if same else 'DIFFERS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
