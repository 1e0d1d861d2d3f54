"""Matrix Market reading and writing for constraint matrices.

Supports exactly the two real general variants:

* ``%%MatrixMarket matrix coordinate real general`` (read into CSR), and
* ``%%MatrixMarket matrix array real general`` (column-major dense block).

Anything else (complex or pattern fields, symmetric storage, vectors) is a
:class:`ParseError` carrying the offending line number.  Values are written
with 17 significant digits so write/read round-trips reproduce float64
entries exactly.

The header, the comment lines and the size line are read line by line; the
entry block after them is parsed in bulk by one ``numpy.loadtxt`` call.
That call is given the file's path and told to skip the preamble's lines,
so numpy reads the file in chunks of 16384 characters; given an open
handle, it would make one Python string per entry, which cost about 15%
of the read.  The per-line parser is the reference: it takes over whenever the
bulk parse raises or its result fails a check (entry count, index range),
which is what a ``%`` comment or any other non-data line inside the entry
block does, and for a file holding a byte that Python ends lines at but
numpy does not, or named with a suffix numpy would decompress.  So both
accept the same files and give bitwise-identical matrices, and every error
still names its line.

Coordinate indices are read as int32 whenever the size line allows (both
dimensions below 2^31, by ``core._index_dtype``), by both parsers, and the
bulk parse shifts them to 0-based in place; the CSR arrays are then int32,
as ``generators.generate`` makes them.  Reading ``sparse-bernoulli``
50000x40 at density 0.05 peaks near 50 bytes per stored entry under
tracemalloc: the 16-byte ``(i, j, v)`` records, a copy of the values, and
the CSR build.  At 20000x40 numpy's fixed read buffers weigh more and it
peaks near 52 (tier 1 holds it to 64).  A size line that declares
more rows than the file has entries allocates nothing that grows with the
row count (see ``core._adopt``), and the byte scan before the bulk parse
reads 64 KiB at a time.

The parsed matrix becomes the instance without a further copy, except that
the dense ``array`` layout, stored column by column, takes one transposing
copy into row-major order; reading such a file peaks near twice the bytes
of ``A``.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import scipy.sparse as sp

from .core import PolytopeInstance, _adopt, _index_dtype
from .errors import ParseError

__all__ = ["read_matrix_market", "write_matrix_market"]

_HEADER_PREFIX = "%%matrixmarket"

_ARRAY_ENTRY = np.dtype([("v", np.float64)])

# str.splitlines ends a line at these ASCII characters as well, while
# numpy.loadtxt reads them as spaces; a file holding one is left to the
# per-line parser.
_SPLITLINES_ONLY_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")

# numpy.loadtxt decompresses a path with one of these suffixes; such a file
# goes to the per-line parser, which reads it as it is.
_NUMPY_DECOMPRESSES = (".bz2", ".gz", ".lzma", ".xz")


def _tokens(text: str, lineno: int, count: int, what: str) -> list[str]:
    parts = text.split()
    if len(parts) != count:
        raise ParseError(f"expected {count} {what} fields, got {len(parts)}: {text.strip()!r}", lineno)
    return parts


def _to_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", lineno) from None


def _to_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", lineno) from None


def _read_preamble(numbered) -> tuple[str, int, int, int, int]:
    """Read the header and size line from ``(line number, text)`` pairs.

    Returns ``(layout, m, n, entry count, size line number)`` and leaves
    ``numbered`` at the line after the size line.
    """
    for lineno, raw in numbered:
        header = raw.strip()
        if header:
            break
    else:
        raise ParseError("empty file")

    parts = header.lower().split()
    if len(parts) != 5 or parts[0] != _HEADER_PREFIX:
        raise ParseError(f"not a Matrix Market header: {header!r}", lineno)
    _, obj, layout, field, symmetry = parts
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r} (only 'matrix')", lineno)
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported format {layout!r} (coordinate or array)", lineno)
    if field != "real":
        raise ParseError(f"unsupported field {field!r} (only 'real')", lineno)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r} (only 'general')", lineno)

    for size_lineno, raw in numbered:
        size_text = raw.strip()
        if size_text and not size_text.startswith("%"):
            break
    else:
        raise ParseError("missing size line")

    coordinate = layout == "coordinate"
    tokens = _tokens(size_text, size_lineno, 3 if coordinate else 2, "size")
    m = _to_int(tokens[0], size_lineno, "row count")
    n = _to_int(tokens[1], size_lineno, "column count")
    count = _to_int(tokens[2], size_lineno, "entry count") if coordinate else m * n
    return layout, m, n, count, size_lineno


def _parse_lines(path):
    """The reference parser: one entry per line, each error with its line."""
    with open(path, "r", encoding="ascii") as handle:
        numbered = enumerate(handle.read().splitlines(), start=1)
    layout, m, n, count, size_lineno = _read_preamble(numbered)
    entries = [
        (no, text) for no, raw in numbered if (text := raw.strip()) and not text.startswith("%")
    ]
    if len(entries) != count:
        raise ParseError(f"expected {count} entries, file has {len(entries)}",
                         entries[-1][0] if entries else size_lineno)

    if layout == "coordinate":
        index = _index_dtype(m, n)
        rows = np.empty(count, dtype=index)
        cols = np.empty(count, dtype=index)
        vals = np.empty(count)
        for k, (no, text) in enumerate(entries):
            toks = _tokens(text, no, 3, "coordinate entry")
            i = _to_int(toks[0], no, "row index")
            j = _to_int(toks[1], no, "column index")
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError(f"index ({i}, {j}) outside {m} x {n}", no)
            rows[k], cols[k] = i - 1, j - 1
            vals[k] = _to_float(toks[2], no, "value")
        return layout, m, n, (vals, rows, cols)

    vals = np.empty(count)
    for k, (no, text) in enumerate(entries):
        toks = _tokens(text, no, 1, "array entry")
        vals[k] = _to_float(toks[0], no, "value")
    return layout, m, n, (vals,)


def _parse_bulk(path):
    """The same result as :func:`_parse_lines` from one ``loadtxt`` call, or None.

    None hands the file to the per-line parser, which then decides what it
    holds or which line is wrong: it, not numpy, defines a valid file.
    """
    name = os.fsdecode(path)
    if os.path.splitext(name)[1] in _NUMPY_DECOMPRESSES:
        return None
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 16), b""):
            if any(mark in chunk for mark in _SPLITLINES_ONLY_BREAKS):
                return None
    with warnings.catch_warnings():
        # Any warning (no data; an int read as a float in older numpy) fails it.
        warnings.simplefilter("error")
        try:
            with open(path, "r", encoding="ascii") as handle:
                layout, m, n, count, size_lineno = _read_preamble(enumerate(handle, start=1))
            if layout == "coordinate":
                index = _index_dtype(m, n)
                dtype = np.dtype([("i", index), ("j", index), ("v", np.float64)])
            else:
                dtype = _ARRAY_ENTRY
            # numpy reads a str path in chunks but iterates any other input
            # line by line.  It would fetch a path with a scheme and a host as
            # a URL, which an absolute path never has.  It splits lines in
            # universal newline mode, as the handle above does, so the entries
            # start right after size_lineno lines.
            block = np.loadtxt(os.path.join(os.getcwd(), name), dtype=dtype, comments=None,
                               skiprows=size_lineno, ndmin=1, encoding="ascii")
        except (ParseError, ValueError, OverflowError, Warning):  # bad text or encoding
            return None
    if not count or block.shape != (count,):
        return None
    if layout == "array":
        return layout, m, n, (np.ascontiguousarray(block["v"]),)
    i, j = block["i"], block["j"]
    if not (1 <= i.min() and i.max() <= m and 1 <= j.min() and j.max() <= n):
        return None
    i -= 1  # in place, through the views into the record array
    j -= 1
    return layout, m, n, (np.ascontiguousarray(block["v"]), i, j)


def read_matrix_market(path) -> PolytopeInstance:
    """Read a constraint matrix and validate it as an instance.

    Raises :class:`ParseError` with a line number for malformed content;
    validation failures (zero rows, rank loss, bad shape) are those of
    :func:`~johnellip.core.build_instance`.
    """
    layout, m, n, arrays = _parse_bulk(path) or _parse_lines(path)
    if layout == "coordinate":
        vals, rows, cols = arrays
        return _adopt(sp.coo_array((vals, (rows, cols)), shape=(m, n)))
    # The array format lists columns first; _adopt copies it once to C order.
    return _adopt(arrays[0].reshape((n, m)).T)


def write_matrix_market(path, inst: PolytopeInstance) -> None:
    """Write an instance in the matching real general variant.

    CSR entries are written in storage order, which is row-major with sorted
    columns: every instance's CSR arrays were canonicalized when it was
    built (:func:`~johnellip.core._adopt`).
    """
    with open(path, "w", encoding="ascii") as handle:
        if inst.is_sparse:
            matrix = inst.matrix.tocoo()
            handle.write("%%MatrixMarket matrix coordinate real general\n")
            handle.write(f"{inst.m} {inst.n} {matrix.nnz}\n")
            rows = (matrix.row + 1).tolist()
            cols = (matrix.col + 1).tolist()
            vals = matrix.data.tolist()
            handle.write("".join([f"{i} {j} {v:.17g}\n" for i, j, v in zip(rows, cols, vals)]))
        else:
            handle.write("%%MatrixMarket matrix array real general\n")
            handle.write(f"{inst.m} {inst.n}\n")
            values = inst.matrix.ravel(order="F").tolist()
            handle.write("".join([f"{v:.17g}\n" for v in values]))
