"""Matrix Market round-trips and strict rejection of unsupported variants."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import peak_bytes
from johnellip import (
    DimensionError,
    GeneratorSpec,
    JohnEllipsoidError,
    ParseError,
    RankDeficientError,
    ZeroRowError,
    build_instance,
    generate,
    read_matrix_market,
    write_matrix_market,
)
from johnellip import mmio

ARRAY_IDENTITY = """\
%%MatrixMarket matrix array real general
2 2
1.0
0.0
0.0
1.0
"""


def write(tmp_path, text, name="matrix.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRead:
    def test_array_identity(self, tmp_path):
        inst = read_matrix_market(write(tmp_path, ARRAY_IDENTITY))
        assert not inst.is_sparse
        assert np.array_equal(inst.matrix, np.eye(2))

    def test_array_entries_are_column_major(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n3 2\n"
        text += "".join(f"{v}\n" for v in (1, 2, 3, 4, 5, 6))
        inst = read_matrix_market(write(tmp_path, text))
        assert np.array_equal(inst.matrix, [[1, 4], [2, 5], [3, 6]])

    def test_coordinate(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 2 4\n"
            "1 1 2.5\n"
            "2 2 -1.0\n"
            "3 1 1.0\n"
            "3 2 1.0\n"
        )
        inst = read_matrix_market(write(tmp_path, text))
        assert inst.is_sparse
        assert np.array_equal(inst.toarray(), [[2.5, 0.0], [0.0, -1.0], [1.0, 1.0]])

    def test_header_is_case_insensitive(self, tmp_path):
        text = ARRAY_IDENTITY.replace(
            "%%MatrixMarket matrix array real general",
            "%%MATRIXMARKET Matrix ARRAY Real GENERAL",
        )
        inst = read_matrix_market(write(tmp_path, text))
        assert np.array_equal(inst.matrix, np.eye(2))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = (
            "\n"
            "%%MatrixMarket matrix coordinate real general\n"
            "% generated by hand\n"
            "\n"
            "2 2 2\n"
            "   % indented comment\n"
            "1 1 1.0\n"
            "\n"
            "2 2 1.0\n"
        )
        inst = read_matrix_market(write(tmp_path, text))
        assert np.array_equal(inst.toarray(), np.eye(2))

    def test_parsed_matrix_is_canonical_and_locked(self, tmp_path):
        # The parsed matrix becomes the instance in place: duplicates summed,
        # explicit zeros dropped, column indices sorted, buffers read-only.
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 2 6\n"
            "3 2 1.0\n"
            "1 2 0.0\n"
            "1 1 2.0\n"
            "2 2 -1.0\n"
            "3 1 1.0\n"
            "1 1 0.5\n"
        )
        sparse = read_matrix_market(write(tmp_path, text)).matrix
        assert np.array_equal(sparse.indptr, [0, 1, 2, 4])
        assert np.array_equal(sparse.indices, [0, 1, 0, 1])
        assert np.array_equal(sparse.data, [2.5, -1.0, 1.0, 1.0])
        dense = read_matrix_market(write(tmp_path, ARRAY_IDENTITY, "dense.mtx")).matrix
        assert dense.flags.c_contiguous
        for buf in (sparse.data, sparse.indices, sparse.indptr, dense):
            assert not buf.flags.writeable

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_matrix_market(tmp_path / "nope.mtx")


class TestRoundTrip:
    def test_dense_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((7, 3))
        block[0, 0] = 1.0 / 3.0
        block[1, 1] = -math.pi
        block[2, 2] = np.nextafter(1.0, 2.0)
        inst = build_instance(block)
        path = tmp_path / "dense.mtx"
        write_matrix_market(path, inst)
        back = read_matrix_market(path)
        assert not back.is_sparse
        assert np.array_equal(back.matrix, inst.matrix)

    def test_sparse_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((9, 3))
        block[rng.random((9, 3)) < 0.5] = 0.0
        block[np.all(block == 0.0, axis=1), 0] = 1.0
        inst = build_instance(sp.csr_array(block))
        path = tmp_path / "sparse.mtx"
        write_matrix_market(path, inst)
        back = read_matrix_market(path)
        assert back.is_sparse
        assert np.array_equal(back.matrix.indptr, inst.matrix.indptr)
        assert np.array_equal(back.matrix.indices, inst.matrix.indices)
        assert np.array_equal(back.matrix.data, inst.matrix.data)

    def test_coordinate_read_is_the_generated_csr(self, tmp_path):
        # The sparse-mtx benchmark's matrix.  The bulk parse holds 16-byte
        # (i, j, v) records and shifts the indices in place, so the read peaks
        # near 50 B per stored entry; int64 indices took it to 60 B.  The read
        # gives the generator's int32 CSR arrays, byte for byte.
        drawn = generate(GeneratorSpec("sparse-bernoulli", 50000, 40, density=0.05, seed=0))
        path = tmp_path / "sparse.mtx"
        write_matrix_market(path, drawn)
        back, peak = peak_bytes(lambda: read_matrix_market(path))
        a, b = back.matrix, drawn.matrix
        assert a.indices.dtype == a.indptr.dtype == np.int32
        assert a.shape == b.shape
        for got, want in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert peak < 55 * a.nnz

    def test_index_dtype_widens_only_past_int32(self):
        # Decided from the size line alone.  A 2^31-row file is never read
        # here: its CSR build would allocate a 16 GiB indptr.
        assert mmio._index_dtype(2**31 - 1, 2**31 - 1) is np.int32
        assert mmio._index_dtype(2**31, 40) is np.int64
        assert mmio._index_dtype(40, 2**31) is np.int64

    def test_writer_output_is_stable(self, tmp_path):
        inst = build_instance(np.eye(2))
        path = tmp_path / "id.mtx"
        write_matrix_market(path, inst)
        assert path.read_text() == "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"

    def test_write_into_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            write_matrix_market(tmp_path / "absent" / "x.mtx", build_instance(np.eye(2)))


def expect_parse_error(tmp_path, text, line, *fragments):
    with pytest.raises(ParseError) as info:
        read_matrix_market(write(tmp_path, text))
    assert info.value.line == line
    for fragment in fragments:
        assert fragment in str(info.value)
    if line is not None:
        assert str(info.value).startswith(f"line {line}:")


class TestParseErrors:
    def test_complex_field(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
            1,
            "unsupported field 'complex' (only 'real')",
        )

    def test_pattern_field(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
            1,
            "unsupported field 'pattern'",
        )

    def test_symmetric_storage(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix array real symmetric\n2 2\n1\n0\n1\n",
            1,
            "unsupported symmetry 'symmetric'",
        )

    def test_vector_object(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket vector array real general\n2\n1\n0\n",
            1,
            "unsupported object 'vector'",
        )

    def test_unknown_layout(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix ragged real general\n",
            1,
            "unsupported format 'ragged'",
        )

    def test_garbage_first_line(self, tmp_path):
        expect_parse_error(tmp_path, "hello world\n", 1, "not a Matrix Market header")

    def test_header_on_later_line_keeps_its_number(self, tmp_path):
        expect_parse_error(
            tmp_path, "\n\n%%MatrixMarket matrix array real blah\n", 3, "unsupported symmetry"
        )

    def test_empty_file(self, tmp_path):
        expect_parse_error(tmp_path, "", None, "empty file")

    def test_whitespace_only_file(self, tmp_path):
        expect_parse_error(tmp_path, "\n   \n\n", None, "empty file")

    def test_missing_size_line(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix array real general\n% only comments\n",
            None,
            "missing size line",
        )

    def test_coordinate_size_token_count(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2\n",
            2,
            "expected 3 size fields, got 2",
        )

    def test_array_size_token_count(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix array real general\n2 2 4\n",
            2,
            "expected 2 size fields, got 3",
        )

    def test_coordinate_entry_token_count(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2\n",
            4,
            "expected 3 coordinate entry fields",
        )

    def test_too_few_entries(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n",
            4,
            "expected 3 entries, file has 2",
        )

    def test_too_many_array_entries(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n5\n",
            7,
            "expected 4 entries, file has 5",
        )

    def test_index_out_of_range(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
            3,
            "index (5, 1) outside 2 x 2",
        )

    def test_zero_index(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
            3,
            "index (0, 1) outside 2 x 2",
        )

    def test_bad_value(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
            3,
            "bad value 'abc'",
        )

    def test_bad_row_count(self, tmp_path):
        expect_parse_error(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\nx 2 1\n1 1 1.0\n",
            2,
            "bad row count 'x'",
        )


class TestValidationPropagates:
    def test_empty_sparse_row(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 1.0\n3 2 1.0\n"
        with pytest.raises(ZeroRowError) as info:
            read_matrix_market(write(tmp_path, text))
        assert info.value.row == 1

    def test_rank_deficient_array(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n1\n2\n2\n"
        with pytest.raises(RankDeficientError):
            read_matrix_market(write(tmp_path, text))


COORDINATE_2X2 = "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
ARRAY_2X1 = "%%MatrixMarket matrix array real general\n2 1\n"

# (header and size line, entry block, does the bulk parse keep it?)
ENTRY_BLOCKS = {
    "plain": (COORDINATE_2X2, "1 1 2.5\n2 2 -1\n", True),
    "plus-signs": (COORDINATE_2X2, "+1 +1 +2.5\n2 +2 +1\n", True),
    "underscore-value": (COORDINATE_2X2, "1 1 1_0\n2 2 1\n", False),
    "underscore-index": (COORDINATE_2X2, "1_0 1 1\n2 2 1\n", False),
    "overflowing-value": (COORDINATE_2X2, "1 1 1e400\n2 2 1\n", True),
    "nan-value": (COORDINATE_2X2, "1 1 nan\n2 2 1\n", True),
    "hex-value": (COORDINATE_2X2, "1 1 0x10\n2 2 1\n", False),
    "comment-line": (COORDINATE_2X2, "1 1 2.5\n% a comment\n2 2 1\n", False),
    "trailing-comment": (COORDINATE_2X2, "1 1 2.5 % note\n2 2 1\n", False),
    "tabs": (COORDINATE_2X2, "1\t1\t2.5\n2 \t2\t1\n", True),
    "crlf": (COORDINATE_2X2, "1 1 2.5\r\n2 2 1\r\n", True),
    "form-feed-inside": (COORDINATE_2X2, "1 1\x0c2.5\n2 2 1\n", False),
    "form-feed-blank": (COORDINATE_2X2, "1 1 2.5\n\x0c\n2 2 1\n", False),
    "blank-lines": (COORDINATE_2X2, "\n1 1 2.5\n  \n\t\n2 2 1\n\n", True),
    "two-then-four-tokens": (COORDINATE_2X2, "1 1\n2 2 1 5\n", False),
    "twenty-digit-index": (COORDINATE_2X2, "12345678901234567890 1 1\n2 2 1\n", False),
    "index-past-int32": (COORDINATE_2X2, "3000000000 1 1\n2 2 1\n", False),
    "index-wrapping-int32": (COORDINATE_2X2, "4294967298 1 1\n2 2 1\n", False),
    "index-out-of-range": (COORDINATE_2X2, "1 1 2.5\n2 3 1\n", False),
    "too-many-entries": (COORDINATE_2X2, "1 1 2.5\n2 2 1\n1 2 1\n", False),
    "non-ascii": (COORDINATE_2X2, "1 1 2.5\xe9\n2 2 1\n", False),
    "no-entries": ("%%MatrixMarket matrix coordinate real general\n2 2 0\n", "", False),
    "array-plain": (ARRAY_2X1, "1.5\n-2\n", True),
    "array-two-values-on-one-line": (ARRAY_2X1, "1.5 -2\n", False),
    "array-comment-line": (ARRAY_2X1, "1.5\n%\n-2\n", False),
    # The bulk parse skips as many lines as the preamble took.
    "comments-and-blanks-before-size": (
        "%%MatrixMarket matrix coordinate real general\n% by hand\n\n   \n%\n2 2 2\n",
        "1 1 2.5\n2 2 -1\n",
        True,
    ),
    "blank-lines-before-header": ("\n  \n\t\n" + COORDINATE_2X2, "1 1 2.5\n2 2 -1\n", True),
    "cr-preamble": (
        "\r%%MatrixMarket matrix coordinate real general\r% by hand\r\r2 2 2\r",
        "1 1 2.5\r2 2 -1\r",
        True,
    ),
    "cr-preamble-lf-entries": (COORDINATE_2X2.replace("\n", "\r"), "1 1 2.5\n2 2 -1\n", True),
    "crlf-preamble": (
        "\r\n%%MatrixMarket matrix coordinate real general\r\n% by hand\r\n\r\n2 2 2\r\n",
        "1 1 2.5\n2 2 -1\n",
        True,
    ),
    "comment-after-size-line": (COORDINATE_2X2, "% note\n1 1 2.5\n2 2 -1\n", False),
    "array-comments-and-blanks-before-size": (
        " \n%%MatrixMarket matrix array real general\r\n%\r\r\n2 1\r",
        "1.5\n-2\n",
        True,
    ),
    "array-comment-after-size-line": (ARRAY_2X1, "%\n1.5\n-2\n", False),
}


def outcome(path):
    """What reading ``path`` gives: the matrix's bytes, or the error."""
    try:
        inst = read_matrix_market(path)
    except (JohnEllipsoidError, UnicodeDecodeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if inst.is_sparse:
        m = inst.matrix
        return m.indptr.tobytes(), m.indices.tobytes(), m.indices.dtype, m.data.tobytes()
    return inst.matrix.tobytes(), inst.matrix.shape


class TestBulkMatchesPerLine:
    @pytest.mark.parametrize("name", list(ENTRY_BLOCKS))
    def test_entry_block(self, tmp_path, monkeypatch, name):
        preamble, block, bulk = ENTRY_BLOCKS[name]
        path = tmp_path / "block.mtx"
        path.write_bytes((preamble + block).encode("latin-1"))
        assert (mmio._parse_bulk(path) is not None) == bulk
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            default = outcome(path)
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        monkeypatch.setattr(mmio, "_parse_bulk", lambda path: None)
        assert outcome(path) == default

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compression_suffix_is_read_as_plain_text(self, tmp_path, suffix):
        # numpy would decompress a path with this suffix.
        path = tmp_path / f"block.mtx{suffix}"
        path.write_text(COORDINATE_2X2 + "1 1 2.5\n2 2 -1\n")
        assert mmio._parse_bulk(path) is None
        assert np.array_equal(read_matrix_market(path).toarray(), [[2.5, 0.0], [0.0, -1.0]])

    def test_url_shaped_relative_path_is_a_local_file(self, tmp_path, monkeypatch):
        # numpy would fetch a path with a scheme and a host.
        import urllib.request

        def no_network(*args, **kwargs):
            raise AssertionError("the read went to the network")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "m.mtx").write_text(COORDINATE_2X2 + "1 1 2.5\n2 2 -1\n")
        monkeypatch.chdir(tmp_path)
        name = "http://host/m.mtx"
        assert mmio._parse_bulk(name) is not None
        assert np.array_equal(read_matrix_market(name).toarray(), [[2.5, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("sparse-bernoulli", 20000, 10, density=0.2, seed=3),
            GeneratorSpec("gaussian-dense", 20000, 3, seed=3),
        ],
        ids=["coordinate", "array"],
    )
    def test_entry_block_across_read_chunks(self, tmp_path, monkeypatch, spec, newline):
        # numpy reads a path in chunks, so some entries straddle a chunk end.
        path = tmp_path / "big.mtx"
        write_matrix_market(path, generate(spec))
        text = path.read_text()
        assert len(text.split("\n", 2)[2]) >= 2**20
        path.write_bytes(text.replace("\n", newline).encode("ascii"))

        def no_fallback(path):
            raise AssertionError("the bulk parse handed the file on")

        monkeypatch.setattr(mmio, "_parse_lines", no_fallback)
        bulk = outcome(path)
        assert isinstance(bulk[0], bytes)
        monkeypatch.undo()
        monkeypatch.setattr(mmio, "_parse_bulk", lambda path: None)
        assert outcome(path) == bulk

    def test_non_ascii_byte_raises_decode_error(self, tmp_path):
        path = tmp_path / "block.mtx"
        path.write_bytes((COORDINATE_2X2 + "1 1 2.5\xe9\n2 2 1\n").encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            read_matrix_market(path)


def random_float64_bits(rng, size):
    """Finite float64 values from random bit patterns, kept to |x| in [1e-150, 1e150]."""
    values = rng.integers(0, 2**64, 4 * size, dtype=np.uint64, endpoint=False).view(np.float64)
    values = values[np.isfinite(values) & (np.abs(values) >= 1e-150) & (np.abs(values) <= 1e150)]
    return values[:size]


def per_line_text(inst):
    """The writer's output as it was built one entry at a time."""
    if inst.is_sparse:
        matrix = inst.matrix.tocoo()
        lines = ["%%MatrixMarket matrix coordinate real general", f"{inst.m} {inst.n} {matrix.nnz}"]
        order = np.lexsort((matrix.col, matrix.row))
        for i, j, v in zip(matrix.row[order], matrix.col[order], matrix.data[order]):
            lines.append(f"{i + 1} {j + 1} {v:.17g}")
    else:
        lines = ["%%MatrixMarket matrix array real general", f"{inst.m} {inst.n}"]
        for col in range(inst.n):
            for row in range(inst.m):
                lines.append(f"{inst.matrix[row, col]:.17g}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("storage", ["dense", "csr"])
class TestBitPatterns:
    M, N = 300, 4

    @pytest.fixture
    def inst(self, storage):
        rng = np.random.default_rng(11)
        block = random_float64_bits(rng, self.M * self.N).reshape(self.M, self.N)
        block[0, 0], block[1, 1], block[2, 2] = -0.0, 1.0 / 3.0, np.nextafter(1.0, 2.0)
        if storage == "dense":
            return build_instance(block)
        block[rng.random(block.shape) < 0.5] = 0.0
        block[np.flatnonzero(~np.any(block != 0.0, axis=1)), 0] = 1.0
        return build_instance(sp.csr_array(block))

    def test_round_trip_is_bitwise(self, tmp_path, inst, storage):
        path = tmp_path / "bits.mtx"
        write_matrix_market(path, inst)
        back = read_matrix_market(path)
        assert mmio._parse_bulk(path) is not None
        if storage == "dense":
            assert back.matrix.tobytes() == inst.matrix.tobytes()
        else:
            assert back.matrix.indptr.tobytes() == inst.matrix.indptr.tobytes()
            assert back.matrix.indices.tobytes() == inst.matrix.indices.tobytes()
            assert back.matrix.indices.dtype == inst.matrix.indices.dtype
            assert back.matrix.data.tobytes() == inst.matrix.data.tobytes()

    def test_writer_matches_per_line_text(self, tmp_path, inst, storage):
        path = tmp_path / "bits.mtx"
        write_matrix_market(path, inst)
        assert path.read_text() == per_line_text(inst)


COORDINATE = "%%MatrixMarket matrix coordinate real general\n"

# Files whose size line declares more rows than entries, with the dense
# matrix each one means (duplicates summed).  Each must fail as that matrix
# fails in build_instance.
SHORT_FILES = {
    "missing-rows": ("4 2 3\n1 1 1.0\n2 2 1.0\n4 1 1.0\n", [[1, 0], [0, 1], [0, 0], [1, 0]]),
    "explicit-zero-row": ("4 2 3\n1 1 0.0\n2 2 1.0\n3 1 1.0\n", [[0, 0], [0, 1], [1, 0], [0, 0]]),
    "cancelling-duplicates": (
        "4 2 3\n1 1 1.5\n1 1 -1.5\n2 2 1.0\n",
        [[0, 0], [0, 1], [0, 0], [0, 0]],
    ),
    "nan-value": ("4 2 3\n1 1 1.0\n2 2 nan\n3 1 1.0\n", [[1, 0], [0, math.nan], [1, 0], [0, 0]]),
    "more-columns-than-rows": ("3 5 2\n1 1 1.0\n2 2 1.0\n", [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0] * 5]),
}


def error_of(call, *args):
    with pytest.raises(JohnEllipsoidError) as info:
        call(*args)
    return type(info.value), str(info.value)


def read_peak(path):
    """The error reading ``path`` raises, and the tracemalloc peak in bytes."""
    return peak_bytes(lambda: error_of(read_matrix_market, path))


class TestMoreRowsThanEntries:
    # Such a file must have an empty row, found without an m + 1 indptr.
    @pytest.mark.parametrize("name", list(SHORT_FILES))
    def test_fails_as_the_dense_matrix_does(self, tmp_path, name):
        text, dense = SHORT_FILES[name]
        got = error_of(read_matrix_market, write(tmp_path, COORDINATE + text))
        assert got == error_of(build_instance, np.array(dense, dtype=float))

    def test_ten_million_rows_two_entries(self, tmp_path):
        path = write(tmp_path, COORDINATE + "10000000 2 2\n1 1 1.0\n2 2 1.0\n")
        error, peak = read_peak(path)
        assert error == (ZeroRowError, "constraint row 2 is identically zero")
        assert peak < 2**20

    def test_ten_million_rows_no_columns(self, tmp_path):
        error, peak = read_peak(write(tmp_path, COORDINATE + "10000000 0 0\n"))
        assert error == (DimensionError, "constraint matrix needs at least one column")
        assert peak < 2**20


def test_read_peak_per_stored_entry(tmp_path):
    # The module docstring states about 50 bytes per stored entry.
    drawn = generate(GeneratorSpec("sparse-bernoulli", 20000, 40, density=0.05, seed=0))
    path = tmp_path / "sparse.mtx"
    write_matrix_market(path, drawn)
    _, peak = peak_bytes(lambda: read_matrix_market(path))
    per_entry = peak / drawn.matrix.nnz
    assert per_entry <= 64, f"{per_entry:.1f} bytes per stored entry"
