"""Constraint storage and the weighted-Gram / leverage-score kernel.

Everything in this package works on the centrally symmetric polytope
``{x : -1 <= A x <= 1}`` given by an m-by-n constraint matrix A of full
column rank, stored dense row-major or as CSR, float64, and immutable once
validated (:func:`build_instance`, :func:`_adopt`).  This module owns:

* the weighted Gram ``Q(w) = sum_i w_i a_i a_i^T``, its Cholesky factor and
  the scores ``sigma_i(w) = a_i^T Q(w)^{-1} a_i``, one factorization per
  weight vector (:class:`EllipsoidQuadratic`, :func:`_graded`,
  :func:`leverage_scores`);
* every pass over ``A``.  :func:`_row_blocks` alone cuts ``A`` into row
  blocks within the scratch budget ``_BLOCK_ELEMENTS``, reduced per row by
  :func:`_row_norms` or per column by :func:`_column_maxima` (and, mostly
  in float32 within a proven bound, :func:`_screened_maxima`); CSR with
  sparse rows sweeps through its row-pair operator ``P`` (:class:`_Pairs`)
  instead.  How ``A`` is stored matters to this module alone.

README "Memory" states what each call holds; the docstrings below say how.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from scipy.linalg import lapack

from .errors import (
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    RankDeficientError,
    ZeroRowError,
)

__all__ = [
    "PolytopeInstance",
    "EllipsoidQuadratic",
    "build_instance",
    "cholesky_of_weighted_gram",
    "leverage_scores",
    "validate_weights",
]

# Relative pivot cutoff for the construction-time rank check on A^T A,
# scaled to unit diagonal.
RANK_PIVOT_RTOL = 1e-10
# A Cholesky pivot of Q scaled to unit diagonal (L_kk^2 / Q_kk) at or below
# GRAM_PIVOT_FLOOR means the weighted Gram matrix has effectively lost rank.
GRAM_PIVOT_FLOOR = 1e-14
# The one scratch budget of every pass over A, in 8-byte elements (1 MiB):
# a pass over rows of width k (n columns, the sketch size or containment's
# sample count) takes max(1, _BLOCK_ELEMENTS // k) rows at a time, cut by
# _row_blocks alone.  A dense sweep timed the same from 2^15 to 2^17 at
# 50000x50 and slightly slower at 2^18; at 20000x200, 2^15 was 27% slower
# than 2^17.
_BLOCK_ELEMENTS = 2**17
# Containment's column-maximum pass (_column_maxima) visits rows in
# decreasing l1 norm only when, in its first row block, at least this share
# of the row-direction pairs already has a Holder bound below the
# direction's running maximum.  Seeds 0-4 and 7 put that share at 0.65-0.72
# on sparse-bernoulli:50000x40:density=0.05, 0.021-0.064 at density 0.3,
# 0.050-0.080 on gaussian-dense:2000x10, and 0 on gaussian-dense at 50000x50
# and 1500x40.  Norm order costs an argsort and random-row gathers, and no
# direction retired on the dense shapes: always taking it made the dense
# pass 10% slower at 50000x50 and 24% at 1500x40 (medians of 300
# alternating in-process runs, 2-vCPU Xeon VM).
_NORM_ORDER_SHARE = 1 / 8
# The two factors of the l1 bound are floored here (2^-485): a row whose
# computed l1 norm is below it gets an infinite bound, and a direction
# factor below it is raised to it, so that every finite bound is at least
# 2^-970.
_NORM_FLOOR = 2.0**-485
# The row-pair operator P is built only when it holds at most this many
# entries per nonzero of A (rows of about 7 nonzeros on average), so it is
# kept at up to 4x the size of A's CSR arrays and its build peaks near twice
# that.  P's sweep is the faster one at every row density, so memory alone
# sets the cut.
_PAIRS_PER_NONZERO = 4
# _screened_maxima multiplies in float32 only up to this many columns, where
# its error bound holds (it needs n * 2^-24 well below 1); wider dense A
# keeps the exact pass.
_SCREEN_MAX_COLUMNS = 2**20
# _left_product forms S @ A for CSR A this many rows of S at a time.  scipy
# copies each slice of S it is given, so the slice, not S, is the scratch.
# At sparse-bernoulli 50000x40, density 0.05, s = 160, 16 rows took 19.6 ms
# and peaked at 5.4 MiB under tracemalloc, against 32.4 ms and 53.3 MiB for
# the whole S, 24.6 ms for 64 rows and 42.9 ms for 4; slices sized from
# _BLOCK_ELEMENTS would hold 2-7 rows (medians of 15 interleaved runs,
# 2-vCPU Xeon VM).
_LEFT_CHUNK_ROWS = 16


@dataclass(frozen=True, eq=False)
class PolytopeInstance:
    """Validated constraint matrix of ``{x : -1 <= Ax <= 1}``.

    Construct through :func:`build_instance`; the matrix buffer is locked
    read-only so instances are safe to share across threads.
    """

    matrix: np.ndarray | sp.csr_array

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.matrix)

    def row_dense(self, i: int) -> np.ndarray:
        """Row i as a dense 1-D array; a CSR row is read through ``indptr``."""
        a = self.matrix
        if self.is_sparse:
            lo, hi = a.indptr[i], a.indptr[i + 1]
            row = np.zeros(a.shape[1])
            row[a.indices[lo:hi]] = a.data[lo:hi]
            return row
        return np.asarray(a[i])

    def toarray(self) -> np.ndarray:
        """Dense copy of the constraint matrix."""
        if self.is_sparse:
            return self.matrix.toarray()
        return self.matrix.copy()

    @cached_property
    def _pairs(self) -> _Pairs | None:
        # Row-pair operator of a CSR instance and its sweep constants (see
        # _pair_operator), built on first use and kept for the instance's
        # lifetime; None for dense A and for CSR whose rows are too dense for
        # P to stay small.
        return _pair_operator(self.matrix) if self.is_sparse else None


class _Pairs(NamedTuple):
    """The row-pair operator ``P`` of a CSR instance and the constants of
    its sweep, built together once per instance by :func:`_pair_operator`.

    ``op_t`` is ``P^T`` on ``P``'s own buffers, so transposing costs no
    scipy object per Gram.  ``mirror`` reads the full ``vec(Q)`` off the
    upper triangle ``P^T w`` (entry ``(k, j)`` below the diagonal from
    ``(j, k)``), and ``double`` turns ``Q^{-1}`` into ``U``, its upper
    triangle with the off-diagonal doubled, by one elementwise product.
    Both hold ``n^2`` entries and, like ``P``, are locked read-only.
    """

    op: sp.csc_array
    op_t: sp.csr_array
    mirror: np.ndarray
    double: np.ndarray


@dataclass(frozen=True, eq=False)
class EllipsoidQuadratic:
    """SPD quadratic ``Q`` defining the ellipsoid ``{x : x^T Q x <= 1}``.

    ``L`` is the lower Cholesky factor of ``Q`` and ``logdet`` equals
    ``2 * sum(log(diag(L)))`` by construction.  ``inv_l`` (``L^{-1}``) and
    ``inverse`` (``Q^{-1} = L^{-T} L^{-1}``) are formed on first use, once
    per factor, and kept read-only; everything that grades one weight
    vector reads them from here.
    """

    Q: np.ndarray
    L: np.ndarray
    logdet: float

    @cached_property
    def inv_l(self) -> np.ndarray:
        return _lock(np.linalg.inv(self.L))

    @cached_property
    def inverse(self) -> np.ndarray:
        # numpy runs a.T @ a as a syrk, so Q^{-1} is exactly symmetric.
        return _lock(self.inv_l.T @ self.inv_l)


def _lock(a):
    """Lock ``a`` read-only, an ndarray's buffer or all three of a sparse
    array's, and return it."""
    for buf in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        buf.setflags(write=False)
    return a


def _index_dtype(*bounds: int) -> type:
    """Integer type of sparse indices up to ``bounds``: int32 when every
    bound is below 2^31, else int64."""
    return np.int32 if max(bounds) < 2**31 else np.int64


def build_instance(entries) -> PolytopeInstance:
    """Validate a constraint matrix and wrap it as a :class:`PolytopeInstance`.

    ``entries`` may be anything `numpy.asarray` accepts or a scipy sparse
    matrix (stored as CSR); its shape is the instance's ``(m, n)``.  The
    caller keeps ``entries``: they are copied once, and the instance holds
    the copy (see :func:`_adopt` for the checks and the lock).

    Raises
    ------
    DimensionError
        Not 2-D, empty, or m < n.
    DomainError
        Some entry is not finite, or some nonzero column's squared norm
        overflows or falls below the normal float64 range, so that no Gram
        matrix of ``A`` can be formed.
    ZeroRowError
        Some row is identically zero.
    RankDeficientError
        Column rank below n, judged by a pivoted Cholesky of ``A^T A``
        scaled to unit diagonal, with pivot cutoff ``RANK_PIVOT_RTOL * n``.
        The scaling makes the verdict independent of column scale.
    """
    if sp.issparse(entries):
        return _adopt(sp.csr_array(entries, dtype=np.float64, copy=True))
    return _adopt(np.array(entries, dtype=np.float64, order="C", copy=True))


def _adopt(a) -> PolytopeInstance:
    """Validate ``a`` and make it the matrix of a new instance, without a copy.

    For arrays the caller has just made and hands over: :func:`build_instance`
    passes its copy of the user's input, and ``generators.generate`` and
    ``mmio.read_matrix_market`` pass the matrix they drew or parsed, so set-up
    holds one copy of ``A``.  A float64 C-ordered ndarray or a float64 CSR
    array is used as it is (a CSR array is canonicalized in place); anything
    else is converted first, after the shape checks.  A sparse array with
    more rows than stored entries is not converted to CSR: it must have an
    empty row, which is found over its entries alone, so a Matrix Market size
    line that declares 10^7 rows for two entries allocates nothing that grows
    with ``m``.  The buffers are then locked read-only, so the
    caller must not write to them afterwards.  The shape is the array's own:
    each caller has just built the array at the shape it means (the Matrix
    Market reader from the file's size line), so there is none to compare.

    The rank check's Gram ``A^T A`` is formed first and stands in for a scan
    of ``A`` for non-finite entries: each diagonal entry is a sum of squares
    of one column, so a finite Gram means every entry is finite, and ``A`` is
    scanned only when the Gram is not.  Dense ``A`` is checked for zero rows
    by one ``np.any(a, axis=1)``, which reads ``-0.0`` as zero and allocates
    no ``m x n`` mask.  Errors and their order are those documented on
    :func:`build_instance`.
    """
    if not sp.issparse(a):
        a = np.asarray(a, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise DimensionError(f"constraint matrix must be 2-D, got ndim={a.ndim}")

    rows, cols = a.shape
    if cols < 1:
        raise DimensionError("constraint matrix needs at least one column")
    if rows < cols:
        raise DimensionError(f"need m >= n, got m={rows}, n={cols}")

    # More rows than entries leaves a row empty, and one of the two errors
    # below is certain: COO finds it in O(nnz) without CSR's m + 1 indptr.
    short = sp.issparse(a) and rows > a.nnz
    if sp.issparse(a):
        a = (sp.coo_array if short else sp.csr_array)(a, dtype=np.float64)
        a.sum_duplicates()
        a.eliminate_zeros()

    # Overflow and inf * 0 are named below, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = None if short else (a.T @ a).toarray() if sp.issparse(a) else a.T @ a
    finite = gram is not None and bool(np.all(np.isfinite(gram)))
    if not finite and not np.all(np.isfinite(a.data if sp.issparse(a) else a)):
        raise DomainError("constraint matrix has non-finite entries")

    if short:
        # The sorted distinct rows, then m: the first gap is the first empty row.
        present = np.append(np.unique(a.row), rows)
        zero = np.flatnonzero(present != np.arange(present.size))
    elif sp.issparse(a):
        zero = np.flatnonzero(np.diff(a.indptr) == 0)
    else:
        zero = np.flatnonzero(~np.any(a, axis=1))
    if zero.size:
        raise ZeroRowError(int(zero[0]))

    if not (finite and np.diag(gram).min() >= np.finfo(float).tiny):
        _reject_unrepresentable_columns(a, gram)
    _check_full_column_rank(gram)
    return PolytopeInstance(_lock(a))


def _check_full_column_rank(g: np.ndarray) -> None:
    # g is A^T A, finite and with every nonzero column's diagonal normal.
    # dpstrf reads its lower triangle alone, so g need not be symmetric.
    scale = np.sqrt(np.diag(g))
    scale[scale == 0.0] = 1.0  # an all-zero column stays zero and fails below
    g = g / scale[:, None] / scale[None, :]
    tol = RANK_PIVOT_RTOL * g.shape[0]
    _, _, rank, info = lapack.dpstrf(g, tol=tol, lower=1)
    if info < 0:
        raise LinAlgError(f"dpstrf failed with info={info}")
    if rank < g.shape[0]:
        raise RankDeficientError(
            f"only {int(rank)} of {g.shape[0]} pivots of A^T A, with columns scaled to "
            f"unit norm, exceed RANK_PIVOT_RTOL * n = {tol:.1e}"
        )


def _reject_unrepresentable_columns(a, g: np.ndarray) -> None:
    """Raise :class:`DomainError` for the first nonzero column of ``A`` whose
    squared norm overflows or falls below the normal float64 range.

    No weighted Gram of such a column can be formed, so neither the rank
    check nor the solvers could tell its rank; an all-zero column is left to
    the rank check.
    """
    if sp.issparse(a):
        nonzero = np.bincount(a.indices, minlength=a.shape[1]) > 0
    else:
        nonzero = np.any(a, axis=0)
    overflow = ~np.all(np.isfinite(g), axis=0)
    tiny = np.finfo(float).tiny
    bad = np.flatnonzero(nonzero & (overflow | (np.diag(g) < tiny)))
    if bad.size == 0:
        return
    j = int(bad[0])
    if overflow[j]:
        detail = "a squared norm that overflows float64"
    else:
        detail = f"squared norm {g[j, j]:.3e}, below the normal float64 range ({tiny:.3e})"
    raise DomainError(f"constraint matrix column {j} has {detail}; rescale the column")


def validate_weights(w, m: int) -> np.ndarray:
    """Return ``w`` as a float64 array of shape (m,), rejecting bad values.

    As for scalar parameters, only integers and floats are numbers here:
    strings and booleans are rejected, not converted.  numpy promotes a
    boolean mixed with numbers, so input that is not an ndarray is scanned
    for booleans as well.  Float64 input is returned as it is, without a
    copy.  The values are checked in one pass, one ``min`` and one ``max``
    (NaN fails both comparisons); only a vector that fails it is scanned
    again, to name the error, non-finite entries before negative ones.
    ``-0.0`` is accepted.
    """
    try:
        arr = np.asarray(w)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"weight vector is not a flat numeric array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"weight vector must hold integers or floats, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.shape != (m,):
        raise DomainError(f"weight vector must have shape ({m},), got {arr.shape}")
    if not isinstance(w, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in w):
        raise DomainError("weight vector must hold integers or floats, got a boolean")
    if m == 0 or (arr.min() >= 0.0 and arr.max() < np.inf):
        return arr
    if not np.all(np.isfinite(arr)):
        raise DomainError("weight vector has non-finite entries")
    # Every entry is finite, so the min/max pass failed on a negative one.
    raise DomainError("weight vector has negative entries")


def _pair_operator(a: sp.csr_array) -> _Pairs | None:
    """Operator ``P`` (m x n^2) with ``P^T w = vec(triu(Q(w)))``, with the
    constants of its sweep (:class:`_Pairs`).

    Row i holds the products ``a_ij a_ik`` (j <= k) of its own nonzeros at
    column ``j*n + k``, ``nnz_i (nnz_i + 1) / 2`` entries, so a weighted Gram
    is one sparse mat-vec and so is every score (see :func:`_scores`).
    Returns None when ``P`` would hold more than ``_PAIRS_PER_NONZERO`` entries
    per nonzero of A; such rows stay on the row-block path.
    """
    m, n = a.shape
    row_nnz = np.diff(a.indptr).astype(np.int64)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(row_nnz * (row_nnz + 1) // 2, out=indptr[1:])
    total = int(indptr[-1])
    if total > _PAIRS_PER_NONZERO * a.nnz:
        return None
    index = _index_dtype(total, n * n)
    data = np.empty(total)
    cols = np.empty(total, dtype=index)
    # Whole rows holding about `chunk` pairs at a time.  Each pair takes about
    # four 8-byte words of scratch (first, second and the two value gathers),
    # so a step stays within the scratch budget; P is the same at any chunk.
    chunk = _BLOCK_ELEMENTS // 4
    start = 0
    while start < m:
        stop = int(np.searchsorted(indptr, indptr[start] + chunk, "right"))
        stop = max(stop - 1, start + 1)
        # Stored entry p pairs with itself and every later entry of its row
        # (build_instance leaves column indices sorted, so j <= k).
        pos = np.arange(a.indptr[start], a.indptr[stop], dtype=np.int64)
        count = np.repeat(a.indptr[start + 1 : stop + 1], row_nnz[start:stop]) - pos
        first = np.repeat(pos, count)
        second = np.arange(first.size, dtype=np.int64)
        second -= np.repeat(np.cumsum(count) - count, count)
        second += first
        out = slice(indptr[start], indptr[stop])
        np.multiply(a.data[first], a.data[second], out=data[out])
        cols[out] = a.indices[first].astype(index) * n + a.indices[second]
        start = stop
    # Stored by column: scipy's CSR mat-vec pays per row, and these rows are
    # short, so both products run about twice as fast from CSC.
    op = _lock(sp.csr_array((data, cols, indptr.astype(index)), shape=(m, n * n)).tocsc())
    square = np.arange(n * n).reshape(n, n)
    mirror = np.where(square <= square.T, square, square.T).ravel()
    double = np.triu(np.full((n, n), 2.0), 1) + np.eye(n)
    return _Pairs(op, op.T, _lock(mirror), _lock(double))


def _row_blocks(
    inst: PolytopeInstance, width: int, order: np.ndarray | None = None, begin: int = 0
):
    """Yield ``(start, block, out)`` over the row blocks of ``A`` from row
    ``begin`` on: the one place ``A`` is cut into rows.

    A block takes ``max(1, _BLOCK_ELEMENTS // width)`` rows, so a product or
    copy of ``width`` elements per row fits the scratch budget, and ``out``
    is the matching rows of one scratch block of that size for a dense
    block, None for a CSR one.  Scratch is reused across the pass, so a
    caller must finish with a block before asking for the next; it is
    allocated per pass, never cached, so instances stay safe to share across
    threads.

    Without ``order`` the blocks are ``A[start:stop]`` in storage order: a
    dense block is a view of ``A``, and a CSR block shares ``A``'s data and
    indices and gets its own shifted ``indptr`` (scipy's row slicing copies
    all three, which at containment's 1000-sample blocks of 131 rows costs a
    tenth of the pass).  With ``order``, an array of row indices, the blocks
    are ``A[order[start:stop]]``, gathered (``order`` must hold valid row
    indices): dense rows by ``np.take`` into a second scratch block, CSR
    rows through their ``indptr`` runs into new arrays of the block's
    nonzeros alone, so no permuted copy of ``A`` is made.
    """
    a = inst.matrix
    m = inst.m if order is None else order.size
    rows = min(m, max(1, _BLOCK_ELEMENTS // width))
    dense = not inst.is_sparse
    scratch = np.empty((rows, width)) if dense else None
    gathered = np.empty((rows, inst.n)) if dense and order is not None else None
    for start in range(begin, m, rows):
        stop = min(start + rows, m)
        if dense:
            if order is None:
                block = a[start:stop]
            else:
                # The rows are valid indices; mode="raise" would buffer out.
                picked = order[start:stop]
                block = np.take(a, picked, axis=0, out=gathered[: stop - start], mode="clip")
            yield start, block, scratch[: stop - start]
            continue
        if order is None:
            lo, hi = a.indptr[start], a.indptr[stop]
            parts = (a.data[lo:hi], a.indices[lo:hi], a.indptr[start : stop + 1] - lo)
        else:
            picked = order[start:stop]
            first = a.indptr[picked]
            count = a.indptr[picked + 1] - first
            ptr = np.zeros(stop - start + 1, dtype=a.indptr.dtype)
            np.cumsum(count, out=ptr[1:])
            # Entry k of the block is entry first[r] + (k - ptr[r]) of A, for
            # the block row r that holds it.
            pos = np.repeat(first - ptr[:-1], count) + np.arange(ptr[-1])
            parts = (a.data[pos], a.indices[pos], ptr)
        yield start, sp.csr_array(parts, shape=(stop - start, a.shape[1])), None


def _product(block, right: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``block @ right`` for a block of :func:`_row_blocks`.

    A dense product is written into the leading ``rows x k`` elements of the
    walker's scratch ``out`` (``right`` may have fewer columns than the
    width the walk was cut for); a CSR product is a new array.
    """
    if out is None:
        return block @ right
    k = right.shape[1]
    return np.matmul(block, right, out=out.reshape(-1)[: block.shape[0] * k].reshape(-1, k))


def _left_product(inst: PolytopeInstance, left: np.ndarray) -> np.ndarray:
    """``left @ A`` for a dense ``k x m`` matrix ``left``, as a ``k x n`` array.

    Dense ``A`` takes one gemm.  For CSR, scipy computes ``left @ A`` as
    ``(A^T @ left^T)^T`` and copies the whole of ``left`` into row order
    first; here the same product is formed ``_LEFT_CHUNK_ROWS`` rows of
    ``left`` at a time, so only one slice is copied.  Each entry is the
    same sum in the same order, so the result equals scipy's whole product
    bit for bit, in the same (column-major) layout.
    """
    if not inst.is_sparse:
        return left @ inst.matrix
    at = inst.matrix.T
    product = np.empty((inst.n, left.shape[0]))
    for start in range(0, left.shape[0], _LEFT_CHUNK_ROWS):
        stop = start + _LEFT_CHUNK_ROWS
        product[:, start:stop] = at @ left[start:stop].T
    return product.T


def _row_norms(inst: PolytopeInstance, right: np.ndarray) -> np.ndarray:
    """Squared row norms of ``A @ right``, one row block at a time, so no
    ``m x k`` product is formed.

    The one streamed per-row pass, behind the scores and the sketched sweep.
    """
    norms = np.empty(inst.m)
    for start, block, out in _row_blocks(inst, right.shape[1]):
        x = _product(block, right, out)
        np.einsum("ij,ij->i", x, x, out=norms[start : start + x.shape[0]])
    return norms


def _row_l1_norms(a, out) -> np.ndarray:
    """``||a_i||_1`` for every row of ``a``, with ``inf`` where it is below
    ``_NORM_FLOOR``: ``a`` is CSR ``A`` or a block of :func:`_row_blocks`,
    and ``out`` that block's scratch.

    CSR rows reduce over their ``indptr`` runs (no row is empty:
    :func:`build_instance` rejects zero rows); dense rows take their
    absolute values into the leading elements of ``out``, so only the norms
    are allocated.
    """
    if out is None:
        norms = np.add.reduceat(np.abs(a.data), a.indptr[:-1])
    else:
        x = out.reshape(-1)[: a.size].reshape(a.shape)
        norms = np.abs(a, out=x).sum(axis=1)
    norms[norms < _NORM_FLOOR] = np.inf
    return norms


def _l1_norms(inst: PolytopeInstance) -> np.ndarray:
    """:func:`_row_l1_norms` of every row of ``A``; dense rows go one block
    of :func:`_row_blocks` at a time, so no ``m x n`` array is formed."""
    if inst.is_sparse:
        return _row_l1_norms(inst.matrix, None)
    norms = np.empty(inst.m)
    for start, block, out in _row_blocks(inst, inst.n):
        norms[start : start + block.shape[0]] = _row_l1_norms(block, out)
    return norms


def _column_maxima(inst: PolytopeInstance, right: np.ndarray) -> np.ndarray:
    """``max_i |a_i^T right_j|`` for every column j of ``right``, exactly: each
    is the largest of the computed products, as an exhaustive pass over
    every row would find it, but rows that provably cannot raise a maximum
    are skipped.

    Every computed ``|a_i^T v_j|`` is at most ``h_ij = ||a_i||_1 * c_j``
    with ``c_j = max(||v_j||_inf * (1 + 4 (n + 2) eps), _NORM_FLOOR)``
    (:func:`_l1_norms`; eps = 2u, u = 2^-53 the unit roundoff).  By Higham
    (*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3), a
    dot product of length n summed in any order, with or without FMA, obeys
    ``|fl(a^T v)| <= (1 + g) |a|^T |v| <= (1 + g) ||a||_1 ||v||_inf``
    (Holder), g = gamma_n = nu / (1 - nu).  The computed ``||a_i||_1`` is a
    sum of at most n exact absolute values, so in any order it is at least
    ``(1 - gamma_{n-1})`` times the true one, and ``||v_j||_inf``, a maximum
    of exact absolute values, is exact.  The margin ``1 + 8 (n + 2) u`` is
    itself a float, so forming ``c_j`` and ``h_ij`` rounds twice, and the
    computed ``h_ij`` is at least ``||a_i||_1 ||v_j||_inf (1 - gamma_{n-1})
    (1 - u)^2 (1 + 8 (n + 2) u)``.  That exceeds ``(1 + g) ||a_i||_1
    ||v_j||_inf``, since ``(1 + g) / ((1 - gamma_{n-1}) (1 - u)^2) = 1 +
    (2n + 1) u + O((nu)^2)``.  Rows whose computed ``||a_i||_1`` is below
    ``_NORM_FLOOR`` (``2^-485``) get ``h_ij = inf`` and so are never
    skipped, and raising ``c_j`` to the floor only loosens the bound, so
    every finite computed ``h_ij`` is at least ``2^-970``.  There both
    roundings are relative, and gradual underflow's ``n 2^-1075`` in the dot
    product is far inside the margin's slack, for columns of any norm.  Only
    norms of ``A`` and ``right`` enter the bound: nothing derived from the
    weights or the factor of ``Q`` prunes the pass, which is what
    containment checks.

    Rows are visited in decreasing ``||a_i||_1``, and column j retires once
    its running maximum is at least ``h_ij`` of the next unvisited row i
    (rounding is monotone, so no later row's bound is larger and the test
    may be non-strict).  Once the live columns are half of those being
    multiplied they are compacted into a contiguous copy of ``right[:,
    live]``; the walk stops when none is live.  The order costs ``O(m)``
    norms and an argsort, and random-row gathers, which pay only when
    columns retire early: the first row block is walked in storage order,
    and the pass is redone in norm order (the first block's rows then change
    no maximum) only if at least ``_NORM_ORDER_SHARE`` of its row-column
    pairs have ``h_ij`` below the column's running maximum.  Otherwise
    storage order continues, on views of ``A``.  That count, taken as
    ``||a_i||_1 < maxima_j / c_j`` so that only a boolean block is formed,
    only picks the order; no maximum depends on it or on its rounding.
    """
    return _maxima(inst, right, screen=False)[0]


def _screened_maxima(inst: PolytopeInstance, right: np.ndarray) -> tuple[np.ndarray, float]:
    """Column maxima of ``|A right|`` as ``(approx, E)``: each ``approx[j]``
    is within ``E`` of the maximum ``M_j`` that :func:`_column_maxima`
    computes for any set of columns holding ``right_j``, and most of ``A``
    is multiplied in float32.

    Dense ``A`` is probed as in :func:`_column_maxima`.  If the probe picks
    norm order, or ``A`` is CSR or wider than ``_SCREEN_MAX_COLUMNS``, the
    maxima are exact and ``E = 0``.  Otherwise the first block's float64
    maxima are kept, and the remaining storage-order blocks are cast to
    float32 with ``right`` and multiplied there.  Each column of the float32
    product is reduced by ``max`` and ``min``, and ``approx[j]`` is the
    largest of the first block's maximum, the largest float32 product and
    minus the smallest.  ``E`` is the same for every column:

        E = (1 + 2^-20) (g (1 + v)^2 + 2v + v^2 + G) N S + (1 + S) n 2^-122,

    with ``v = 2^-24`` and ``g = gamma_n = nv / (1 - nv)`` in float32,
    ``G = gamma_n`` in float64 (u = 2^-53), ``N`` the largest computed row
    norm of ``A`` and ``S = max_j ||right_j|| (1 + 4 (n + 2) eps)``.  For
    row ``a`` and column ``r``, the casts give ``a'_k = a_k (1 + d_k)`` and
    ``r'_k = r_k (1 + e_k)`` with ``|d_k|, |e_k| <= v``, so ``|a'^T r' - a^T
    r| <= (2v + v^2) |a|^T |r|``.  The
    float32 dot product of length n, in any order, with or without FMA, is
    within ``g |a'|^T |r'| <= g (1 + v)^2 |a|^T |r|`` of ``a'^T r'``, and
    the float64 product that ``M_j`` takes is within ``G |a|^T |r|`` of
    ``a^T r`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., ch. 3).  The first block's rows are float64 on both sides, so
    within ``2G |a|^T |r|`` of each other, less than the float32 rows'
    coefficient since ``g >= G``.  ``|a|^T |r| <= ||a|| ||r||`` by
    Cauchy-Schwarz, and two maxima differ by at most the largest difference
    of the values they are taken over (``max`` and ``min`` are exact).  The
    factor ``1 + 2^-20`` covers the computed norms, each at least ``(1 -
    G)(1 - u)`` times the true one, and the roundings of forming ``E``, for
    ``n <= _SCREEN_MAX_COLUMNS``.  The absolute term covers float32
    underflow: a cast, product or sum that underflows, or is flushed to
    zero, errs by at most ``2^-126``, which adds at most ``(sqrt(n) S + 2n)
    2^-126`` to a float32 product; float64 underflow in ``M_j`` and in the
    norms is far smaller.  An entry outside float32's range casts to
    ``inf`` or to zero: the first makes ``approx[j]`` ``inf`` or NaN, and
    the second stays inside the absolute term.  The float32 products may
    vary with the BLAS thread count; ``E`` covers every order.
    """
    screen = not inst.is_sparse and inst.n <= _SCREEN_MAX_COLUMNS
    return _maxima(inst, right, screen)


def _maxima(inst: PolytopeInstance, right: np.ndarray, screen: bool) -> tuple[np.ndarray, float]:
    # The pass of _column_maxima (screen=False, E = 0) and _screened_maxima.
    samples = right.shape[1]
    maxima = np.zeros(samples)
    # Column j's bound on row i is l1[i] * factor[j], Holder's ||a_i||_1 *
    # ||u_j||_inf * margin.
    factor = np.maximum(right.max(axis=0), -right.min(axis=0))
    factor *= 1.0 + 4 * (inst.n + 2) * np.finfo(float).eps
    np.maximum(factor, _NORM_FLOOR, out=factor)
    # The scratch holds a product block and, for the probe, the block's
    # absolute values.
    blocks = _row_blocks(inst, max(samples, inst.n))
    for start, block, out in blocks:
        x = _product(block, right, out)
        np.maximum(maxima, np.abs(x, out=x).max(axis=0), out=maxima)
        del x  # one product block live at a time, also for CSR
        if start == 0 and block.shape[0] < inst.m:
            # One comparison of ~131 x samples pairs; np.sort and
            # searchsorted would page in sorting code that a storage-order
            # pass never needs (0.3 MiB more peak RSS on dense inputs).
            first = _row_l1_norms(block, out)
            below = np.count_nonzero(first[:, None] < maxima / factor)
            norm_order = below >= _NORM_ORDER_SHARE * first.size * samples
            if norm_order or screen:
                break
    else:
        return maxima, 0.0
    rows = block.shape[0]
    del blocks, block, out  # the float64 scratch block is freed here
    if not norm_order:
        return _float32_maxima(inst, right, maxima, rows)

    bounds = _l1_norms(inst)
    order = np.argsort(bounds)[::-1]
    bounds = bounds[order]
    live, columns = np.arange(samples), right
    for start, block, out in _row_blocks(inst, samples, order):
        x = _product(block, columns, out)
        maxima[live] = np.maximum(maxima[live], np.abs(x, out=x).max(axis=0))
        del x
        stop = start + block.shape[0]
        if stop == inst.m:
            break
        alive = maxima[live] < bounds[stop] * factor
        count = int(np.count_nonzero(alive))
        if count == 0:
            break
        if 2 * count <= live.size:
            live, factor = live[alive], factor[alive]
            columns = right[:, live]
    return maxima, 0.0


def _float32_maxima(
    inst: PolytopeInstance, right: np.ndarray, maxima: np.ndarray, begin: int
) -> tuple[np.ndarray, float]:
    # _screened_maxima's float32 pass over rows begin.. of dense A, given the
    # float64 maxima of rows ..begin.  Entries outside float32's range turn
    # into inf, NaN or zero here by design, so their warnings are silenced.
    samples, n = right.shape[1], inst.n
    margin = 1.0 + 4 * (n + 2) * np.finfo(float).eps
    scale = float(np.sqrt(np.einsum("ij,ij->j", right, right).max())) * margin
    head = inst.matrix[:begin]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        squared = float(np.einsum("ij,ij->i", head, head).max())
        right32 = right.astype(np.float32)
        top = np.full(samples, -np.inf, dtype=np.float32)
        bottom = np.full(samples, np.inf, dtype=np.float32)
        # A float32 row of `samples` products fills half as many of the
        # budget's 8-byte elements, so these blocks take twice the rows.
        for start, block, out in _row_blocks(inst, -(-samples // 2), begin=begin):
            size = block.shape[0] * samples
            x = out.reshape(-1).view(np.float32)[:size].reshape(-1, samples)
            np.matmul(block.astype(np.float32), right32, out=x)
            np.maximum(top, x.max(axis=0), out=top)
            np.minimum(bottom, x.min(axis=0), out=bottom)
            squared = max(squared, float(np.einsum("ij,ij->i", block, block).max()))
        np.maximum(maxima, top, out=maxima)
        np.maximum(maxima, -bottom, out=maxima)
        v, u = 2.0**-24, np.finfo(float).eps / 2
        g, big_g = n * v / (1 - n * v), n * u / (1 - n * u)
        coef = (1 + 2.0**-20) * (g * (1 + v) ** 2 + 2 * v + v * v + big_g)
        error = coef * math.sqrt(squared) * scale + (1.0 + scale) * n * 2.0**-122
    return maxima, error


def cholesky_of_weighted_gram(inst: PolytopeInstance, w) -> EllipsoidQuadratic:
    """Factor ``Q(w) = A^T diag(w) A`` for nonnegative weights ``w``.

    CSR with sparse rows forms the upper triangle as ``P^T w`` from the
    instance's row-pair operator (O(sum_i nnz_i^2)) and mirrors it.  Dense
    input walks the row blocks of :func:`_row_blocks`: each block of
    ``B = sqrt(W) A`` is written into the walker's one scratch block and its
    ``B_blk^T B_blk`` (a syrk, which numpy mirrors from one triangle) added
    to ``Q``, so no ``m x n`` copy of ``A`` is made (O(m n^2)).  Other CSR
    input is assembled as scipy's sparse ``B^T B`` (O(nnz n)), which sums
    entry ``(j, k)`` and entry ``(k, j)`` over the same rows in the same
    order; products commute, so it too is symmetric without averaging.
    ``Q`` is exactly symmetric on every branch.

    Raises :class:`NotPositiveDefiniteError` when the factorization fails or
    a pivot of ``Q`` scaled to unit diagonal, ``L_kk^2 / Q_kk``, falls at or
    below ``GRAM_PIVOT_FLOOR``; the test does not depend on column scale.
    """
    q, lower = _factor(inst, validate_weights(w, inst.m))
    logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return EllipsoidQuadratic(Q=_lock(q), L=_lock(lower), logdet=logdet)


def _factor(inst: PolytopeInstance, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Q(w)`` and its lower Cholesky factor for validated weights, as
    :func:`cholesky_of_weighted_gram` documents them, with no logdet, lock
    or :class:`EllipsoidQuadratic`: ``leverage_scores`` needs only ``L``."""
    pairs = inst._pairs
    if pairs is not None:
        q = (pairs.op_t @ w)[pairs.mirror].reshape(inst.n, inst.n)
    else:
        root = np.sqrt(w)
        if inst.is_sparse:
            b = inst.matrix.multiply(root[:, None]).tocsr()
            q = (b.T @ b).toarray()
        else:
            q = np.zeros((inst.n, inst.n))
            for start, block, out in _row_blocks(inst, inst.n):
                b = np.multiply(block, root[start : start + block.shape[0], None], out=out)
                q += b.T @ b  # a syrk: numpy mirrors one triangle, so q stays symmetric

    try:
        lower = np.linalg.cholesky(q)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(f"weighted Gram matrix is singular: {exc}") from exc
    scaled_pivots = np.diag(lower) ** 2 / np.diag(q)
    k = int(np.argmin(scaled_pivots))
    if scaled_pivots[k] <= GRAM_PIVOT_FLOOR:
        raise NotPositiveDefiniteError(
            f"weighted Gram pivot {k} is {scaled_pivots[k]:.3e} of its diagonal, "
            f"at or below floor {GRAM_PIVOT_FLOOR:.0e}"
        )
    return q, lower


def _scores(inst: PolytopeInstance, inv_l: np.ndarray) -> np.ndarray:
    """The scores ``sigma_i = a_i^T Q^{-1} a_i`` read off ``L^{-1}``: the one
    score formula, behind :func:`_graded` and :func:`leverage_scores`.

    CSR with sparse rows forms ``Q^{-1} = L^{-T} L^{-1}`` (a syrk, as
    ``EllipsoidQuadratic.inverse`` forms it) and reads every score off it
    as one mat-vec ``P vec(U)``, with ``U`` the upper triangle of ``Q^{-1}``
    and its off-diagonal doubled: O(sum_i nnz_i^2).  Its rounding error is
    of the order of the error the Gram's own rounding puts into the scores;
    a quadratic form can still dip below zero where a squared norm cannot,
    so the result is clipped at zero.  Other input takes the squared row
    norms of ``A L^{-T}`` from the streamed pass :func:`_row_norms`:
    O(m n^2) dense, O(nnz n) sparse, with no copy of A.
    """
    pairs = inst._pairs
    if pairs is None:
        return _row_norms(inst, np.ascontiguousarray(inv_l.T))
    sigma = pairs.op @ np.multiply(inv_l.T @ inv_l, pairs.double).ravel()
    return np.maximum(sigma, 0.0, out=sigma)


def _graded(inst: PolytopeInstance, w) -> tuple[EllipsoidQuadratic, np.ndarray]:
    """The one factorization of ``Q(w)`` behind every grade of ``w``, and the
    scores read from it by :func:`_scores`."""
    quad = cholesky_of_weighted_gram(inst, w)
    return quad, _scores(inst, quad.inv_l)


def leverage_scores(inst: PolytopeInstance, w) -> np.ndarray:
    """Scores ``sigma_i(w) = a_i^T Q(w)^{-1} a_i`` for all rows at once.

    ``w_i * sigma_i(w)`` is the leverage score of row i of ``sqrt(W) A``;
    those products lie in [0, 1] and sum to n for any valid weights.
    The scores are those of :func:`_graded`, from the same factor, without
    the :class:`EllipsoidQuadratic` a solver sweep would throw away.
    """
    _, lower = _factor(inst, validate_weights(w, inst.m))
    return _scores(inst, np.linalg.inv(lower))
