"""Property-based checks of the scores on all three of their branches.

``core._graded`` reads the scores off one factor in three ways: squared row
norms of ``A L^{-T}`` for dense ``A``; one mat-vec with the row-pair
operator ``P`` for CSR whose rows hold at most 7 nonzeros; and CSR row
norms for CSR above the pair cut (here every row holds 8 or more).
Hypothesis draws the branch, the shape, the scales, the weights and a seed;
numpy draws the matrix from that seed.  About one draw in five has enough
rows to cross a row block.  Each score is checked against a Householder QR
of ``sqrt(W) A`` within ``(64 + m) n kappa(sqrt(W) A)^2 u`` of its size
(:func:`tolerance`), and so is ``sum_i w_i sigma_i = n``.  The scores must
not move beyond that bound under ``A -> A G`` (a general ``G`` for dense
``A``, a signed, scaled permutation that keeps the rows' sparsity for CSR)
or a reordering of the rows, and not at all under row sign flips, which
change no product's magnitude.  Examples are derandomized, with no example
database and a fixed budget, so every run checks the same inputs.
"""

from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import qr_reference_scores
from johnellip import build_instance, core, leverage_scores
from johnellip.errors import NotPositiveDefiniteError, RankDeficientError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BUDGET = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
UNIT_ROUNDOFF = np.finfo(float).eps / 2
# P holds at most 4 pairs per nonzero of A exactly when no row holds more
# than 7 nonzeros (nnz (nnz + 1) / 2 <= 4 nnz), and more when every row
# holds 8 or more.
PAIR_ROW_LIMIT = 7


class Case(NamedTuple):
    branch: str  # "dense", "csr-pairs" or "csr-rows"
    m: int
    n: int
    row_exponent: int  # rows scaled by 2^k, |k| <= row_exponent
    column_exponent: int
    weights: str
    seed: int


@st.composite
def cases(draw):
    branch = draw(st.sampled_from(["dense", "csr-pairs", "csr-rows"]))
    n = draw(st.integers(8, 12) if branch == "csr-rows" else st.integers(1, 10))
    if draw(st.integers(0, 4)) == 0:
        # One or two full row blocks and a partial one (P is not cut).
        rows = core._BLOCK_ELEMENTS // n
        m = draw(st.integers(1, 2)) * rows + draw(st.integers(1, 100))
    else:
        m = draw(st.integers(n, 60))
    return Case(
        branch=branch,
        m=m,
        n=n,
        row_exponent=draw(st.sampled_from([0, 1, 4, 10])),
        column_exponent=draw(st.sampled_from([0, 1, 4, 10])),
        weights=draw(st.sampled_from(["uniform", "spread", "half-zero"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def matrix_and_weights(case):
    rng = np.random.default_rng(case.seed)
    m, n = case.m, case.n
    a = rng.standard_normal((m, n))
    if case.branch == "csr-pairs":
        a[rng.random((m, n)) < rng.uniform(0.2, 0.8)] = 0.0
        # Keep at most PAIR_ROW_LIMIT nonzeros per row, one at least.
        ranks = np.argsort(rng.random((m, n)), axis=1).argsort(axis=1)
        a[ranks >= PAIR_ROW_LIMIT] = 0.0
        empty = np.flatnonzero(~a.any(axis=1))
        a[empty, rng.integers(0, n, empty.size)] = 1.0
    elif case.branch == "csr-rows":
        keep = rng.integers(PAIR_ROW_LIMIT + 1, n + 1, m)
        ranks = np.argsort(rng.random((m, n)), axis=1).argsort(axis=1)
        a[ranks >= keep[:, None]] = 0.0
    a *= np.exp2(rng.integers(-case.row_exponent, case.row_exponent + 1, m))[:, None]
    a *= np.exp2(rng.integers(-case.column_exponent, case.column_exponent + 1, n))
    if case.weights == "uniform":
        w = np.full(m, n / m)
    else:
        w = np.exp2(rng.uniform(-20.0, 20.0, m))
        if case.weights == "half-zero":
            w[rng.random(m) < 0.5] = 0.0
    return a, w


def build(a, branch):
    try:
        inst = build_instance(a if branch == "dense" else sp.csr_array(a))
    except RankDeficientError:
        assume(False)
    assert (inst._pairs is not None) == (branch == "csr-pairs")
    return inst


def scores(inst, w):
    try:
        return leverage_scores(inst, w)
    except NotPositiveDefiniteError:
        assume(False)


def tolerance(a, w):
    """The scores' relative error bound, ``(64 + m) n kappa(sqrt(W) A)^2 u``.

    ``64 n kappa^2 u`` covers the factor and the scores at up to 60 rows.
    Each entry of the Gram is a sum of m products, which adds ``m n kappa^2
    u`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 3): at 131073 rows and n = 1 the CSR scores differ from QR's by up
    to 1.3e-13 of their size, against ``64 n u`` = 7.1e-15.
    """
    kappa = np.linalg.cond(np.sqrt(w)[:, None] * a)
    assume(np.isfinite(kappa))
    m, n = a.shape
    return (64 + m) * n * kappa**2 * UNIT_ROUNDOFF


@BUDGET
@given(cases())
def test_scores_match_the_qr_reference(case):
    a, w = matrix_and_weights(case)
    sigma = scores(build(a, case.branch), w)
    bound = tolerance(a, w)
    expected = qr_reference_scores(a, w)
    assert np.all(np.abs(sigma - expected) <= bound * expected)
    assert abs(float(w @ sigma) - case.n) <= bound * case.n


@BUDGET
@given(cases())
def test_scores_are_invariant(case):
    a, w = matrix_and_weights(case)
    sigma = scores(build(a, case.branch), w)
    rng = np.random.default_rng(case.seed + 1)
    n = case.n

    signs = rng.choice([-1.0, 1.0], case.m)
    assert np.array_equal(scores(build(a * signs[:, None], case.branch), w), sigma)

    order = rng.permutation(case.m)
    moved = scores(build(a[order], case.branch), w[order])
    assert np.all(np.abs(moved - sigma[order]) <= 2 * tolerance(a, w) * sigma[order])

    scale = np.exp2(rng.integers(-2, 3, n))
    if case.branch == "dense":
        g = np.linalg.qr(rng.standard_normal((n, n)))[0] * scale
    else:
        # A signed, scaled permutation: A G has A's sparsity, entry by entry.
        g = np.zeros((n, n))
        g[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n) * scale
    turned = a @ g
    moved = scores(build(turned, case.branch), w)
    bound = 2 * max(tolerance(a, w), tolerance(turned, w))
    assert np.all(np.abs(moved - sigma) <= bound * sigma)
