"""Property-based checks of containment's two column-maximum passes.

Hypothesis draws the storage, the shape, the sample count, the scales and a
seed; numpy draws the matrix and the directions from that seed.  Rows and
columns are scaled by powers of two up to ``2^+-150``, some rows repeat
others up to a sign and a few ulps, and up to 600 rows with up to 2000
samples cut both passes into several row blocks.  Directions are unit
Gaussian, as ``certify`` draws them, or the signs of rows of ``A`` times a
factor per column, whose products with those rows sit on the walk's Holder
bounds.  Examples are derandomized, with no example database and a fixed
budget, so every run checks the same inputs."""

from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from johnellip import build_instance, core
from johnellip.errors import RankDeficientError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BUDGET = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Case(NamedTuple):
    storage: str
    m: int
    n: int
    samples: int
    row_exponent: int  # rows scaled by 2^k, |k| <= row_exponent
    column_exponent: int
    repeated: float  # share of rows copied from other rows
    directions: str
    seed: int


@st.composite
def cases(draw):
    # Half the draws are large enough that the passes cross row blocks.
    m = draw(st.one_of(st.integers(1, 60), st.integers(200, 600)))
    return Case(
        storage=draw(st.sampled_from(["dense", "csr"])),
        m=m,
        n=draw(st.integers(1, min(m, 12))),
        samples=draw(st.one_of(st.integers(1, 60), st.integers(800, 2000))),
        # Unscaled inputs are where rows of one scale meet the walk's
        # bounds most often.
        row_exponent=draw(st.sampled_from([0, 2, 30, 150])),
        column_exponent=draw(st.sampled_from([0, 2, 30, 150])),
        repeated=draw(st.sampled_from([0.0, 0.3, 0.8])),
        directions=draw(st.sampled_from(["gaussian", "row-signs"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def instance_and_directions(case):
    rng = np.random.default_rng(case.seed)
    m, n = case.m, case.n
    a = rng.standard_normal((m, n))
    if case.storage == "csr":
        a[rng.random((m, n)) < 0.6] = 0.0
        empty = np.flatnonzero(~a.any(axis=1))
        a[empty, rng.integers(0, n, empty.size)] = 1.0
    a *= np.exp2(rng.integers(-case.row_exponent, case.row_exponent + 1, m))[:, None]
    a *= np.exp2(rng.integers(-case.column_exponent, case.column_exponent + 1, n))
    # Copies of one row, each off by a sign and a few ulps per entry: their
    # products with that row's signs sit within ulps of their bounds and of
    # each other, across block boundaries.
    copies = np.flatnonzero(rng.random(m) < case.repeated)
    signs = rng.choice([-1.0, 1.0], (copies.size, 1))
    ulps = 1.0 + rng.integers(-2, 3, (copies.size, n)) * np.finfo(float).eps
    a[copies] = a[rng.integers(0, m)] * signs * ulps
    try:
        inst = build_instance(sp.csr_array(a) if case.storage == "csr" else a)
    except RankDeficientError:
        assume(False)
    if case.directions == "gaussian":
        u = rng.standard_normal((n, case.samples))
        return inst, u / np.linalg.norm(u, axis=0)
    # Scaled apart, so that each column rounds its products its own way.
    u = np.sign(a[rng.integers(0, m, case.samples)]).T
    return inst, u * rng.uniform(0.5, 1.0, case.samples)


def exhaustive(inst, u):
    return np.abs(inst.matrix @ u).max(axis=0)


@BUDGET
@given(cases())
def test_column_maxima_are_the_exhaustive_maxima(case):
    # Bitwise on CSR, whose products do not depend on which rows share a
    # block; BLAS may round a dense row by its place in a block.
    inst, u = instance_and_directions(case)
    maxima = core._column_maxima(inst, u)
    if inst.is_sparse:
        assert np.array_equal(maxima, exhaustive(inst, u))
    else:
        np.testing.assert_array_max_ulp(maxima, exhaustive(inst, u), maxulp=1)


@BUDGET
@given(cases())
def test_screened_maxima_keep_their_bound(case):
    inst, u = instance_and_directions(case)
    approx, error = core._screened_maxima(inst, u)
    if inst.is_sparse:
        assert error == 0.0
        assert np.array_equal(approx, exhaustive(inst, u))
        return
    exact = core._column_maxima(inst, u)
    finite = np.isfinite(approx)
    assert np.all(np.abs(approx[finite] - exact[finite]) <= error)
    # Only a row beyond float32's range can give an inf or NaN maximum,
    # which decides no sample.
    assert finite.all() or np.abs(inst.matrix).sum(axis=1).max() >= 2.0**127
