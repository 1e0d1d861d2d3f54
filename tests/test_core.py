"""Instance construction, validation, and the weighted-Gram/score kernel."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    DIAMOND_ROWS,
    DIAMOND_OPTIMUM,
    gaussian,
    peak_bytes,
    qr_reference_scores,
    reference_scores,
)
from johnellip import (
    DimensionError,
    DomainError,
    FixedPointConfig,
    NotPositiveDefiniteError,
    RankDeficientError,
    ZeroRowError,
    build_instance,
    certify,
    cholesky_of_weighted_gram,
    fixed_point_solve,
    leverage_scores,
    validate_weights,
)
from johnellip import core


class TestBuildInstance:
    def test_identity_is_valid(self):
        inst = build_instance(np.eye(3))
        assert (inst.m, inst.n) == (3, 3)
        assert not inst.is_sparse

    def test_diamond_is_valid(self):
        inst = build_instance(DIAMOND_ROWS)
        assert (inst.m, inst.n) == (4, 2)
        assert np.array_equal(inst.toarray(), DIAMOND_ROWS)

    def test_rank_one_matrix_rejected(self):
        with pytest.raises(RankDeficientError):
            build_instance([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])

    def test_nearly_dependent_columns_rejected(self):
        base = np.random.default_rng(0).standard_normal((6, 2))
        matrix = np.column_stack([base, base[:, 0] + base[:, 1]])
        with pytest.raises(RankDeficientError):
            build_instance(matrix)

    def test_rank_message_states_the_pivot_count(self):
        # Full numerical rank at condition number 1e6, but A^T A squares it
        # past the pivot cutoff: the error states what dpstrf measured, not a
        # column rank of A.
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((3000, 30)))
        v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        matrix = (u * np.logspace(0, -6, 30)) @ v.T * np.sqrt(3000)
        assert np.linalg.matrix_rank(matrix) == 30
        stated = (
            r"^only \d+ of 30 pivots of A\^T A, with columns scaled to unit norm, "
            r"exceed RANK_PIVOT_RTOL \* n = 3\.0e-09$"
        )
        with pytest.raises(RankDeficientError, match=stated):
            build_instance(matrix)

    def test_badly_scaled_columns_accepted(self):
        # Numerical rank 30 and condition number ~1e5: the rank check must not
        # read the column scale spread as rank loss.
        matrix = np.random.default_rng(0).standard_normal((3000, 30)) * np.logspace(-2.5, 2.5, 30)
        inst = build_instance(matrix)
        w = np.full(3000, 30 / 3000)
        expected = qr_reference_scores(matrix, w)
        assert np.allclose(leverage_scores(inst, w), expected, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize(
        "matrix, column, detail",
        [
            ([[1e160, 0.0], [0.0, 1.0], [1.0, 1.0]], 0, "overflows"),
            ([[1.0, 0.0], [0.0, 1e160], [1.0, 1.0]], 1, "overflows"),
            ([[1e-170, 0.0], [0.0, 1.0], [1e-170, 1.0]], 0, "below the normal"),
            ([[1e160, 2e160], [2e160, 4e160], [3e160, 6e160]], 0, "overflows"),
        ],
        ids=["overflow", "overflow-second", "underflow", "huge-rank-one"],
    )
    def test_column_out_of_gram_range_named(self, storage, matrix, column, detail):
        # All but the last have full rank, yet no A^T A of them fits float64:
        # the error names the column instead of a rank its Gram cannot show.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"column {column} has .*{detail}"):
                _instance(np.array(matrix), storage)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_column_near_the_top_of_gram_range_certifies(self, storage):
        # The accepted twin of the cases above: column 0's squared norm,
        # 1.44e308, fits float64 while twice it does not, so no Gram on the
        # way may be added to its own transpose.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = _instance(np.array([[1.2e154, 0.0], [0.0, 1.0], [1.0, 1.0]]), storage)
            w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.1))
            report = certify(inst, w, 0.1)
        assert report.passed
        assert report.containment_inner_pass and report.containment_outer_pass

    def test_column_near_the_top_of_gram_range_scores_above_the_pair_cut(self):
        # Rows of 8 nonzeros are too dense for P, so the CSR Gram is scipy's
        # sparse b.T @ b; it must score as the dense copy does.
        matrix = np.random.default_rng(5).standard_normal((60, 8))
        matrix[:, 0] *= 1.2e154 / np.linalg.norm(matrix[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = _instance(matrix, "csr")
            assert inst._pairs is None
            sigma = leverage_scores(inst, np.ones(60))
            expected = leverage_scores(_instance(matrix, "dense"), np.ones(60))
        assert np.allclose(sigma, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_zero_column_stays_rank_deficient(self, storage):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficientError):
                _instance(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), storage)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize(
        "matrix",
        [
            [[np.nan, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [[1e160, 0.0], [np.inf, 1.0], [1.0, 1.0]],
        ],
        ids=["nan-and-zero-row", "inf-beside-huge"],
    )
    def test_non_finite_entries_named_first(self, storage, matrix):
        # Finiteness is read off the rank check's Gram, which is formed
        # first; a non-finite entry must still win over a zero row and over
        # a column whose squared norm overflows, with no warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite entries"):
                _instance(np.array(matrix), storage)

    def test_zero_row_reports_first_offender(self):
        with pytest.raises(ZeroRowError) as excinfo:
            build_instance([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert excinfo.value.row == 1
        with pytest.raises(ZeroRowError) as excinfo:
            build_instance([[1.0, 0.0], [0.0, 1.0], [-0.0, -0.0], [0.0, 0.0]])
        assert excinfo.value.row == 2

    def test_zero_rows_found_across_row_blocks(self):
        # Zero rows on both sides of the 2^17 // n row boundary of the
        # streamed passes' blocks: the check reduces all of A at once and
        # names the first zero row by its index in A.
        n = 4
        rows = core._BLOCK_ELEMENTS // n
        matrix = np.random.default_rng(3).standard_normal((2 * rows + 5, n))
        matrix[[rows + 7, 2 * rows + 2, rows - 1]] = 0.0
        with pytest.raises(ZeroRowError) as excinfo:
            build_instance(matrix)
        assert excinfo.value.row == rows - 1
        matrix[rows - 1] = 1.0
        with pytest.raises(ZeroRowError) as excinfo:
            build_instance(matrix)
        assert excinfo.value.row == rows + 7

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            build_instance(np.ones((2, 3)))

    def test_no_columns_rejected(self):
        with pytest.raises(DimensionError):
            build_instance(np.empty((3, 0)))

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            build_instance([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        matrix = np.eye(3)
        matrix[1, 1] = bad
        with pytest.raises(DomainError):
            build_instance(matrix)

    def test_input_is_copied_and_locked(self):
        source = np.eye(2)
        inst = build_instance(source)
        source[0, 0] = 7.0
        assert inst.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            inst.matrix[0, 0] = 5.0

    def test_sparse_input_stored_as_csr(self):
        inst = build_instance(sp.coo_array(DIAMOND_ROWS))
        assert inst.is_sparse and inst.matrix.format == "csr"
        assert np.array_equal(inst.toarray(), DIAMOND_ROWS)
        assert np.array_equal(inst.row_dense(3), [1.0, -1.0])

    def test_sparse_duplicate_entries_summed(self):
        coo = sp.coo_array(
            (np.array([1.0, 2.0, 1.0, 1.0]), (np.array([0, 0, 0, 1]), np.array([0, 0, 1, 1]))),
            shape=(2, 2),
        )
        inst = build_instance(coo)
        assert np.array_equal(inst.toarray(), [[3.0, 1.0], [0.0, 1.0]])

    def test_sparse_explicit_zero_row_detected(self):
        coo = sp.coo_array(
            (np.array([1.0, 0.0, 1.0]), (np.array([0, 1, 2]), np.array([0, 0, 1]))),
            shape=(3, 2),
        )
        with pytest.raises(ZeroRowError) as excinfo:
            build_instance(coo)
        assert excinfo.value.row == 1

    def test_dense_toarray_returns_copy(self):
        inst = build_instance(np.eye(2))
        copy = inst.toarray()
        copy[0, 0] = 9.0
        assert inst.matrix[0, 0] == 1.0


class TestValidateWeights:
    def test_list_input_converted(self):
        w = validate_weights([1, 2, 3], 3)
        assert w.dtype == np.float64 and w.shape == (3,)

    def test_float64_input_is_not_copied(self):
        # -0.0 passes the one-pass check (min >= 0.0) as 0.0 does.
        for w in (np.ones(3), np.array([1.0, -0.0, 0.0])):
            assert validate_weights(w, 3) is w

    def test_integer_array_converted(self):
        w = validate_weights(np.array([1, 0, 3], dtype=np.int32), 3)
        assert w.dtype == np.float64 and np.array_equal(w, [1.0, 0.0, 3.0])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, -np.inf, 2.0], "non-finite"),
            ([-1.0, np.nan, 2.0], "non-finite"),
            ([np.nan, -np.inf, -2.0], "non-finite"),
            ([1.0, -5e-324, 2.0], "negative"),
        ],
    )
    def test_error_names_non_finite_before_negative(self, bad, message):
        with pytest.raises(DomainError, match=message):
            validate_weights(np.array(bad), 3)

    @pytest.mark.parametrize(
        "bad",
        [[1.0, 2.0], [1.0, -0.5, 2.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0],
         {"a": 1}, ["a", 1, 1], [[1.0], [1.0, 1.0]],
         ["1", "0.5", "1"], [True, True, True], np.ones(3, dtype=bool), ["1", 0.5, 1],
         [True, 0.5, 1]],
    )
    def test_bad_weights_rejected(self, bad):
        with pytest.raises(DomainError):
            validate_weights(bad, 3)


class TestWeightedGram:
    def test_identity(self):
        quad = cholesky_of_weighted_gram(build_instance(np.eye(2)), [1.0, 1.0])
        assert np.array_equal(quad.Q, np.eye(2))
        assert quad.logdet == 0.0

    def test_scaled_identity(self):
        quad = cholesky_of_weighted_gram(build_instance(2.0 * np.eye(2)), [1.0, 1.0])
        assert np.allclose(quad.Q, 4.0 * np.eye(2), rtol=0.0, atol=0.0)
        assert math.isclose(quad.logdet, 2.0 * math.log(4.0), rel_tol=1e-15)

    def test_diamond_optimum_gram_is_twice_identity(self, diamond):
        expected = np.zeros((2, 2))
        for weight, row in zip(DIAMOND_OPTIMUM, DIAMOND_ROWS):
            expected += weight * np.outer(row, row)
        assert np.array_equal(expected, 2.0 * np.eye(2))
        quad = cholesky_of_weighted_gram(diamond, DIAMOND_OPTIMUM)
        assert np.allclose(quad.Q, expected, rtol=0.0, atol=1e-15)
        assert math.isclose(quad.logdet, math.log(4.0), rel_tol=1e-15)

    def test_logdet_definition(self, diamond):
        quad = cholesky_of_weighted_gram(diamond, [0.3, 0.4, 0.8, 0.5])
        assert quad.logdet == 2.0 * np.sum(np.log(np.diag(quad.L)))

    def test_weights_on_rank_deficient_subset_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_of_weighted_gram(build_instance(np.eye(2)), [2.0, 0.0])

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("column_scale", [1.0, 1e8], ids=["unscaled", "scaled"])
    def test_near_singular_weights_rejected(self, storage, column_scale):
        # Only rows (1, 1) and (1, 1 + 1e-7) carry weight: the Gram scaled to
        # unit diagonal has last pivot ~2.5e-15, under the floor at any
        # column scale.  A gap of 1e-6 (pivot ~2.5e-13) still factors.
        def weighted_pair(gap):
            rows = np.array([[1.0, 1.0], [1.0, 1.0 + gap], [1.0, 0.0], [0.0, 1.0]])
            inst = _instance(rows * [1.0, column_scale], storage)
            return cholesky_of_weighted_gram(inst, [1.0, 1.0, 0.0, 0.0])

        assert np.isfinite(weighted_pair(1e-6).logdet)
        with pytest.raises(NotPositiveDefiniteError):
            weighted_pair(1e-7)

    def test_inverse_is_read_only_and_exactly_symmetric(self):
        quad = cholesky_of_weighted_gram(gaussian(200, 6, seed=2), np.full(200, 0.03))
        assert quad.inverse is quad.inverse and quad.inv_l is quad.inv_l
        assert np.array_equal(quad.inverse, quad.inverse.T)
        reference = np.linalg.inv(quad.Q)
        assert np.abs(quad.inverse - reference).max() <= 1e-12 * np.abs(reference).max()
        for cached in (quad.inverse, quad.inv_l):
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0

    def test_dense_gram_sums_row_blocks(self):
        # Two full blocks of the streamed dense kernel plus a ragged tail.
        n = 50
        rows = core._BLOCK_ELEMENTS // n
        m = 2 * rows + rows // 3
        rng = np.random.default_rng(12)
        matrix = rng.standard_normal((m, n))
        w = rng.uniform(0.1, 2.0, m)
        inst = build_instance(matrix)
        quad = cholesky_of_weighted_gram(inst, w)
        assert np.array_equal(quad.Q, quad.Q.T)
        b = np.sqrt(w)[:, None] * matrix
        reference = b.T @ b
        assert np.abs(quad.Q - reference).max() <= 1e-13 * np.abs(reference).max()
        sigma = leverage_scores(inst, w)
        assert np.allclose(sigma, qr_reference_scores(matrix, w), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kernel", [cholesky_of_weighted_gram, leverage_scores])
    def test_dense_scratch_does_not_grow_with_m(self, kernel):
        # A is 8 MB; a sqrt(W) A copy or an 8192-row block would exceed the
        # bound, one 1 MiB scratch block does not.
        inst = gaussian(20000, 50, seed=3)
        w = np.full(20000, 50 / 20000)
        kernel(inst, w)
        _, peak = peak_bytes(lambda: kernel(inst, w))
        assert peak < 2 * 2**20

    def test_factor_buffers_locked(self, diamond):
        quad = cholesky_of_weighted_gram(diamond, [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            quad.Q[0, 0] = 0.0
        with pytest.raises(ValueError):
            quad.L[0, 0] = 0.0


class TestLeverageScores:
    def test_identity(self):
        sigma = leverage_scores(build_instance(np.eye(2)), [1.0, 1.0])
        assert np.allclose(sigma, [1.0, 1.0], rtol=0.0, atol=1e-15)

    def test_diagonal_weights_invert(self):
        sigma = leverage_scores(build_instance(np.eye(2)), [2.0, 0.5])
        assert np.allclose(sigma, [0.5, 2.0], rtol=1e-15, atol=0.0)

    def test_diamond_optimum_matches_explicit_inverse(self, diamond):
        expected = reference_scores(DIAMOND_ROWS, DIAMOND_OPTIMUM)
        assert np.allclose(expected, [0.5, 0.5, 1.0, 1.0], rtol=0.0, atol=1e-15)
        sigma = leverage_scores(diamond, DIAMOND_OPTIMUM)
        assert np.allclose(sigma, expected, rtol=1e-12, atol=1e-14)

    def test_zero_weights_are_legal(self, diamond):
        # Zero weights drop rows from the Gram but scores still exist for them.
        sigma = leverage_scores(diamond, DIAMOND_OPTIMUM)
        assert sigma.shape == (4,) and np.all(np.isfinite(sigma))

    def test_matches_explicit_inverse_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            matrix = rng.standard_normal((25, 4))
            w = rng.uniform(0.05, 3.0, 25)
            sigma = leverage_scores(build_instance(matrix), w)
            assert np.allclose(sigma, reference_scores(matrix, w), rtol=1e-10, atol=1e-12)

    def test_trace_identity_on_100_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(6, 40))
            n = int(rng.integers(1, min(m, 6) + 1))
            matrix = rng.standard_normal((m, n))
            w = rng.uniform(0.01, 5.0, m)
            inst = build_instance(matrix)
            total = float(np.dot(w, leverage_scores(inst, w)))
            assert abs(total - n) <= 1e-8 * n

    # 16421 rows: the CSR side takes the pair operator, the dense side fits one
    # score block of 2^17 // 6 rows.
    @pytest.mark.parametrize("m, n", [(50, 4), (16421, 6)], ids=["50x4", "16421x6"])
    def test_sparse_and_dense_agree(self, m, n):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((m, n))
        dense[rng.random((m, n)) < 0.6] = 0.0
        dense[np.flatnonzero(~np.any(dense != 0.0, axis=1))] = 1.0
        w = rng.uniform(0.1, 2.0, m)
        sparse_inst = build_instance(sp.csr_array(dense))
        dense_inst = build_instance(dense)
        assert sparse_inst.is_sparse and not dense_inst.is_sparse
        assert np.allclose(
            leverage_scores(sparse_inst, w), leverage_scores(dense_inst, w),
            rtol=1e-13, atol=1e-15,
        )
        qs = cholesky_of_weighted_gram(sparse_inst, w)
        qd = cholesky_of_weighted_gram(dense_inst, w)
        assert np.allclose(qs.Q, qd.Q, rtol=1e-13, atol=1e-15)

    def test_dense_blocks_match_qr_reference(self):
        # 16421 rows at n = 6 fit one score block; test_dense_gram_sums_row_blocks
        # spans several.
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((16421, 6))
        w = rng.uniform(0.1, 2.0, 16421)
        sigma = leverage_scores(build_instance(matrix), w)
        assert np.allclose(sigma, qr_reference_scores(matrix, w), rtol=1e-12, atol=0.0)


def _instance(matrix, storage):
    return build_instance(matrix if storage == "dense" else sp.csr_array(matrix))


@pytest.mark.parametrize(
    "storage, zero_fraction, pairs",
    [("dense", 0.0, False), ("csr", 0.7, True), ("csr", 0.0, False)],
    ids=["dense", "csr-pairs", "csr-row-blocks"],
)
def test_leverage_scores_are_the_graded_scores(storage, zero_fraction, pairs):
    # leverage_scores returns _graded's scores and drops its
    # EllipsoidQuadratic; both read one factor the same way, bit for bit.
    inst = _instance(_sparse_rows(3000, 9, zero_fraction, seed=8), storage)
    assert (inst._pairs is not None) == pairs
    w = np.random.default_rng(9).uniform(0.1, 2.0, 3000)
    assert np.array_equal(leverage_scores(inst, w), core._graded(inst, w)[1])


def _sparse_rows(m, n, zero_fraction, seed):
    """Gaussian m x n matrix with entries zeroed at random, no zero row."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    matrix[rng.random((m, n)) < zero_fraction] = 0.0
    matrix[np.flatnonzero(~np.any(matrix != 0.0, axis=1)), 0] = 1.0
    return matrix


class TestPairOperator:
    """CSR with sparse rows: Gram and scores through the row-pair operator."""

    @staticmethod
    def rows_of_every_length():
        # Rows 0..n-1 hold 1..n nonzeros, the rest one or two, so the
        # operator stays under the cut of 4 pairs per nonzero.
        n = 12
        rng = np.random.default_rng(4)
        matrix = np.zeros((3000, n))
        for i in range(3000):
            k = i + 1 if i < n else 1 + i % 2
            cols = rng.choice(n, size=k, replace=False)
            matrix[i, cols] = rng.standard_normal(k)
        return matrix, rng.uniform(0.1, 2.0, 3000)

    @staticmethod
    def near_collinear_columns():
        # Column 1 is column 0 times 1 + 1e-4 * noise, so the Gram scaled to
        # unit diagonal has a pivot near 1e-8 and a condition number near
        # 4e8.
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((1500, 10))
        matrix[rng.random((1500, 10)) > 0.25] = 0.0
        matrix[:, 1] = matrix[:, 0] * (1.0 + 1e-4 * rng.standard_normal(1500))
        matrix[np.flatnonzero(~np.any(matrix != 0.0, axis=1)), 2] = 1.0
        return matrix, rng.uniform(0.1, 2.0, 1500)

    def test_rows_of_every_length_match_qr_reference(self):
        matrix, w = self.rows_of_every_length()
        inst = build_instance(sp.csr_array(matrix))
        assert inst._pairs is not None
        sigma = leverage_scores(inst, w)
        assert np.allclose(sigma, qr_reference_scores(matrix, w), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["rows_of_every_length", "near_collinear_columns"])
    def test_sweep_constants_keep_every_bit(self, case):
        # The sweep reads P^T, the mirror and the doubling off the instance;
        # the Gram and the scores must be those of the formulas they replace.
        matrix, w = getattr(self, case)()
        inst = build_instance(sp.csr_array(matrix))
        pairs, n = inst._pairs.op, inst.n
        q = (pairs.T @ w).reshape(n, n)
        q += np.triu(q, 1).T
        quad = cholesky_of_weighted_gram(inst, w)
        assert np.array_equal(quad.Q, q)
        inv = quad.inverse
        sigma = pairs @ (2.0 * np.triu(inv, 1) + np.diag(np.diag(inv))).ravel()
        assert np.array_equal(leverage_scores(inst, w), np.maximum(sigma, 0.0))

    def test_dense_rows_fall_back_to_row_blocks(self):
        # 16421 rows: one full score block of 2^17 // 10 rows plus a ragged
        # tail, and 5.5 pairs per nonzero, above the cut.
        matrix = np.random.default_rng(5).standard_normal((16421, 10))
        inst = build_instance(sp.csr_array(matrix))
        assert inst._pairs is None
        w = np.random.default_rng(6).uniform(0.1, 2.0, 16421)
        sigma = leverage_scores(inst, w)
        assert np.allclose(sigma, qr_reference_scores(matrix, w), rtol=1e-12, atol=0.0)
        expected = leverage_scores(build_instance(matrix), w)
        assert np.allclose(sigma, expected, rtol=1e-13, atol=0.0)

    def test_near_collinear_columns_match_qr_reference(self):
        # Both score paths inherit the Gram's rounding; the quadratic form
        # P vec(U) must stay as close to QR as the row blocks do.
        matrix, w = self.near_collinear_columns()
        inst = build_instance(sp.csr_array(matrix))
        assert inst._pairs is not None
        quad = cholesky_of_weighted_gram(inst, w)
        assert np.min(np.diag(quad.L) ** 2 / np.diag(quad.Q)) < 1e-7
        expected = qr_reference_scores(matrix, w)
        row_blocks = leverage_scores(build_instance(matrix), w)
        assert np.allclose(row_blocks, expected, rtol=1e-6, atol=0.0)
        assert np.allclose(leverage_scores(inst, w), expected, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("k, built", [(7, True), (8, False)], ids=["7-per-row", "8-per-row"])
    def test_cut_and_first_sweep_memory(self, k, built):
        # Rows of k nonzeros give (k + 1) / 2 pairs per nonzero: 4 (at the
        # cut, built) or 4.5 (row blocks).  The build holds at most P's CSR
        # and CSC copies at once plus a bounded index scratch.
        m, n = 40000, 40
        rng = np.random.default_rng(7)
        cols = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :k], axis=1)
        matrix = sp.csr_array(
            (rng.standard_normal(m * k), cols.ravel(), np.arange(0, m * k + 1, k)), shape=(m, n)
        )
        inst = build_instance(matrix)
        a = inst.matrix
        a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        _, peak = peak_bytes(lambda: leverage_scores(inst, np.full(m, n / m)))
        pairs = inst._pairs
        assert (pairs is not None) == built
        if built:
            assert pairs.op.nnz <= 4 * a.nnz
            assert pairs.op.data.nbytes + pairs.op.indices.nbytes <= 4 * a_bytes
            # 5.9x measured, 6.1x in steps of 2^17 pairs; 40 B per pair: 10.5x
            assert peak < 6 * a_bytes
        else:
            assert peak < 3 * a_bytes  # one copy of A as B = sqrt(W) A, one block

    @pytest.mark.parametrize("k, built", [(2, True), (8, False)], ids=["2-per-row", "8-per-row"])
    def test_hundred_thousand_rows(self, k, built):
        # m = 1e5: rows of 2 nonzeros (1.5 pairs per nonzero) take P and stay
        # within the first-sweep bounds above (2.7x measured); rows of 8 take
        # 31 row blocks of 2^17 // 40 rows (2.0x).  Scores are checked on a
        # row sample against a QR of sqrt(W) A taken block by block, so no
        # m x n array is formed.
        m, n = 100_000, 40
        rng = np.random.default_rng(17)
        cols = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :k], axis=1)
        matrix = sp.csr_array(
            (rng.standard_normal(m * k), cols.ravel(), np.arange(0, m * k + 1, k)), shape=(m, n)
        )
        inst = build_instance(matrix)
        a = inst.matrix
        a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        w = rng.uniform(0.1, 2.0, m)
        sigma, peak = peak_bytes(lambda: leverage_scores(inst, w))
        assert (inst._pairs is not None) == built
        assert peak < (7 if built else 3) * a_bytes
        r = np.zeros((0, n))
        for start in range(0, m, 10_000):
            block = a[start : start + 10_000].toarray() * np.sqrt(w[start : start + 10_000, None])
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
        sample = np.sort(rng.choice(m, 500, replace=False))
        x = np.linalg.solve(r.T, a[sample].toarray().T)
        expected = np.einsum("ij,ij->j", x, x)
        assert np.allclose(sigma[sample], expected, rtol=1e-12, atol=0.0)

    def test_gram_is_exactly_symmetric(self):
        inst = build_instance(sp.csr_array(_sparse_rows(400, 9, 0.7, seed=2)))
        assert inst._pairs is not None
        quad = cholesky_of_weighted_gram(inst, np.random.default_rng(3).uniform(0.1, 2.0, 400))
        assert np.array_equal(quad.Q, quad.Q.T)

    def test_gram_above_the_cut_is_exactly_symmetric(self):
        # Rows too dense for P: the Gram is scipy's sparse b.T @ b, which is
        # not averaged with its transpose.  It is exactly symmetric because
        # scipy sums entry (j, k) and entry (k, j) over the same rows in the
        # same order; this pins that on scaled columns, zero and subnormal
        # weights, and a CSR assembled from COO input with duplicates.
        matrix = _sparse_rows(400, 30, 0.3, seed=2)
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 2.0, 400)
        dead = w.copy()
        dead[::7] = 0.0
        dead[3::11] = 5e-324 * np.arange(1, dead[3::11].size + 1)
        rows, cols = np.nonzero(matrix)
        vals = matrix[rows, cols]
        split = rng.uniform(0.2, 0.8, vals.size)
        order = rng.permutation(2 * vals.size)
        coo = sp.coo_array(
            (
                np.concatenate([vals * split, vals * (1.0 - split)])[order],
                (np.tile(rows, 2)[order], np.tile(cols, 2)[order]),
            ),
            shape=matrix.shape,
        )
        cases = [
            (sp.csr_array(matrix), w),
            (sp.csr_array(matrix * np.logspace(-6, 6, 30)), w),
            (sp.csr_array(matrix), dead),
            (coo, w),
        ]
        for entries, weights in cases:
            inst = build_instance(entries)
            assert inst._pairs is None
            quad = cholesky_of_weighted_gram(inst, weights)
            assert np.array_equal(quad.Q, quad.Q.T)

    def test_built_once_and_read_only(self, monkeypatch):
        builds = []
        original = core._pair_operator

        def counting(matrix):
            builds.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(core, "_pair_operator", counting)
        inst = build_instance(sp.csr_array(_sparse_rows(600, 6, 0.7, seed=9)))
        assert builds == []
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.3))
        assert certify(inst, w, 0.3, containment_samples=50).passed
        assert builds == [(600, 6)]
        pairs = inst._pairs
        assert pairs is inst._pairs
        # P^T shares P's buffers: the sweep constants add O(n^2), not O(nnz).
        for op in (pairs.op, pairs.op_t):
            for buf in (op.data, op.indices, op.indptr):
                assert not buf.flags.writeable
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(pairs.op_t, name), getattr(pairs.op, name))
        assert not pairs.mirror.flags.writeable and not pairs.double.flags.writeable
        with pytest.raises(ValueError):
            pairs.op.data[0] = 0.0

    def test_fixed_point_solve_is_bitwise_deterministic(self):
        matrix = sp.csr_array(_sparse_rows(2000, 10, 0.8, seed=12))
        first = build_instance(matrix)
        assert first._pairs is not None
        config = FixedPointConfig(epsilon=0.2)
        w1, _ = fixed_point_solve(first, config)
        w2, _ = fixed_point_solve(first, config)
        w3, _ = fixed_point_solve(build_instance(matrix), config)
        assert np.array_equal(w1, w2) and np.array_equal(w1, w3)


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_columns_scaled_by_ten_to_the_k(storage, k):
    # Column scales spanning 1e-k .. 1e+k: the pivot floor is relative to
    # the Gram's diagonal, so solving and scores ignore the scale.  CSR rows
    # keep about 15% of their entries, so they take the row-pair operator.
    matrix = _sparse_rows(3000, 30, 0.85 if storage == "csr" else 0.0, seed=0)
    base = _instance(matrix, storage)
    inst = _instance(matrix * np.logspace(-k, k, 30), storage)
    assert (inst._pairs is not None) == (storage == "csr")
    w = np.full(3000, 30 / 3000)
    assert np.allclose(leverage_scores(inst, w), leverage_scores(base, w), rtol=1e-12, atol=0.0)
    config = FixedPointConfig(epsilon=0.2)
    solved, _ = fixed_point_solve(inst, config)
    assert np.allclose(solved, fixed_point_solve(base, config)[0], rtol=1e-10, atol=0.0)
    assert certify(inst, solved, 0.2, containment_samples=0).passed


# "csr" keeps half the entries, so its rows take the row-pair operator;
# "csr-dense-rows" keeps them all, 4.5 pairs per nonzero, and takes row blocks.
@pytest.mark.parametrize("storage", ["dense", "csr", "csr-dense-rows"])
class TestScoreInvariance:
    """Scores are a property of the polytope's rows, not of their coordinates."""

    # 9000 rows at n = 8 fit one score block of 2^17 // 8 rows.
    M, N = 9000, 8

    @pytest.fixture
    def problem(self, storage):
        rng = np.random.default_rng(21)
        matrix = rng.standard_normal((self.M, self.N))
        zero_fraction = 0.0 if storage == "csr-dense-rows" else 0.5
        matrix[rng.random((self.M, self.N)) < zero_fraction] = 0.0
        matrix[np.flatnonzero(~np.any(matrix != 0.0, axis=1)), 0] = 1.0
        w = rng.uniform(0.1, 2.0, self.M)
        return matrix, w, rng

    def test_score_path(self, problem, storage):
        inst = _instance(problem[0], storage)
        assert (inst._pairs is not None) == (storage == "csr")

    def test_column_scaling(self, problem, storage):
        matrix, w, _ = problem
        scaled = matrix * np.logspace(-2.5, 2.5, self.N)
        base = leverage_scores(_instance(matrix, storage), w)
        moved = leverage_scores(_instance(scaled, storage), w)
        assert np.allclose(moved, base, rtol=1e-11, atol=0.0)

    def test_row_sign_flips(self, problem, storage):
        matrix, w, rng = problem
        signs = rng.choice([-1.0, 1.0], self.M)
        base = leverage_scores(_instance(matrix, storage), w)
        moved = leverage_scores(_instance(matrix * signs[:, None], storage), w)
        assert np.allclose(moved, base, rtol=1e-13, atol=0.0)

    def test_row_permutation(self, problem, storage):
        matrix, w, rng = problem
        perm = rng.permutation(self.M)
        base = leverage_scores(_instance(matrix, storage), w)
        moved = leverage_scores(_instance(matrix[perm], storage), w[perm])
        assert np.allclose(moved, base[perm], rtol=1e-12, atol=0.0)


def test_log_scores_convex_along_segments():
    rng = np.random.default_rng(7)
    for _ in range(200):
        inst = build_instance(rng.standard_normal((8, 3)))
        w_a = rng.uniform(0.05, 4.0, 8)
        w_b = rng.uniform(0.05, 4.0, 8)
        lam = float(rng.uniform(0.0, 1.0))
        mixed = np.log(leverage_scores(inst, lam * w_a + (1.0 - lam) * w_b))
        bound = lam * np.log(leverage_scores(inst, w_a)) + (1.0 - lam) * np.log(
            leverage_scores(inst, w_b)
        )
        assert np.all(mixed <= bound + 1e-9)


# --- property tests --------------------------------------------------------


@st.composite
def instance_and_weights(draw):
    n = draw(st.integers(1, 4))
    extra = draw(st.integers(1, 8))
    block = draw(
        hnp.arrays(
            np.float64,
            (extra, n),
            elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        )
    )
    matrix = np.vstack([block, np.eye(n)])
    # The identity block guarantees full column rank; rows drawn all-zero are
    # replaced so construction never rejects the example.
    matrix[~np.any(matrix != 0.0, axis=1)] = 1.0
    w = draw(
        hnp.arrays(
            np.float64, (extra + n,), elements=st.floats(0.01, 10.0, allow_nan=False)
        )
    )
    return build_instance(matrix), w


@settings(max_examples=60, deadline=None)
@given(instance_and_weights())
def test_weighted_scores_sum_to_dimension(pair):
    inst, w = pair
    total = float(np.dot(w, leverage_scores(inst, w)))
    assert abs(total - inst.n) <= 1e-8 * inst.n


@settings(max_examples=60, deadline=None)
@given(instance_and_weights())
def test_weighted_scores_bounded_by_one(pair):
    inst, w = pair
    products = w * leverage_scores(inst, w)
    assert np.all(products >= 0.0)
    assert np.all(products <= 1.0 + 1e-10)


@settings(max_examples=60, deadline=None)
@given(instance_and_weights(), st.floats(0.01, 100.0))
@example((build_instance([[1.56260411e-161], [1.0]]), np.array([1.0, 1.0])), 0.5)
def test_scores_scale_inversely_with_weights(pair, c):
    inst, w = pair
    base = leverage_scores(inst, w)
    scaled = leverage_scores(inst, c * w)
    # Subnormal scores (2.4e-322 in the example) carry too few bits for rtol
    # alone; atol=tiny forgives only values below the normal range.
    assert np.allclose(scaled, base / c, rtol=1e-10, atol=np.finfo(float).tiny)


@settings(max_examples=60, deadline=None)
@given(instance_and_weights())
def test_cholesky_factor_roundtrip(pair):
    inst, w = pair
    quad = cholesky_of_weighted_gram(inst, w)
    residual = np.abs(quad.L @ quad.L.T - quad.Q).max()
    assert residual <= 1e-10 * np.abs(quad.Q).max()


@st.composite
def well_conditioned_mixing(draw, n):
    """``U diag(s) V^T`` with orthogonal U, V and singular values in [0.5, 2]."""
    square = hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))
    left, _ = np.linalg.qr(draw(square))
    right, _ = np.linalg.qr(draw(square))
    singular = draw(hnp.arrays(np.float64, (n,), elements=st.floats(0.5, 2.0)))
    return left @ np.diag(singular) @ right.T


@st.composite
def instance_weights_and_mixing(draw):
    # Entries are 0 or at least 0.01 in size, so no row of A G underflows to
    # zero, and the identity block keeps A well conditioned.
    n = draw(st.integers(1, 4))
    extra = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
    block = draw(hnp.arrays(np.float64, (extra, n), elements=entry))
    block[~np.any(block != 0.0, axis=1), 0] = 1.0
    w = draw(hnp.arrays(np.float64, (extra + n,), elements=st.floats(0.01, 10.0)))
    return np.vstack([block, np.eye(n)]), w, draw(well_conditioned_mixing(n))


@pytest.mark.parametrize("storage", ["dense", "csr"])
@settings(max_examples=60, deadline=None)
@given(problem=instance_weights_and_mixing())
def test_scores_and_certificate_invariant_under_general_mixing(storage, problem):
    # sigma_i depends on the polytope's rows only through their span, so any
    # invertible G in A -> A G leaves every score, and so certify's
    # max_sigma, unchanged; G here is dense, not just a column scaling.
    matrix, w, mixing = problem
    base, moved = _instance(matrix, storage), _instance(matrix @ mixing, storage)
    scores = leverage_scores(base, w)
    tolerance = 1e-9 * scores.max()
    assert np.allclose(leverage_scores(moved, w), scores, rtol=1e-9, atol=tolerance)
    max_sigma = certify(base, w, 0.5, containment_samples=0).max_sigma
    moved_max = certify(moved, w, 0.5, containment_samples=0).max_sigma
    assert moved_max == pytest.approx(max_sigma, rel=1e-9)
