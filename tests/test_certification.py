"""Certification, duality gap, containment, volume ratio, and the oracle.

The oracle here doubles as the reference for cross-checking both solvers:
it maximizes the same log-determinant objective by a different algorithm,
so agreement is evidence neither implementation is self-consistent-but-wrong.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    DIAMOND_OPTIMUM,
    DIAMOND_ROWS,
    gaussian,
    peak_bytes,
    reference_logdet,
    reference_scores,
)
from johnellip import (
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SketchConfig,
    build_instance,
    certify,
    containment_check,
    duality_gap,
    fixed_point_solve,
    generate,
    leverage_scores,
    oracle_solve,
    parse_generator_spec,
    sketched_solve,
    volume_ratio,
)
from johnellip import certification, core


class TestCertify:
    def test_identity_ones_is_exact(self):
        inst = build_instance(np.eye(3))
        report = certify(inst, np.ones(3), 0.1)
        assert report.passed and report.sigma_ok and report.weight_sum_ok
        assert report.max_sigma == 1.0
        assert report.epsilon_achieved == 0.0
        assert report.duality_gap == 0.0
        assert report.logdet == 0.0
        assert report.objective == 0.0
        assert report.containment_inner_violations == 0
        assert report.containment_outer_violations == 0
        assert report.containment_samples == 1000

    def test_diamond_optimum_passes_tight_target(self, diamond):
        report = certify(diamond, DIAMOND_OPTIMUM, 0.01)
        assert report.passed
        assert report.epsilon_achieved <= 1e-12
        assert report.containment_inner_pass and report.containment_outer_pass

    def test_unbalanced_identity_weights_fail(self):
        # Q = diag(1/2, 3/2): score of the light row is 2, far past 1.1.
        inst = build_instance(np.eye(2))
        report = certify(inst, [0.5, 1.5], 0.1)
        assert not report.passed
        assert not report.sigma_ok
        assert report.weight_sum_ok
        assert report.max_sigma == pytest.approx(2.0, abs=1e-12)
        assert report.max_sigma == 1.9999999999999996
        assert report.duality_gap == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert report.objective == pytest.approx(-math.log(0.75), rel=1e-12)
        assert report.objective == pytest.approx(
            2.0 - reference_logdet(np.eye(2), np.array([0.5, 1.5])) - 2.0, rel=1e-12
        )

    def test_wrong_mass_fails_even_with_small_scores(self, diamond):
        report = certify(diamond, [0.0, 0.0, 1.2, 1.2], 0.1)
        assert report.sigma_ok
        assert not report.weight_sum_ok
        assert not report.passed

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
    def test_bad_target(self, diamond, target):
        with pytest.raises(DomainError):
            certify(diamond, DIAMOND_OPTIMUM, target)

    @pytest.mark.parametrize("target", ["0.1", None, True, np.array([0.1])])
    def test_non_real_target(self, diamond, target):
        # A DomainError, not the TypeError of math.isfinite.
        with pytest.raises(DomainError, match="target_epsilon must be a real number"):
            certify(diamond, DIAMOND_OPTIMUM, target)

    @pytest.mark.parametrize(
        "matrix,w,expected",
        [
            (np.eye(4), np.ones(4), 0.0),
            (DIAMOND_ROWS, DIAMOND_OPTIMUM, -math.log(4.0)),
            # sum w - logdet(2 I_2) - n = 4 - 2 log 2 - 2
            (np.eye(2), [2.0, 2.0], 2.0 - 2.0 * math.log(2.0)),
        ],
        ids=["identity", "diamond", "scaled-identity-pair"],
    )
    def test_objective(self, matrix, w, expected):
        # The penalized design objective sum(w) - logdet Q(w) - n.
        report = certify(build_instance(matrix), w, 0.1, containment_samples=0)
        assert math.isclose(report.objective, expected, rel_tol=1e-14, abs_tol=0.0)

    def test_containment_can_be_skipped(self, diamond):
        report = certify(diamond, DIAMOND_OPTIMUM, 0.1, containment_samples=0)
        assert report.containment_samples == 0
        assert report.containment_inner_pass and report.containment_outer_pass

    def test_negative_samples_rejected(self, diamond):
        with pytest.raises(DomainError):
            certify(diamond, DIAMOND_OPTIMUM, 0.1, containment_samples=-5)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_containment_seed_rejected(self, diamond, seed):
        with pytest.raises(DomainError, match="containment_seed"):
            certify(diamond, DIAMOND_OPTIMUM, 0.1, containment_seed=seed)

    @pytest.mark.parametrize("samples", [2.5, 0.0, 100.0, "100", True])
    def test_non_integral_samples_rejected(self, diamond, samples):
        # 0.0, 100.0 and True are rejected too: the report's count is an integer.
        with pytest.raises(DomainError, match="containment_samples must be an integer"):
            certify(diamond, DIAMOND_OPTIMUM, 0.1, containment_samples=samples)

    def test_numpy_integer_samples_accepted(self, diamond):
        report = certify(diamond, DIAMOND_OPTIMUM, 0.1, containment_samples=np.int64(100))
        assert report.containment_samples == 100
        assert report.containment_inner_pass and report.containment_outer_pass


class TestDualityGap:
    def test_identity_gap_is_zero(self):
        assert duality_gap(build_instance(np.eye(3)), np.ones(3)) == 0.0

    def test_unbalanced_identity_gap(self):
        gap = duality_gap(build_instance(np.eye(2)), [0.5, 1.5])
        assert gap == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_matches_objective_difference(self):
        # The gap must equal dual(w) minus the value of the scaled-feasible
        # primal point, both rebuilt here from scratch.
        inst = gaussian(40, 4, seed=2)
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.3))
        dense = inst.toarray()
        eps_hat = reference_scores(dense, w).max() - 1.0
        ldet = reference_logdet(dense, w)
        dual = w.sum() - ldet - 4.0
        primal = -4.0 * math.log1p(eps_hat) - ldet
        assert abs(duality_gap(inst, w) - (dual - primal)) <= 1e-9

    def test_pair_form_brackets_the_reference(self):
        inst = gaussian(40, 4, seed=2)
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.3))
        oracle = oracle_solve(inst)
        gap, shortfall = duality_gap(inst, w, oracle)
        # Reference logdet sits between ours and ours + gap (weak duality).
        assert shortfall >= -1e-12
        assert shortfall <= gap + 1e-9


class TestContainment:
    def test_identity(self):
        result = containment_check(build_instance(np.eye(3)), np.ones(3), 500)
        assert result.inner_pass and result.outer_pass
        assert result.inner_violations == 0 and result.outer_violations == 0
        assert result.samples == 500

    def test_diamond_optimum(self, diamond):
        result = containment_check(diamond, DIAMOND_OPTIMUM, 2000, seed=3)
        assert result.inner_pass and result.outer_pass

    def test_any_mass_n_weights_pass(self):
        # The sandwich holds for every positive weight vector of total mass
        # n, optimal or not; only roundoff could produce a violation.
        rng = np.random.default_rng(5)
        inst = gaussian(30, 3, seed=5)
        for _ in range(10):
            w = rng.uniform(0.1, 2.0, 30)
            w *= 3.0 / w.sum()
            result = containment_check(inst, w, 1000, seed=int(rng.integers(1 << 31)))
            assert result.inner_violations == 0
            assert result.outer_violations == 0

    def test_degenerate_weights_raise(self):
        with pytest.raises(NotPositiveDefiniteError):
            containment_check(build_instance(np.eye(2)), [2.0, 0.0], 100)

    def test_zero_samples_rejected(self, diamond):
        with pytest.raises(DomainError):
            containment_check(diamond, DIAMOND_OPTIMUM, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_bad_seed_rejected(self, diamond, seed):
        with pytest.raises(DomainError, match="seed"):
            containment_check(diamond, DIAMOND_OPTIMUM, 100, seed=seed)

    @pytest.mark.parametrize("samples", [2.5, 100.0, "100", True])
    def test_non_integral_samples_rejected(self, diamond, samples):
        with pytest.raises(DomainError, match="samples must be an integer"):
            containment_check(diamond, DIAMOND_OPTIMUM, samples)

    def test_numpy_integer_samples_accepted(self, diamond):
        assert containment_check(diamond, DIAMOND_OPTIMUM, np.int32(100)).samples == 100

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_violation_counts_match_unblocked_reference(self, storage):
        # Unit rows in R^3 with mass-3n weights: y^T Q y can reach
        # sum(w) = 9 > n, so some outer tests fail.  4000 samples put
        # fewer than 300 rows in a block, so the count spans several blocks.
        self.check_violation_counts(storage, np.ones(300))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_violation_counts_hold_when_directions_retire(self, storage, monkeypatch):
        # Rows of norm 0.1 to 10: on CSR the column-maximum pass walks them
        # by l1 norm, and directions retire before the last row.  Weights
        # grow as the squared row norm, so the long rows that set ||A u||_inf
        # carry the mass and some outer tests still fail.
        visited = self.count_visited_rows(monkeypatch, 4000)
        self.check_violation_counts(storage, np.logspace(-1, 1, 300))
        assert visited["rows"] < 300

    @staticmethod
    def check_violation_counts(storage, row_scale):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((300, 3))
        if storage == "csr":
            dense[rng.random((300, 3)) < 0.3] = 0.0
            dense[np.flatnonzero(~np.any(dense != 0.0, axis=1)), 0] = 1.0
        dense /= np.linalg.norm(dense, axis=1)[:, None]
        dense *= row_scale[:, None]
        w = rng.uniform(0.5, 1.5, 300) * row_scale**2
        w *= 9.0 / w.sum()
        inst = build_instance(sp.csr_array(dense) if storage == "csr" else dense)
        result = containment_check(inst, w, 4000, seed=11)
        inner, outer = reference_containment_counts(dense, w, 4000, seed=11)
        assert outer > 0
        assert result.inner_violations == inner
        assert result.outer_violations == outer
        assert result.outer_pass == (outer == 0)
        assert result.samples == 4000

    @staticmethod
    def count_visited_rows(monkeypatch, samples):
        # Rows that walks of containment's width (one per sample) yield; the
        # Gram and the scores walk A with width n.
        visited = {"rows": 0}
        walk = core._row_blocks

        def counting_walk(inst, width, *order):
            for start, block, out in walk(inst, width, *order):
                visited["rows"] += block.shape[0] if width == samples else 0
                yield start, block, out

        monkeypatch.setattr(core, "_row_blocks", counting_walk)
        return visited

    @staticmethod
    def column_maxima_case(case):
        """(dense matrix, directions, storage) of one column-maximum case."""
        rng = np.random.default_rng(5)
        name, _, storage = case.rpartition("-")
        if name == "sparse-2000x8":
            spec = GeneratorSpec("sparse-bernoulli", 2000, 8, density=0.3, seed=7)
            dense = generate(spec).toarray()
        elif name == "column-scales":
            dense = rng.standard_normal((3000, 10)) * (rng.random((3000, 10)) < 0.4)
            dense[:, 0] += 1.0
            dense *= np.logspace(-6, 6, 10)
        elif name == "parallel":
            # 50 copies of each of 20 unit rows, each scaled by a few ulps, and
            # directions parallel to those rows: products fall within ulps of
            # the bounds, and at this seed a bound without its rounding
            # margin misses CSR maxima.
            rng = np.random.default_rng(0)
            v = rng.standard_normal((20, 3))
            v /= np.linalg.norm(v, axis=1)[:, None]
            dense = np.repeat(v, 50, axis=0)
            dense *= 1 + rng.integers(-3, 4, 1000)[:, None] * np.finfo(float).eps
            rng.shuffle(dense)
            return dense, np.tile(v.T, 50), storage
        elif name == "tie":
            # Rows c e_k with c a power of two, so every product and norm is
            # exact, and signed unit directions.  At n = 3 the bound's margin
            # is 1 + 20 eps.  Norm order visits 130 rows of norm 2^12 or more
            # on e_1 and e_2 and the row 2^11 (1 + 20 eps) e_0 in its first
            # block; direction e_0's maximum is then exactly the bound of the
            # next row, 2^11 e_0, and the non-strict retire test stops there.
            dense = np.zeros((600, 3))
            dense[np.arange(600), rng.integers(0, 3, 600)] = rng.choice(
                [-1.0, 1.0], 600
            ) * np.exp2(rng.integers(-10, 10, 600))
            dense[470:] = 0.0
            dense[np.arange(470, 600), rng.integers(1, 3, 130)] = np.exp2(
                rng.integers(12, 14, 130)
            )
            dense[:3] = 2.0**11 * np.eye(3)
            dense[3] = [2.0**11 * (1 + 20 * np.finfo(float).eps), 0.0, 0.0]
            return dense, np.tile(np.hstack([np.eye(3), -np.eye(3)]), 167)[:, :1000], storage
        elif name == "one-sample":
            dense = rng.standard_normal((700, 5)) * np.logspace(-3, 3, 700)[:, None]
            return dense, rng.standard_normal((5, 1)), storage
        elif name == "below-one-block":
            dense = rng.standard_normal((100, 6)) * np.logspace(-3, 3, 100)[:, None]
        elif name == "two-blocks":
            # 1000 samples cut blocks of 131 rows, and 262 rows are two exactly.
            # Long rows on the first three coordinates alternate with short
            # ones on the last three, and half the directions lie in each
            # group: in CSR's l1 order the long rows fill the first block, and
            # the directions they cannot reach stay live to the last row.
            dense = np.zeros((262, 6))
            dense[0::2, :3] = 10.0 * rng.standard_normal((131, 3))
            dense[1::2, 3:] = rng.standard_normal((131, 3))
            u = rng.standard_normal((6, 1000))
            u[3:, :500] = 0.0
            u[:3, 500:] = 0.0
            return dense, u, storage
        elif name == "subnormal-squares":
            # Rows of about 1e-155, whose squares are subnormal, differing by
            # 41 ulps at most: their l1 norms fall below _NORM_FLOOR
            # (2^-485), so they get an infinite l1 bound and no row is
            # skipped.  The column's squared norm, 1e-307, is still normal.
            rng = np.random.default_rng(0)
            eps = np.finfo(float).eps
            column = 1e-155 * (1 + rng.integers(0, 40, 1000) * eps)
            column[rng.integers(1000)] = 1e-155 * (1 + 41 * eps)
            dense = (column * rng.choice([-1.0, 1.0], 1000))[:, None]
        elif name == "unit-rows":
            dense = rng.standard_normal((1500, 5))
            dense /= np.linalg.norm(dense, axis=1)[:, None]
        else:
            assert name == "gaussian"
            dense = rng.standard_normal((3000, 20))
        return dense, rng.standard_normal((dense.shape[1], 1000)), storage

    @pytest.mark.parametrize(
        "case",
        [
            "sparse-2000x8-csr",
            "column-scales-csr",
            "parallel-csr",
            "parallel-dense",
            "tie-csr",
            "tie-dense",
            "one-sample-csr",
            "one-sample-dense",
            "below-one-block-dense",
            "two-blocks-csr",
            "two-blocks-dense",
            "subnormal-squares-csr",
            "subnormal-squares-dense",
            "unit-rows-csr",
            "unit-rows-dense",
            "gaussian-dense",
        ],
    )
    def test_column_maxima_match_exhaustive_pass(self, case, monkeypatch):
        # Skipping rows keeps every maximum exact.  A CSR product does not
        # depend on which rows share its block, so CSR maxima are bitwise
        # equal; BLAS may round a dense row by its place in a block.
        dense, u, storage = self.column_maxima_case(case)
        u /= np.linalg.norm(u, axis=0)
        inst = build_instance(sp.csr_array(dense) if storage == "csr" else dense)
        expected = np.abs(inst.matrix @ u).max(axis=0)
        visited = self.count_visited_rows(monkeypatch, u.shape[1])
        maxima = core._column_maxima(inst, u)
        if storage == "csr":
            assert np.array_equal(maxima, expected)
        else:
            np.testing.assert_array_max_ulp(maxima, expected, maxulp=1)
        if case == "sparse-2000x8-csr":
            assert visited["rows"] < inst.m
        if storage == "dense":
            assert visited["rows"] == inst.m  # dense A never walks
        if case == "tie-csr":
            assert visited["rows"] == 131  # one block in l1 order

    @staticmethod
    def count_norm_order_walks(monkeypatch):
        # The column-maximum pass takes the rows' l1 norms once per walk in
        # l1 order, which CSR A always takes and dense A never does.
        walks = {"count": 0}
        l1_norms = core._l1_norms

        def counting(inst):
            walks["count"] += 1
            return l1_norms(inst)

        monkeypatch.setattr(core, "_l1_norms", counting)
        return walks

    @staticmethod
    def assert_exhaustive(inst, u, maxima):
        expected = np.abs(inst.matrix @ u).max(axis=0)
        if inst.is_sparse:
            assert np.array_equal(maxima, expected)
        else:
            np.testing.assert_array_max_ulp(maxima, expected, maxulp=1)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_holder_walk_visits_fewer_rows(self, storage, monkeypatch):
        # sparse-mtx's rows, about 2 nonzeros in 40 columns: for a unit
        # Gaussian u, ||a||_1 ||u||_inf is about half of ||a||_2 ||u||_2.
        # At this seed the CSR walk visits 1048 of the 4367 rows; retiring
        # by ||a_i||_2 max_j ||u_j||_2 instead would visit 2751.  The same
        # rows stored dense are multiplied in storage order, every one.
        inst = generate(GeneratorSpec("sparse-bernoulli", 5000, 40, density=0.05, seed=0))
        if storage == "dense":
            inst = build_instance(inst.toarray())
        u = np.random.default_rng(5).standard_normal((40, 1000))
        u /= np.linalg.norm(u, axis=0)
        walks = self.count_norm_order_walks(monkeypatch)
        visited = self.count_visited_rows(monkeypatch, 1000)
        self.assert_exhaustive(inst, u, core._column_maxima(inst, u))
        if storage == "csr":
            assert walks["count"] == 1
            assert visited["rows"] < inst.m // 3
        else:
            assert walks["count"] == 0
            assert visited["rows"] == inst.m

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_holder_walk_retires_at_an_equal_bound(self, storage, monkeypatch):
        # Rows c e_k with c a power of two, and directions +-(e_k + (e_{k+1}
        # + e_{k+2}) / 4), so every product and l1 norm is exact and
        # ||u||_inf = 1 < ||u||_2.  At n = 3 the margin is 1 + 20 eps.  The
        # CSR walk's first block holds 130 rows of 2^12 or 2^13 on e_1 and
        # e_2 and the row 2^11 (1 + 20 eps) e_0, the maximum of the
        # directions on e_0; the next rows, 2^11 e_k, bound them by exactly
        # that maximum, and the non-strict test retires them.  Dense A never
        # walks.
        rng = np.random.default_rng(5)
        dense = np.zeros((600, 3))
        dense[np.arange(600), rng.integers(0, 3, 600)] = rng.choice(
            [-1.0, 1.0], 600
        ) * np.exp2(rng.integers(-10, 10, 600))
        dense[470:] = 0.0
        dense[np.arange(470, 600), np.arange(130) % 2 + 1] = np.exp2(rng.integers(12, 14, 130))
        dense[:3] = 2.0**11 * np.eye(3)
        dense[3] = [2.0**11 * (1 + 20 * np.finfo(float).eps), 0.0, 0.0]
        inst = build_instance(sp.csr_array(dense) if storage == "csr" else dense)
        lean = (np.eye(3) + np.roll(np.eye(3), 1, axis=0) / 4 + np.roll(np.eye(3), 2, axis=0) / 4)
        u = np.tile(np.hstack([lean, -lean]), 167)[:, :1000]
        walks = self.count_norm_order_walks(monkeypatch)
        visited = self.count_visited_rows(monkeypatch, 1000)
        self.assert_exhaustive(inst, u, core._column_maxima(inst, u))
        if storage == "csr":
            assert walks["count"] == 1
            assert visited["rows"] == 131  # one block in l1 order
        else:
            assert walks["count"] == 0
            assert visited["rows"] == inst.m

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_holder_walk_keeps_its_rounding_margin(self, storage, monkeypatch):
        # 200 copies of one row on e_0..e_2, each entry moved by a few ulps,
        # and directions whose entries there are +-s, the row's signs, so
        # each product is within a few ulps of the Holder bound.  130 long
        # rows on e_3..e_5, which the directions barely reach, fill the first
        # norm-order block ahead of the copies, and 60 rows 2.5 e_k (k >= 3)
        # sit among the short rows.  At this seed a CSR walk without the
        # bound's rounding margin misses 440 maxima.  Dense A never walks.
        rng = np.random.default_rng(9)
        eps = np.finfo(float).eps
        row = rng.uniform(0.5, 2, 3) * rng.choice([-1.0, 1.0], 3)
        dense = np.zeros((600, 6))
        dense[:200, :3] = row * (1 + rng.integers(-2, 3, (200, 3)) * eps)
        dense[200:330, 3:] = 10 * rng.standard_normal((130, 3))
        dense[330:] = 0.01 * rng.standard_normal((270, 6))
        dense[np.arange(540, 600), rng.integers(3, 6, 60)] = 2.5
        dense = dense[rng.permutation(600)]
        u = np.zeros((6, 1000))
        u[:3] = np.sign(row)[:, None]
        u[3:] = rng.choice([-0.05, 0.05], (3, 1000))
        u *= rng.uniform(0.5, 1, 1000)
        inst = build_instance(sp.csr_array(dense) if storage == "csr" else dense)
        walks = self.count_norm_order_walks(monkeypatch)
        self.assert_exhaustive(inst, u, core._column_maxima(inst, u))
        assert walks["count"] == (storage == "csr")

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_holder_walk_visits_rows_below_the_floor_first(self, storage, monkeypatch):
        # Rows scaled to l1 norms below _NORM_FLOOR (2^-485), some of them
        # with subnormal entries, get an infinite bound and lead the CSR
        # walk; rows just above it keep a finite bound.  Dense A never
        # walks.
        inst = generate(GeneratorSpec("sparse-bernoulli", 5000, 40, density=0.05, seed=0))
        dense = inst.toarray()
        tiny = np.arange(1000, 1040)
        dense[tiny] *= (2.0**-490 / np.abs(dense[tiny]).sum(axis=1))[:, None]
        dense[tiny[::4]] *= 2.0**-580  # entries near 2^-1070
        dense[2000:2040] *= (2.0**-480 / np.abs(dense[2000:2040]).sum(axis=1))[:, None]
        csr = build_instance(sp.csr_array(dense))
        assert np.array_equal(np.flatnonzero(np.isinf(core._l1_norms(csr))), tiny)
        inst = csr if storage == "csr" else build_instance(dense)
        u = np.random.default_rng(5).standard_normal((40, 1000))
        u /= np.linalg.norm(u, axis=0)
        orders = []
        walk = core._row_blocks

        def recording_walk(inst, width, *order):
            orders.extend(order[:1])
            return walk(inst, width, *order)

        monkeypatch.setattr(core, "_row_blocks", recording_walk)
        self.assert_exhaustive(inst, u, core._column_maxima(inst, u))
        if storage == "csr":
            (order,) = orders  # one walk in l1 order
            assert np.array_equal(np.sort(order[: tiny.size]), tiny)
        else:
            assert orders == []

    @pytest.mark.parametrize("case", ["unit-rows-csr", "unit-rows-dense", "gaussian-dense"])
    def test_order_follows_the_holder_share(self, case, monkeypatch):
        # Storage alone picks the order, whatever share of a row block's
        # pairs the walk's own bound ||a_i||_1 ||u_j||_inf keeps below the
        # running maximum: with certify's 1000 directions, 0.126 of the first
        # block's pairs on the unit rows in R^3 of TestFloat32Screen, 0.053
        # on gaussian-dense:2000x10.  CSR walks in l1 order; dense A keeps
        # storage order, where the float32 pass runs.
        name, _, storage = case.rpartition("-")
        if name == "unit-rows":
            dense = np.random.default_rng(3).standard_normal((400, 3))
            dense /= np.linalg.norm(dense, axis=1)[:, None]
        else:
            dense = gaussian(2000, 10, seed=0).matrix
        inst = build_instance(sp.csr_array(dense) if storage == "csr" else dense)
        u = np.random.default_rng(0).standard_normal((inst.n, 1000))
        u /= np.linalg.norm(u, axis=0)
        walks = self.count_norm_order_walks(monkeypatch)
        self.assert_exhaustive(inst, u, core._column_maxima(inst, u))
        if storage == "csr":
            assert walks["count"] == 1
        else:
            assert walks["count"] == 0
            assert core._screened_maxima(inst, u)[1] > 0.0

    def test_memory_does_not_grow_with_m_times_samples(self):
        # A dense m x samples block would take 20000 * 1000 * 8 B = 153 MiB.
        inst = gaussian(20000, 20, seed=4)
        w = np.full(20000, 20 / 20000)
        result, peak = peak_bytes(lambda: containment_check(inst, w, 1000, seed=1))
        assert result.inner_pass and result.outer_pass
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_certify_keeps_one_containment_block(self, storage):
        # 1000 samples give blocks of 2^17 // 1000 = 131 rows x 1000 = 1 MiB;
        # one block peaks at 1.7 MiB (dense) and 1.3 MiB (CSR), so a second
        # live block would take either past 2.25 MiB.  The CSR instance's rows
        # are sparse, so its row-pair operator is built before the measurement.
        if storage == "dense":
            inst = gaussian(20000, 20, seed=4)
        else:
            inst = generate(GeneratorSpec("sparse-bernoulli", 20000, 20, density=0.1, seed=4))
        w = np.full(inst.m, 20 / inst.m)
        assert (inst._pairs is not None) == (storage == "csr")
        report, peak = peak_bytes(lambda: certify(inst, w, 0.5, containment_samples=1000))
        assert report.containment_samples == 1000
        assert report.containment_inner_pass and report.containment_outer_pass
        assert peak < 2.25 * 2**20


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloat32Screen:
    """Containment decides most samples from float32 maxima within a proven
    bound E of the exact ones, and sends the rest to the exact pass.  A
    numpy warning fails these tests: out-of-range casts are silenced."""

    @staticmethod
    def spy(monkeypatch):
        # What the screen returned, and the directions the exact pass got.
        seen = {"screened": [], "exact": []}
        screen, exact = certification._screened_maxima, certification._column_maxima

        def screened(inst, right):
            approx, error = screen(inst, right)
            seen["screened"].append((approx.copy(), error))
            return approx, error

        def column_maxima(inst, right):
            seen["exact"].append(right.copy())
            return exact(inst, right)

        monkeypatch.setattr(certification, "_screened_maxima", screened)
        monkeypatch.setattr(certification, "_column_maxima", column_maxima)
        return seen

    @pytest.mark.parametrize(
        "case",
        [
            *(
                f"{name}-dense"
                for name in (
                    "sparse-2000x8",
                    "column-scales",
                    "parallel",
                    "tie",
                    "one-sample",
                    "below-one-block",
                    "two-blocks",
                    "subnormal-squares",
                    "unit-rows",
                    "gaussian",
                )
            ),
            *(f"scales-1e30-seed{seed}" for seed in range(4)),
        ],
    )
    def test_error_bound(self, case):
        if case.startswith("scales-1e30"):
            # Column scales drawn from logspace(-30, 30); odd seeds also
            # normalize the rows.
            seed = int(case[-1])
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((3000, 10))
            dense *= rng.choice(np.logspace(-30, 30, 61), 10)
            if seed % 2:
                dense /= np.linalg.norm(dense, axis=1)[:, None]
            u = rng.standard_normal((10, 1000))
        else:
            dense, u, _ = TestContainment.column_maxima_case(case)
        u /= np.linalg.norm(u, axis=0)
        inst = build_instance(dense)
        approx, error = core._screened_maxima(inst, u)
        exact = core._column_maxima(inst, u)
        assert np.all(np.abs(approx - exact) <= error)
        screened = case in ("parallel-dense", "unit-rows-dense", "gaussian-dense")
        if screened or case in ("subnormal-squares-dense", "scales-1e30-seed1"):
            assert error > 0.0  # the float32 pass ran
        if screened:
            assert error < 1e-4 * exact.min()

    @pytest.mark.parametrize("offset", [None, 1e-9, -1e-9])
    def test_verdicts_near_threshold(self, offset, monkeypatch):
        # check_violation_counts's mass-3n instance, and weights rescaled
        # so that one sample's outer value y^T Q y is n (1 + offset): eight
        # samples in turn, each within 1e-6 relative of n, where float32
        # maxima alone cannot tell the side.  Scaling w leaves the inner
        # values alone.
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((300, 3))
        dense /= np.linalg.norm(dense, axis=1)[:, None]
        w = rng.uniform(0.5, 1.5, 300)
        w *= 9.0 / w.sum()
        inst = build_instance(dense)
        u = np.random.default_rng(11).standard_normal((3, 4000))
        u /= np.linalg.norm(u, axis=0)
        y = u / np.abs(dense @ u).max(axis=0)
        outer = np.einsum("ij,ij->j", y, (dense.T @ (dense * w[:, None])) @ y)
        seen = self.spy(monkeypatch)
        for k in [None] if offset is None else np.argsort(np.abs(outer - 3.0))[:8]:
            scaled = w if k is None else w * (3.0 * (1.0 + offset) / outer[k])
            result = containment_check(inst, scaled, 4000, seed=11)
            inner, outer_count = reference_containment_counts(dense, scaled, 4000, seed=11)
            assert (result.inner_violations, result.outer_violations) == (inner, outer_count)
            assert seen["screened"][-1][1] > 0.0  # the float32 pass ran
            if k is None:
                assert outer_count > 0
            else:
                # The sample near the threshold took the exact pass.
                assert (seen["exact"][-1] == u[:, k : k + 1]).all(axis=0).any()

    @pytest.mark.parametrize(
        "case", ["huge-column", "near-1e39", "near-1e-46", "subnormal-squares"]
    )
    def test_out_of_float32_range_takes_the_exact_pass(self, case, monkeypatch):
        # Entries float32 cannot hold cast to inf or to zero.  The screen
        # then decides nothing, quietly, and every sample takes the exact
        # pass.
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((400, 3))
        dense /= np.linalg.norm(dense, axis=1)[:, None]
        if case == "huge-column":
            dense[200] = [1.2e154, 0.0, 1.0]  # huge.mtx's column
        elif case == "near-1e39":
            dense *= 1e39
        elif case == "near-1e-46":
            dense *= 1e-46
        else:
            dense, _, _ = TestContainment.column_maxima_case("subnormal-squares-dense")
        inst = build_instance(dense)
        w = np.full(inst.m, inst.n / inst.m)
        seen = self.spy(monkeypatch)
        report = certify(inst, w, 0.5, containment_samples=1000)
        (approx, error), = seen["screened"]
        assert error > 0.0
        with np.errstate(invalid="ignore"):
            decidable = np.isfinite(approx + error) & (approx - error > 0.0)
        assert not decidable.any()
        u = np.random.default_rng(0).standard_normal((inst.n, 1000))
        u /= np.linalg.norm(u, axis=0)
        (right,) = seen["exact"]
        assert np.array_equal(right, u)
        # Every sample on the exact pass: the screen returns its maxima, E = 0.
        monkeypatch.setattr(
            certification,
            "_screened_maxima",
            lambda inst, right: (core._column_maxima(inst, right), 0.0),
        )
        exact = certify(inst, w, 0.5, containment_samples=1000)
        assert report == exact


def reference_containment_counts(dense, w, samples, seed):
    """Inner/outer violation counts from the documented draw, unblocked.

    Uses the quadratic form of ``Q`` directly rather than its Cholesky
    factor, and whole ``m x samples`` products.
    """
    n = dense.shape[1]
    q = dense.T @ (dense * w[:, None])
    eps_hat = reference_scores(dense, w).max() - 1.0
    u = np.random.default_rng(seed).standard_normal((n, samples))
    u /= np.linalg.norm(u, axis=0)
    x = u / np.sqrt((1.0 + eps_hat) * np.einsum("ij,ij->j", u, q @ u))
    inner = np.abs(dense @ x).max(axis=0) > 1.0 + 1e-9
    y = u / np.abs(dense @ u).max(axis=0)
    outer = np.einsum("ij,ij->j", y, q @ y) > n + 1e-9
    return int(inner.sum()), int(outer.sum())


class TestVolumeRatio:
    def test_reference_against_itself(self, diamond):
        ratio = volume_ratio(diamond, DIAMOND_OPTIMUM, DIAMOND_OPTIMUM)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_unbalanced_identity_value(self):
        # eps_hat = 1, so the ratio is exp((0 - 2 log 2 - log(3/4))/2) = 3^{-1/2}.
        inst = build_instance(np.eye(2))
        ratio = volume_ratio(inst, [0.5, 1.5], [1.0, 1.0])
        assert ratio == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert ratio >= math.exp(-1.0)

    def test_solver_output_on_diamond(self, diamond):
        w, _ = fixed_point_solve(diamond, FixedPointConfig(epsilon=0.1))
        eps_hat = reference_scores(diamond.toarray(), w).max() - 1.0
        ratio = volume_ratio(diamond, w, DIAMOND_OPTIMUM)
        assert math.exp(-2.0 * eps_hat / 2.0) - 1e-9 <= ratio <= 1.0 + 1e-12

    def test_solver_output_on_gaussian(self):
        inst = gaussian(60, 5, seed=8)
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.2))
        star = oracle_solve(inst)
        eps_hat = reference_scores(inst.toarray(), w).max() - 1.0
        ratio = volume_ratio(inst, w, star.weights)
        assert ratio >= math.exp(-5.0 * eps_hat / 2.0) - 1e-6
        assert ratio <= 1.0 + 1e-9


class TestOracle:
    def test_identity_converges_immediately(self):
        sol = oracle_solve(build_instance(np.eye(3)))
        assert np.array_equal(sol.weights, np.ones(3))
        assert sol.iterations == 0
        assert sol.max_sigma == 1.0
        assert sol.support_deviation == 0.0
        assert sol.logdet == 0.0

    def test_diamond_reaches_exact_vertex_weights(self, diamond):
        sol = oracle_solve(diamond)
        assert np.allclose(sol.weights, DIAMOND_OPTIMUM, rtol=0.0, atol=1e-12)
        assert sol.iterations <= 10
        assert sol.support_deviation <= 1e-6
        assert sol.logdet == pytest.approx(math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_rotated_diamond(self, seed):
        from johnellip import GeneratorSpec, generate

        inst = generate(GeneratorSpec("rotated-diamond", m=4, n=2, seed=seed))
        sol = oracle_solve(inst)
        assert np.allclose(sol.weights, DIAMOND_OPTIMUM, rtol=0.0, atol=1e-4)
        assert certify(inst, sol.weights, 1e-6).passed

    def test_gaussian_instance_beats_the_solver(self):
        inst = gaussian(50, 5, seed=3)
        sol = oracle_solve(inst, tol=1e-4)
        assert certify(inst, sol.weights, 1e-4).passed
        assert sol.support_deviation <= 1e-4 + 1e-9
        assert abs(sol.weights.sum() - 5.0) <= 1e-12 * 5.0
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.1))
        assert sol.logdet >= reference_logdet(inst.toarray(), w) - 1e-6

    def test_single_column_jumps_to_the_vertex(self):
        # With n == 1 the exact step toward the largest score is tau = 1: the
        # ascent puts all mass on that row in one step and stops there.
        sol = oracle_solve(build_instance([[1.0], [2.0], [-0.5]]))
        assert np.array_equal(sol.weights, [0.0, 1.0, 0.0])
        assert sol.iterations == 1
        assert sol.max_sigma == 1.0
        assert sol.support_deviation == 0.0
        assert sol.logdet == math.log(4.0)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_frozen_run(self, storage):
        # Recorded when each rank-one step still built new arrays and
        # re-symmetrized the inverse; the in-place step must keep every bit.
        # Both runs pass several refreshes (every 256 steps).
        if storage == "dense":
            inst = gaussian(300, 8, seed=3)
            sol = oracle_solve(inst)
            steps, logdet = 1109, "0x1.624ac127653ecp+4"
            expected = {13: "0x1.382120eda3a52p-4", 14: "0x1.a57e5a9059ba5p-4",
                        42: "0x1.52cb287db4fdfp-2"}
        else:
            inst = generate(GeneratorSpec("sparse-bernoulli", 400, 6, density=0.4, seed=1))
            assert inst._pairs is not None
            sol = oracle_solve(inst)
            steps, logdet = 589, "0x1.cc60e60a34df6p+3"
            expected = {53: "0x1.7967b6b83354dp-1", 86: "0x1.72ac506b93714p-3",
                        99: "0x1.d12fc2b088866p-2"}
        assert sol.iterations == steps
        assert sol.logdet.hex() == logdet
        assert {j: float(sol.weights[j]).hex() for j in expected} == expected

    def test_drifted_pivot_retries_from_a_fresh_state(self, monkeypatch):
        # The 5th row read comes back scaled by -1e6, so the rank-one pivot
        # of that step is negative: the step is undone, the state refreshed
        # from a new factorization and the row read again.  The run then
        # takes the same steps as an undisturbed one and lands next to it.
        inst = generate(parse_generator_spec("gaussian-dense:60x4:seed=1"))
        graded, row_dense = certification._graded, core.PolytopeInstance.row_dense
        refreshes, reads = [], []

        def counted(inst, w):
            refreshes.append(None)
            return graded(inst, w)

        def drifted(self, i):
            reads.append(i)
            row = row_dense(self, i)
            return -1e6 * row if len(reads) == 5 else row

        monkeypatch.setattr(certification, "_graded", counted)
        undisturbed = oracle_solve(inst)
        baseline = len(refreshes)
        refreshes.clear()
        monkeypatch.setattr(core.PolytopeInstance, "row_dense", drifted)
        sol = oracle_solve(inst)
        assert sol.iterations == undisturbed.iterations
        assert len(reads) == sol.iterations + 1
        assert reads[4] == reads[5]
        assert len(refreshes) == baseline + 1
        assert sol.support_deviation <= 1e-6
        assert np.allclose(sol.weights, undisturbed.weights, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tau", [-1.0, -0.5], ids=["past", "at"])
    def test_step_past_the_boundary_gains_minus_infinity(self, tau):
        # With d = 3, 1 + tau (d - 1) is -1 and 0: the step leaves M without a
        # positive determinant.
        for n in (1, 3):
            assert certification._step_gain(n, tau, 3.0) == -math.inf

    def test_no_convergence_reports_progress(self):
        inst = gaussian(200, 10, seed=0)
        with pytest.raises(NoConvergenceError) as info:
            oracle_solve(inst, tol=1e-6, max_iters=3)
        assert info.value.iterations == 3
        assert info.value.max_sigma > 1.0 + 1e-6
        assert str(info.value).startswith("no convergence after 3 iterations")

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": 1.0}, {"tol": -0.5}, {"max_iters": 0},
         {"tol": None}, {"tol": "1e-6"}, {"max_iters": True}],
    )
    def test_bad_arguments(self, diamond, kwargs):
        with pytest.raises(DomainError):
            oracle_solve(diamond, **kwargs)


class TestOneFactorizationPerWeightVector:
    """Each grade of a weight vector factors Q(w) once and forms one L^{-1}.

    Dense A scores through row blocks times ``L^{-T}``; CSR with sparse rows
    through the row-pair operator and ``Q^{-1}``.  Factorizations that only
    supply a logdet (the reference weights) form no inverse.
    """

    GRADES = {
        "certify": (lambda inst, w, ref: certify(inst, w, 0.2), 1, 1),
        "containment_check": (lambda inst, w, ref: containment_check(inst, w, 100), 1, 1),
        "duality_gap": (lambda inst, w, ref: duality_gap(inst, w), 1, 1),
        "duality_gap_with_oracle": (lambda inst, w, ref: duality_gap(inst, w, ref), 2, 1),
        "leverage_scores": (lambda inst, w, ref: leverage_scores(inst, w), 1, 1),
        "volume_ratio": (lambda inst, w, ref: volume_ratio(inst, w, ref.weights), 2, 1),
    }

    @staticmethod
    def instance(storage):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((120, 5))
        matrix[rng.random((120, 5)) < 0.5] = 0.0
        matrix[np.flatnonzero(~np.any(matrix != 0.0, axis=1)), 0] = 1.0
        inst = build_instance(matrix if storage == "dense" else sp.csr_array(matrix))
        assert (inst._pairs is not None) == (storage == "csr")
        return inst

    @staticmethod
    def count_kernel_calls(monkeypatch):
        counts = {"factorizations": 0, "inverses": 0}
        factor, inverse = certification.cholesky_of_weighted_gram, np.linalg.inv

        def counting_factor(*args):
            counts["factorizations"] += 1
            return factor(*args)

        def counting_inverse(*args):
            counts["inverses"] += 1
            return inverse(*args)

        # Grades factor through core's binding (core._graded), reference
        # logdets through certification's.
        monkeypatch.setattr(core, "cholesky_of_weighted_gram", counting_factor)
        monkeypatch.setattr(certification, "cholesky_of_weighted_gram", counting_factor)
        monkeypatch.setattr(np.linalg, "inv", counting_inverse)
        return counts

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("grade", sorted(GRADES))
    def test_grading_calls(self, storage, grade, monkeypatch):
        inst = self.instance(storage)
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.2))
        ref = oracle_solve(inst)
        call, factorizations, inverses = self.GRADES[grade]
        counts = self.count_kernel_calls(monkeypatch)
        call(inst, w, ref)
        assert counts == {"factorizations": factorizations, "inverses": inverses}

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_oracle_refreshes(self, storage, monkeypatch):
        inst = self.instance(storage)
        counts = self.count_kernel_calls(monkeypatch)
        oracle_solve(inst)
        assert counts["factorizations"] >= 2
        assert counts["inverses"] == counts["factorizations"]


def test_solvers_agree_with_reference_logdet():
    """Both solvers must land within their duality gap of the oracle."""
    inst = gaussian(100, 6, seed=1)
    star = oracle_solve(inst)
    exact, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.5))
    sketchy, _ = sketched_solve(inst, SketchConfig(epsilon=0.5, delta=0.1, seed=2))
    for w in (exact, sketchy):
        gap, shortfall = duality_gap(inst, w, star)
        assert -1e-12 <= shortfall <= gap + 1e-9
