"""The averaged fixed-point solver."""

import json
import math

import numpy as np
import pytest

from conftest import DIAMOND_ROWS, gaussian, reference_scores
from johnellip import (
    TRACE_HEADER,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    RunRequest,
    build_instance,
    certify,
    default_iterations,
    fixed_point_solve,
    generate,
    leverage_scores,
    parse_generator_spec,
    run,
)
from johnellip import core


def reference_average(matrix, total):
    """The same recurrence written independently with explicit inverses."""
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    w = np.full(m, n / m)
    accum = w.copy()
    for _ in range(total - 1):
        w = w * reference_scores(matrix, w)
        accum += w
    return accum / total


class TestDefaultIterations:
    def test_reference_shape(self):
        assert default_iterations(200, 10, 0.1) == 60

    def test_square_instance_clamps_to_one(self):
        assert default_iterations(7, 7, 0.3) == 1
        assert default_iterations(5, 5, 0.9) == 1

    def test_near_half_epsilon(self):
        # m/n = e up to rounding, so the count is ceil(2/eps) = 5.
        assert default_iterations(2718281828, 1000000000, 0.5 - 1e-9) == 5

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(DomainError):
            default_iterations(10, 2, eps)


class TestConfig:
    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5])
    def test_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            FixedPointConfig(epsilon=eps)

    @pytest.mark.parametrize("eps", ["0.1", None, True, np.array([0.1])])
    def test_non_real_epsilon(self, eps):
        # A DomainError, not a TypeError from the comparison.
        with pytest.raises(DomainError, match="epsilon must be a real number"):
            FixedPointConfig(epsilon=eps)

    def test_bad_iterations(self):
        with pytest.raises(DomainError):
            FixedPointConfig(epsilon=0.1, iterations=0)

    def test_bool_iterations_rejected(self):
        with pytest.raises(DomainError, match="iterations must be an integer"):
            FixedPointConfig(epsilon=0.1, iterations=True)

    def test_resolution(self):
        assert FixedPointConfig(epsilon=0.1).resolve_iterations(200, 10) == 60
        assert FixedPointConfig(epsilon=0.1, iterations=7).resolve_iterations(200, 10) == 7


class TestAnalyticFixedPoints:
    @pytest.mark.parametrize("total", [1, 3, 17])
    @pytest.mark.parametrize("scale", [1.0, 2.0, 0.25])
    def test_cube_returns_all_ones(self, total, scale):
        inst = build_instance(scale * np.eye(5))
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.5, iterations=total))
        assert np.array_equal(w, np.ones(5))
        assert np.abs(leverage_scores(inst, w) - 1.0).max() <= 1e-12

    def test_uniform_start_is_preserved_at_a_fixed_point(self):
        inst = build_instance(np.eye(4))
        w = np.ones(4)
        assert np.array_equal(w * leverage_scores(inst, w), w)

    def test_diamond_optimum_is_a_fixed_point(self, diamond):
        w = np.array([0.0, 0.0, 1.0, 1.0])
        stepped = w * leverage_scores(diamond, w)
        assert np.allclose(stepped, w, rtol=0.0, atol=1e-15)


class TestDiamondSolve:
    def test_matches_independent_recurrence(self, diamond):
        w, _ = fixed_point_solve(diamond, FixedPointConfig(epsilon=0.1))
        expected = reference_average(DIAMOND_ROWS, default_iterations(4, 2, 0.1))
        assert np.allclose(w, expected, rtol=1e-12, atol=1e-15)

    def test_frozen_values(self, diamond):
        w, _ = fixed_point_solve(diamond, FixedPointConfig(epsilon=0.1))
        assert np.allclose(
            w, [0.09031269, 0.09031269, 0.90968731, 0.90968731], rtol=0.0, atol=1e-6
        )

    def test_meets_guarantee(self, diamond):
        w, _ = fixed_point_solve(diamond, FixedPointConfig(epsilon=0.1))
        assert leverage_scores(diamond, w).max() <= 1.1
        assert abs(w.sum() - 2.0) <= 1e-8 * 2.0
        gram = DIAMOND_ROWS.T @ (DIAMOND_ROWS * w[:, None])
        assert np.all(np.abs(gram - 2.0 * np.eye(2)) <= 0.15 * 2.0)


def test_matches_independent_recurrence_on_random_instance():
    inst = gaussian(30, 4, seed=9)
    w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.3))
    expected = reference_average(inst.toarray(), default_iterations(30, 4, 0.3))
    assert np.allclose(w, expected, rtol=1e-11, atol=1e-14)


def test_matches_independent_recurrence_across_row_blocks():
    # Three full blocks of the streamed dense kernel plus a ragged tail.
    n = 20
    m = 3 * (core._BLOCK_ELEMENTS // n) + 77
    inst = gaussian(m, n, seed=4)
    config = FixedPointConfig(epsilon=0.3, iterations=12)
    w, _ = fixed_point_solve(inst, config)
    expected = reference_average(inst.toarray(), 12)
    assert np.allclose(w, expected, rtol=1e-11, atol=0.0)
    again, _ = fixed_point_solve(inst, config)
    assert np.array_equal(w, again)


def test_iterates_conserve_mass_and_stay_bounded():
    inst = gaussian(60, 4, seed=2)
    w = np.full(60, 4 / 60)
    for k in range(1, 30):
        assert abs(w.sum() - 4.0) <= 1e-8 * 4.0
        if k >= 2:
            assert np.all(w >= 0.0) and np.all(w <= 1.0 + 1e-10)
        w = w * leverage_scores(inst, w)


def test_bound_on_scores_of_average():
    for eps in (0.5, 0.1):
        inst = gaussian(200, 10, seed=1)
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=eps))
        total = default_iterations(200, 10, eps)
        bound = math.log(200 / 10) / total + 1e-9
        assert np.log(leverage_scores(inst, w)).max() <= bound


@pytest.mark.parametrize(
    "spec,total",
    [
        (GeneratorSpec("gaussian-dense", 400, 10, seed=0), 5000),
        # CSR with 1943 nonempty rows.
        (GeneratorSpec("sparse-bernoulli", 2000, 10, seed=1, density=0.3), 3000),
    ],
    ids=["dense", "csr"],
)
def test_long_runs_keep_the_uniform_start_in_the_average(spec, total):
    # Rows off the support decay geometrically, but the accumulator only adds
    # nonnegative iterates to the uniform start, so min(w) >= (n/m)/T exactly.
    inst = generate(spec)
    w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.1, iterations=total))
    assert w.min() >= (inst.n / inst.m) / total
    report = certify(inst, w, 0.1)
    assert report.passed
    assert report.containment_inner_pass and report.containment_outer_pass


def test_deterministic():
    inst = gaussian(40, 5, seed=8)
    config = FixedPointConfig(epsilon=0.2)
    first, _ = fixed_point_solve(inst, config)
    second, _ = fixed_point_solve(inst, config)
    assert np.array_equal(first, second)


class TestTrace:
    def test_disabled_by_default(self, diamond):
        _, trace = fixed_point_solve(diamond, FixedPointConfig(epsilon=0.1))
        assert len(trace) == 0

    def test_records_every_iterate(self, diamond):
        total = default_iterations(4, 2, 0.1)
        _, trace = fixed_point_solve(
            diamond, FixedPointConfig(epsilon=0.1, record_history=True)
        )
        assert len(trace) == total
        assert trace.iterations == list(range(1, total + 1))
        assert all(abs(s - 2.0) <= 1e-8 * 2.0 for s in trace.weight_sum)
        assert all(wall >= 0.0 for wall in trace.wall_ms)

    def test_trace_rows_match_manual_iteration(self, diamond):
        _, trace = fixed_point_solve(
            diamond, FixedPointConfig(epsilon=0.1, iterations=5, record_history=True)
        )
        w = np.full(4, 2 / 4)
        for k in range(5):
            sigma = leverage_scores(diamond, w)
            assert trace.max_sigma[k] == sigma.max()
            assert trace.weight_sum[k] == w.sum()
            w = w * sigma


class TestDeadRows:
    """Weights that underflow: at 400 sweeps, the last iterate of this
    instance has 33 weights that are exactly 0 and 7 subnormal ones."""

    SPEC = "gaussian-dense:200x5:seed=1"

    @pytest.fixture(scope="class")
    def inst(self):
        return generate(parse_generator_spec(self.SPEC))

    @pytest.fixture(scope="class")
    def last(self, inst):
        w = np.full(inst.m, inst.n / inst.m)
        for _ in range(399):
            w = w * leverage_scores(inst, w)
        return w

    def test_last_iterate_has_dead_and_subnormal_weights(self, last):
        assert np.count_nonzero(last == 0.0) == 33
        assert np.count_nonzero((last > 0.0) & (last < np.finfo(float).tiny)) == 7

    def test_average_certifies(self, inst):
        w, _ = fixed_point_solve(inst, FixedPointConfig(epsilon=0.1, iterations=400))
        report = certify(inst, w, 0.1)
        assert report.passed
        assert report.containment_inner_pass and report.containment_outer_pass
        assert math.isclose(report.max_sigma, 1.0064449945754321, rel_tol=1e-12)

    def test_csv_trace_is_finite(self, tmp_path):
        out = tmp_path / "trace.csv"
        request = RunRequest(
            command="solve", generator=self.SPEC, iterations=400, fmt="csv", out_path=str(out)
        )
        assert run(request) == 0
        header, *rows = out.read_text().splitlines()
        assert header == TRACE_HEADER and len(rows) == 400
        assert np.all(np.isfinite(np.array([row.split(",") for row in rows], dtype=float)))

    def test_verify_accepts_the_last_iterate(self, last, tmp_path):
        weights = tmp_path / "last.json"
        weights.write_text(json.dumps(last.tolist()))
        assert json.loads(weights.read_text()) == last.tolist()
        request = RunRequest(
            command="verify", generator=self.SPEC, weights_path=str(weights),
            out_path=str(tmp_path / "report.json"),
        )
        assert run(request) == 0
