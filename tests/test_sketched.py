"""The Gaussian-sketched solver.

Frozen expected values are tied to numpy's seeded PCG64 stream; the RNG
consumption order is part of the solver's documented contract.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import gaussian, peak_bytes, reference_scores
from johnellip import (
    DomainError,
    SketchConfig,
    build_instance,
    certify,
    default_sketch_iterations,
    default_sketch_rows,
    expected_row_sum_distribution_check,
    generate,
    leverage_scores,
    parse_generator_spec,
    sketched_solve,
)
from johnellip import core, fixed_point, sketched
from johnellip.sketched import _sketch_step


class TestDefaults:
    def test_sketch_rows(self):
        assert default_sketch_rows(0.5) == 160
        assert default_sketch_rows(0.1) == 800

    def test_iterations(self):
        assert default_sketch_iterations(100, 0.5, 0.1) == 139
        assert default_sketch_iterations(4, 0.5, 0.1) == 74
        # At eps = 0.5, delta = 0.1 the count reduces to ceil(20 log(10 m)).
        for m in (4, 100, 10_000):
            assert default_sketch_iterations(m, 0.5, 0.1) == math.ceil(
                20.0 * math.log(10.0 * m)
            )

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            default_sketch_rows(eps)
        with pytest.raises(DomainError):
            default_sketch_iterations(10, eps, 0.1)

    def test_bad_delta(self):
        with pytest.raises(DomainError):
            default_sketch_iterations(10, 0.5, 0.0)


class TestConfig:
    def test_defaults_resolved(self):
        config = SketchConfig(epsilon=0.5, delta=0.1)
        assert config.resolve_sketch_rows() == 160
        assert config.resolve_iterations(100) == 139

    def test_overrides_win(self):
        config = SketchConfig(epsilon=0.5, delta=0.1, sketch_rows=7, iterations=3)
        assert config.resolve_sketch_rows() == 7
        assert config.resolve_iterations(100) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "delta": 0.1},
            {"epsilon": 0.5, "delta": 1.0},
            {"epsilon": 0.5, "delta": 0.1, "seed": -1},
            {"epsilon": 0.5, "delta": 0.1, "seed": 1.5},
            {"epsilon": 0.5, "delta": 0.1, "sketch_rows": 0},
            {"epsilon": 0.5, "delta": 0.1, "iterations": 0},
            {"epsilon": 0.5, "delta": None},
            {"epsilon": "0.5", "delta": 0.1},
            {"epsilon": 0.5, "delta": 0.1, "sketch_rows": True},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(DomainError):
            SketchConfig(**kwargs)

    def test_numpy_integer_seed_accepted(self):
        # The same rule as certify's containment_seed, which accepts it too.
        inst = gaussian(50, 4, seed=0)
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=np.int64(3), iterations=3)
        v, _ = sketched_solve(inst, config)
        w, _ = sketched_solve(inst, SketchConfig(epsilon=0.5, delta=0.1, seed=3, iterations=3))
        assert np.array_equal(v, w)


class TestSolve:
    def test_mass_rescaled_exactly(self):
        inst = gaussian(50, 4, seed=0)
        v, _ = sketched_solve(inst, SketchConfig(epsilon=0.5, delta=0.1, seed=1))
        assert abs(v.sum() - 4.0) <= 1e-12 * 4.0
        assert np.all(v >= 0.0)

    def test_bitwise_reproducible(self):
        inst = gaussian(50, 4, seed=0)
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=3)
        first, _ = sketched_solve(inst, config)
        second, _ = sketched_solve(inst, config)
        assert np.array_equal(first, second)

    def test_seed_changes_output(self):
        inst = gaussian(50, 4, seed=0)
        a, _ = sketched_solve(inst, SketchConfig(epsilon=0.5, delta=0.1, seed=0))
        b, _ = sketched_solve(inst, SketchConfig(epsilon=0.5, delta=0.1, seed=1))
        assert not np.array_equal(a, b)

    def test_identity_frozen_run(self):
        inst = build_instance(np.eye(2))
        v, _ = sketched_solve(inst, SketchConfig(epsilon=0.5, delta=0.1, seed=42))
        assert abs(v.sum() - 2.0) <= 1e-12
        assert np.allclose(v, [0.97096595, 1.02903405], rtol=0.0, atol=1e-6)
        assert leverage_scores(inst, v).max() <= (1.0 + 0.5) ** 2
        assert certify(inst, v, (1.0 + 0.5) ** 2 - 1.0).passed

    def test_two_iterations_average_the_single_step(self, diamond):
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=6, iterations=2)
        v, _ = sketched_solve(diamond, config)
        w1 = np.full(4, 0.5)
        w2 = _sketch_step(diamond, w1, config.resolve_sketch_rows(), np.random.default_rng(6))
        averaged = (w1 + w2) / 2.0
        assert np.array_equal(v, averaged * (2.0 / averaged.sum()))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_frozen_weights(self, storage):
        # Recorded when each sweep still drew a fresh standard_normal((s, m));
        # drawing into one reused buffer must spend the stream the same way.
        matrix = gaussian(30, 3, seed=2).matrix
        expected = [
            "0x1.c8d5970565726p-6", "0x1.bd33393ef7edap-2",
            "0x1.fd661c0c62616p-6", "0x1.6689ad71976e0p-5",
        ]
        if storage == "csr":
            matrix = np.where(np.abs(matrix) < 0.5, 0.0, matrix)
            matrix[~np.any(matrix != 0.0, axis=1), 0] = 1.0
            matrix = sp.csr_array(matrix)
            expected = [
                "0x1.bc3e5eee6e456p-6", "0x1.bfcdd3d517563p-2",
                "0x1.f901ffd8d712bp-6", "0x1.488050d66130dp-5",
            ]
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=5, iterations=4)
        v, _ = sketched_solve(build_instance(matrix), config)
        assert [float(x).hex() for x in v[:4]] == expected

    @pytest.mark.parametrize(
        "spec, rows, expected",
        [
            # 4096 rows stream in 4 blocks of 1024 rows at 128 sketch rows.
            # Dense dimensions are multiples of 16: there the bits were the
            # same on one and two BLAS threads, which round some products of
            # other shapes differently.
            ("gaussian-dense:4096x16:seed=4", 128, [
                "0x1.2251e256e5101p-8", "0x1.21722f156a58fp-8",
                "0x1.14cd8fe01104bp-9", "0x1.6d094540204dfp-9",
            ]),
            # Rows of about 12 nonzeros: above the pair cut, so the CSR
            # row-block path, in 4 blocks of 819 rows at 160 sketch rows.
            ("sparse-bernoulli:3000x40:density=0.3:seed=4", None, [
                "0x1.9f9b19cca1230p-8", "0x1.3e912976c8402p-8",
                "0x1.401994aae17f8p-7", "0x1.7bb818ab4d55ep-8",
            ]),
        ],
    )
    def test_frozen_weights_across_row_blocks(self, spec, rows, expected):
        # Recorded when each sweep still formed its whole m x s image.
        inst = generate(parse_generator_spec(spec))
        if inst.is_sparse:
            assert inst._pairs is None
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=5, iterations=4, sketch_rows=rows)
        v, _ = sketched_solve(inst, config)
        assert [float(x).hex() for x in v[:4]] == expected

    def test_trace_records_exact_scores(self, diamond):
        config = SketchConfig(
            epsilon=0.5, delta=0.1, seed=0, iterations=4, record_history=True
        )
        _, trace = sketched_solve(diamond, config)
        assert len(trace) == 4
        assert trace.iterations == [1, 2, 3, 4]
        uniform = np.full(4, 0.5)
        assert trace.max_sigma[0] == leverage_scores(diamond, uniform).max()

    def test_trace_times_the_sketched_sweep(self, diamond, monkeypatch):
        # Rows 1..T-1 time _sketch_step from w^(k) and nothing else; the
        # final row times the trace-only exact evaluation of w^(T).
        original_step, original_scores = sketched._sketch_step, fixed_point.leverage_scores

        def slow_step(*args):
            time.sleep(0.02)
            return original_step(*args)

        def slow_scores(*args):
            time.sleep(0.2)
            return original_scores(*args)

        monkeypatch.setattr(sketched, "_sketch_step", slow_step)
        monkeypatch.setattr(fixed_point, "leverage_scores", slow_scores)
        config = SketchConfig(epsilon=0.5, delta=0.1, iterations=3, record_history=True)
        _, trace = sketched_solve(diamond, config)
        assert len(trace) == 3
        assert all(20.0 <= ms < 200.0 for ms in trace.wall_ms[:2])
        assert trace.wall_ms[2] >= 200.0

    def test_trace_empty_without_history(self, diamond):
        _, trace = sketched_solve(diamond, SketchConfig(epsilon=0.5, delta=0.1, iterations=3))
        assert len(trace) == 0


class TestSingleStep:
    def test_unbiased_over_seeds(self, diamond):
        uniform = np.full(4, 0.5)
        exact = uniform * reference_scores(diamond.toarray(), uniform)
        draws = np.empty((2000, 4))
        for k in range(2000):
            draws[k] = _sketch_step(diamond, uniform, 16, np.random.default_rng(k))
        errors = np.abs(draws.mean(axis=0) - exact)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(2000)
        assert np.all(errors <= 4.0 * stderr)

    def test_image_is_streamed_not_formed(self):
        # The whole 20000 x 160 image would take 24.4 MiB; the draw goes into
        # the buffer passed in, so one sweep needs a row block and O(s n).
        inst = gaussian(20000, 20, seed=0)
        w = np.full(inst.m, 20 / inst.m)
        buffer = np.empty((160, inst.m))
        estimate, peak = peak_bytes(
            lambda: _sketch_step(inst, w, 160, np.random.default_rng(0), buffer)
        )
        assert estimate.shape == (inst.m,)
        assert peak < 4 * 2**20

    def test_csr_draw_is_not_copied(self):
        # scipy's whole S @ A copies the 160 x 17637 draw (21.6 MiB peak);
        # core._left_product copies 16 of its rows at a time (2.2 MiB).
        inst = generate(parse_generator_spec("sparse-bernoulli:20000x20:density=0.1"))
        assert inst.is_sparse
        w = np.full(inst.m, inst.n / inst.m)
        buffer = np.empty((160, inst.m))
        _, peak = peak_bytes(lambda: _sketch_step(inst, w, 160, np.random.default_rng(0), buffer))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 37, 160])
    def test_csr_left_product_matches_scipy_bitwise(self, rows):
        # Chunks of 16 rows, the last one ragged unless rows is a multiple
        # of 16: every entry is scipy's sum in scipy's order and layout.
        inst = generate(parse_generator_spec("sparse-bernoulli:3000x20:density=0.2:seed=3"))
        left = np.random.default_rng(rows).standard_normal((rows, inst.m))
        expected = left @ inst.matrix
        product = core._left_product(inst, left)
        assert np.array_equal(product, expected)
        assert product.flags.f_contiguous == expected.flags.f_contiguous

    def test_error_shrinks_with_sketch_size(self, diamond):
        uniform = np.full(4, 0.5)
        exact = uniform * reference_scores(diamond.toarray(), uniform)
        errors = {}
        for rows in (100, 10_000):
            approx = _sketch_step(diamond, uniform, rows, np.random.default_rng(5))
            errors[rows] = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert errors[100] <= 0.05
        assert errors[10_000] <= 0.015
        assert errors[10_000] < errors[100] / 2.0


class TestRowSumDistribution:
    def test_identity_reference_band(self):
        inst = build_instance(np.eye(4))
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=0, sketch_rows=80)
        check = expected_row_sum_distribution_check(inst, config, trials=1000)
        assert check.band == 3.0 * math.sqrt(2.0 * 4 / (80 * 1000))
        assert check.band == pytest.approx(0.03)
        assert check.expected_mean == 4.0
        assert check.expected_variance == pytest.approx(0.1)
        assert check.within_band
        assert check.sample_mean == pytest.approx(4.004274459581967, abs=1e-9)
        assert abs(check.sample_variance - 0.1) <= 0.02

    def test_large_sketch_tightens_the_mean(self, diamond):
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=1, sketch_rows=10_000)
        check = expected_row_sum_distribution_check(diamond, config, trials=100)
        assert abs(check.sample_mean - 2.0) <= 0.01 * 2.0

    def test_single_trial_accepted(self, diamond):
        config = SketchConfig(epsilon=0.5, delta=0.1, seed=0, sketch_rows=1)
        check = expected_row_sum_distribution_check(diamond, config, trials=1)
        assert check.trials == 1 and check.sample_mean >= 0.0

    def test_zero_trials_rejected(self, diamond):
        with pytest.raises(DomainError):
            expected_row_sum_distribution_check(
                diamond, SketchConfig(epsilon=0.5, delta=0.1), trials=0
            )
