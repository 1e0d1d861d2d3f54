"""Instance generators and the CLI spec grammar."""

import math

import numpy as np
import pytest

from conftest import DIAMOND_ROWS, peak_bytes
from johnellip import (
    FAMILIES,
    DomainError,
    GenerationFailedError,
    GeneratorSpec,
    RankDeficientError,
    generate,
    generators,
    parse_generator_spec,
)
from johnellip.core import _adopt


class TestDeterministicFamilies:
    def test_identity_cube(self):
        inst = generate(GeneratorSpec("identity-cube", m=5, n=5))
        assert np.array_equal(inst.matrix, np.eye(5))

    def test_scaled_cube(self):
        inst = generate(GeneratorSpec("scaled-cube", m=3, n=3, scale=0.25))
        assert np.array_equal(inst.matrix, 0.25 * np.eye(3))

    def test_rotated_diamond_preserves_geometry(self):
        inst = generate(GeneratorSpec("rotated-diamond", m=4, n=2, seed=3))
        base = np.asarray(DIAMOND_ROWS, dtype=float)
        # Rotation preserves row norms and every linear relation among rows.
        assert np.allclose(
            np.linalg.norm(inst.matrix, axis=1), np.linalg.norm(base, axis=1)
        )
        # rows 2 and 3 are (row0 + row1) and (row0 - row1)
        assert np.allclose(inst.matrix[2], inst.matrix[0] + inst.matrix[1], atol=1e-12)
        assert np.allclose(inst.matrix[3], inst.matrix[0] - inst.matrix[1], atol=1e-12)
        assert not np.allclose(inst.matrix, base)  # seed 3 actually rotates

    def test_rotation_is_orthogonal(self):
        inst = generate(GeneratorSpec("rotated-diamond", m=4, n=2, seed=9))
        base = np.asarray(DIAMOND_ROWS, dtype=float)
        rotation = np.linalg.lstsq(base, inst.matrix, rcond=None)[0]
        assert np.allclose(rotation @ rotation.T, np.eye(2), atol=1e-12)


class TestRandomFamilies:
    def test_gaussian_dense_deterministic(self):
        spec = GeneratorSpec("gaussian-dense", m=40, n=6, seed=7)
        first = generate(spec)
        second = generate(spec)
        assert np.array_equal(first.matrix, second.matrix)
        assert first.matrix.shape == (40, 6)
        assert not first.is_sparse

    def test_gaussian_seeds_differ(self):
        a = generate(GeneratorSpec("gaussian-dense", m=40, n=6, seed=0))
        b = generate(GeneratorSpec("gaussian-dense", m=40, n=6, seed=1))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_sparse_bernoulli_large(self):
        spec = GeneratorSpec("sparse-bernoulli", m=10_000, n=20, density=0.01, seed=1)
        inst = generate(spec)
        assert inst.is_sparse
        # Empty rows are dropped, so fewer rows than requested survive, but
        # every survivor is nonempty by construction.
        assert 20 <= inst.m < 10_000
        assert inst.matrix.shape == (inst.m, 20)
        assert np.all(np.diff(inst.matrix.indptr) > 0)
        # nnz ~ Binomial(200_000, 0.01): keep within three standard deviations.
        expected = 10_000 * 20 * 0.01
        spread = 3.0 * np.sqrt(expected * (1.0 - 0.01))
        assert abs(inst.matrix.nnz - expected) <= spread

    def test_drawn_matrix_becomes_the_instance(self):
        # The draw is validated and locked in place: one m x n array, plus
        # the zero-row check's m results (1.015x measured).  Copying the
        # draw would peak above 2x, an m x n mask at 1.13x.
        inst, peak = peak_bytes(
            lambda: generate(GeneratorSpec("gaussian-dense", m=20000, n=50, seed=0))
        )
        assert peak < 1.05 * inst.matrix.nbytes
        assert inst.matrix.flags.c_contiguous and not inst.matrix.flags.writeable

    @pytest.mark.parametrize(
        "text", ["identity-cube:3", "rotated-diamond", "sparse-bernoulli:200x5:density=0.3"]
    )
    def test_buffers_locked(self, text):
        inst = generate(parse_generator_spec(text))
        a = inst.matrix
        buffers = (a.data, a.indices, a.indptr) if inst.is_sparse else (a,)
        assert not any(buf.flags.writeable for buf in buffers)

    def test_sparse_bernoulli_deterministic(self):
        spec = GeneratorSpec("sparse-bernoulli", m=500, n=8, density=0.05, seed=4)
        first = generate(spec)
        second = generate(spec)
        assert first.m == second.m
        assert np.array_equal(first.matrix.indptr, second.matrix.indptr)
        assert np.array_equal(first.matrix.indices, second.matrix.indices)
        assert np.array_equal(first.matrix.data, second.matrix.data)

    def test_rank_loss_retries_with_the_next_draw(self, monkeypatch):
        # This seed's first draw keeps 5 nonempty rows of rank 3; the second
        # keeps 8 of rank 4 and builds.  The retry reads on from the same
        # stream, so a second generate repeats both draws and the matrix.
        adopted = []

        def adopt(a):
            try:
                inst = _adopt(a)
            except RankDeficientError:
                adopted.append("rank loss")
                raise
            adopted.append("built")
            return inst

        monkeypatch.setattr(generators, "_adopt", adopt)
        spec = parse_generator_spec("sparse-bernoulli:12x4:density=0.2:seed=2")
        first = generate(spec)
        assert adopted == ["rank loss", "built"]
        second = generate(spec)
        assert adopted == ["rank loss", "built"] * 2
        assert (first.m, first.n) == (second.m, second.n)
        assert np.array_equal(first.matrix.indptr, second.matrix.indptr)
        assert np.array_equal(first.matrix.indices, second.matrix.indices)
        assert np.array_equal(first.matrix.data, second.matrix.data)

    def test_sparse_bernoulli_gives_up(self):
        # 5x3 at density 0.01 cannot plausibly keep 3 nonempty rows of rank 3
        # within the retry budget.
        spec = GeneratorSpec("sparse-bernoulli", m=5, n=3, density=0.01, seed=0)
        with pytest.raises(GenerationFailedError, match="after 10 attempts"):
            generate(spec)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "no-such-family", "m": 4, "n": 2},
            {"family": "gaussian-dense", "m": 3, "n": 4},
            {"family": "gaussian-dense", "m": 4, "n": 0},
            {"family": "identity-cube", "m": 4, "n": 2},
            {"family": "rotated-diamond", "m": 5, "n": 2},
            {"family": "sparse-bernoulli", "m": 10, "n": 2, "density": 0.0},
            {"family": "sparse-bernoulli", "m": 10, "n": 2, "density": 1.5},
            {"family": "scaled-cube", "m": 3, "n": 3, "scale": 0.0},
            {"family": "gaussian-dense", "m": 4, "n": 2, "seed": -1},
            {"family": "gaussian-dense", "m": "60", "n": 3},
            {"family": "scaled-cube", "m": 3, "n": 3, "scale": math.inf},
            {"family": "scaled-cube", "m": 3, "n": 3, "scale": math.nan},
            {"family": "scaled-cube", "m": 3, "n": 3, "scale": "2"},
            {"family": "sparse-bernoulli", "m": 10, "n": 2, "density": "0.5"},
        ],
    )
    def test_rejected(self, kwargs):
        # At construction, not later as a TypeError or a non-finite matrix
        # inside generate.
        with pytest.raises(DomainError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"m": 4, "n": 0}, "need m >= n >= 1, got m=4, n=0"),
            ({"m": 60.5, "n": 3}, "m must be an integer, got 60.5"),
            ({"m": 4, "n": True}, "n must be an integer, got True"),
        ],
    )
    def test_shape_messages(self, kwargs, message):
        with pytest.raises(DomainError) as info:
            GeneratorSpec("gaussian-dense", **kwargs)
        assert str(info.value) == message

    def test_fractional_seed_rejected_at_construction(self):
        # Not later, as numpy's TypeError from default_rng inside generate.
        with pytest.raises(DomainError, match="seed must be an integer"):
            GeneratorSpec("gaussian-dense", 10, 2, seed=1.5)

    def test_density_one_allowed(self):
        inst = generate(GeneratorSpec("sparse-bernoulli", m=12, n=3, density=1.0, seed=0))
        assert inst.m == 12 and inst.matrix.nnz == 36


class TestParseGrammar:
    def test_square_dims(self):
        spec = parse_generator_spec("identity-cube:5")
        assert spec == GeneratorSpec("identity-cube", m=5, n=5)

    def test_rectangular_dims_with_seed(self):
        spec = parse_generator_spec("gaussian-dense:200x10:seed=7")
        assert spec == GeneratorSpec("gaussian-dense", m=200, n=10, seed=7)

    def test_all_options(self):
        spec = parse_generator_spec("sparse-bernoulli:10000x20:density=0.01:seed=1")
        assert spec == GeneratorSpec(
            "sparse-bernoulli", m=10_000, n=20, density=0.01, seed=1
        )

    def test_scale_option(self):
        spec = parse_generator_spec("scaled-cube:3:scale=0.5")
        assert spec == GeneratorSpec("scaled-cube", m=3, n=3, scale=0.5)

    def test_rotated_diamond_needs_no_dims(self):
        spec = parse_generator_spec("rotated-diamond:seed=3")
        assert spec == GeneratorSpec("rotated-diamond", m=4, n=2, seed=3)

    def test_default_seed_flows_through(self):
        assert parse_generator_spec("gaussian-dense:30x4", default_seed=9).seed == 9

    def test_explicit_seed_beats_default(self):
        spec = parse_generator_spec("gaussian-dense:30x4:seed=2", default_seed=9)
        assert spec.seed == 2

    @pytest.mark.parametrize(
        ("text", "fragment"),
        [
            ("mystery-family:4x2", "unknown family"),
            ("gaussian-dense:axb", "bad dimensions"),
            ("identity-cube:big", "bad dimensions"),
            ("gaussian-dense:4x2:seed", "bad option"),
            ("gaussian-dense:4x2:color=red", "unknown option"),
            ("gaussian-dense:4x2:seed=soon", "bad value for 'seed'"),
            ("gaussian-dense", "needs dimensions"),
        ],
    )
    def test_rejected(self, text, fragment):
        with pytest.raises(DomainError, match=fragment):
            parse_generator_spec(text)

    def test_families_constant_is_exhaustive(self):
        for family in FAMILIES:
            text = {"rotated-diamond": family, "sparse-bernoulli": f"{family}:60x4"}.get(
                family, f"{family}:4" if "cube" in family else f"{family}:12x3"
            )
            generate(parse_generator_spec(text))
