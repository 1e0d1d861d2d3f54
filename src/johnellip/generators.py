"""Seeded instance generators for tests, benchmarks and the CLI.

Families:

* ``identity-cube``     the unit cube, ``A = I_n``
* ``scaled-cube``       ``A = scale * I_n``
* ``rotated-diamond``   the four rows (1,0), (0,1), (1,1), (1,-1) under a
                        seeded random plane rotation (n = 2, m = 4)
* ``gaussian-dense``    i.i.d. standard normal entries
* ``sparse-bernoulli``  each entry nonzero with probability ``density``,
                        nonzeros standard normal, stored CSR; rows that come
                        out empty impose no constraint and are dropped, so the
                        result can have fewer than ``m`` rows

Generation is deterministic per seed.  Random families retry with further
draws from the same stream when a draw fails validation (zero row, rank
loss, or too few surviving rows) and raise :class:`GenerationFailedError`
after 10 attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import PolytopeInstance, _adopt
from .errors import (
    DomainError,
    GenerationFailedError,
    RankDeficientError,
    ZeroRowError,
    check_count,
    check_positive,
    check_real,
)

__all__ = ["GeneratorSpec", "FAMILIES", "generate", "parse_generator_spec"]

FAMILIES = (
    "identity-cube",
    "scaled-cube",
    "rotated-diamond",
    "gaussian-dense",
    "sparse-bernoulli",
)

_DIAMOND_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
_MAX_ATTEMPTS = 10


@dataclass(frozen=True)
class GeneratorSpec:
    """One generated instance: family, shape, and family-specific knobs."""

    family: str
    m: int
    n: int
    density: float = 0.05
    seed: int = 0
    scale: float = 2.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        check_count("m", self.m, minimum=None)
        check_count("n", self.n, minimum=None)
        check_real("density", self.density)
        check_real("scale", self.scale)
        if self.n < 1 or self.m < self.n:
            raise DomainError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if self.family in ("identity-cube", "scaled-cube") and self.m != self.n:
            raise DomainError(f"{self.family} requires m == n")
        if self.family == "rotated-diamond" and (self.m, self.n) != (4, 2):
            raise DomainError("rotated-diamond is fixed at m=4, n=2")
        if self.family == "sparse-bernoulli" and not 0.0 < self.density <= 1.0:
            raise DomainError(f"density must lie in (0, 1], got {self.density!r}")
        if self.family == "scaled-cube":
            check_positive("scale", self.scale)
        check_count("seed", self.seed, minimum=0)


def generate(spec: GeneratorSpec) -> PolytopeInstance:
    """Materialize the instance a spec describes.

    Each drawn matrix becomes the instance as it is, without a copy.
    """
    if spec.family == "identity-cube":
        return _adopt(np.eye(spec.n))
    if spec.family == "scaled-cube":
        return _adopt(spec.scale * np.eye(spec.n))

    rng = np.random.default_rng(spec.seed)
    if spec.family == "rotated-diamond":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rotation = np.array([[c, -s], [s, c]])
        return _adopt(_DIAMOND_ROWS @ rotation.T)

    for _ in range(_MAX_ATTEMPTS):
        try:
            if spec.family == "gaussian-dense":
                return _adopt(rng.standard_normal((spec.m, spec.n)))
            mask = rng.random((spec.m, spec.n)) < spec.density
            values = np.where(mask, rng.standard_normal((spec.m, spec.n)), 0.0)
            kept = values[mask.any(axis=1)]
            if kept.shape[0] < spec.n:
                continue
            return _adopt(sp.csr_array(kept))
        except (RankDeficientError, ZeroRowError):
            continue
    raise GenerationFailedError(
        f"{spec.family} with m={spec.m}, n={spec.n}, seed={spec.seed} kept "
        f"failing validation after {_MAX_ATTEMPTS} attempts"
    )


def parse_generator_spec(text: str, default_seed: int = 0) -> GeneratorSpec:
    """Parse the CLI grammar ``family[:DIMS][:key=value...]``.

    ``DIMS`` is ``N`` (square families) or ``MxN``.  Recognized keys are
    ``seed``, ``density`` and ``scale``; a seed given here wins over
    ``default_seed``.  Examples: ``identity-cube:5``,
    ``gaussian-dense:200x10:seed=7``,
    ``sparse-bernoulli:10000x20:density=0.01:seed=1``,
    ``rotated-diamond:seed=3``.
    """
    parts = text.split(":")
    family = parts[0]
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; choose from {FAMILIES}")

    fields: dict = {"seed": default_seed}
    rest = parts[1:]
    if rest and "=" not in rest[0]:
        dims = rest.pop(0)
        if "x" in dims:
            m_text, _, n_text = dims.partition("x")
            try:
                fields["m"], fields["n"] = int(m_text), int(n_text)
            except ValueError:
                raise DomainError(f"bad dimensions {dims!r} (want MxN)") from None
        else:
            try:
                fields["m"] = fields["n"] = int(dims)
            except ValueError:
                raise DomainError(f"bad dimensions {dims!r} (want N or MxN)") from None

    converters = {"seed": int, "density": float, "scale": float}
    for item in rest:
        key, sep, value = item.partition("=")
        if not sep:
            raise DomainError(f"bad option {item!r} (want key=value)")
        if key not in converters:
            raise DomainError(f"unknown option {key!r} (seed, density, scale)")
        try:
            fields[key] = converters[key](value)
        except ValueError:
            raise DomainError(f"bad value for {key!r}: {value!r}") from None

    if family == "rotated-diamond":
        fields.setdefault("m", 4)
        fields.setdefault("n", 2)
    if "m" not in fields:
        raise DomainError(f"{family} needs dimensions, e.g. {family}:200x10")
    return GeneratorSpec(family=family, **fields)
