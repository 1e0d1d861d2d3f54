"""The memory contract of README "Memory", one cell per command and storage,
and one ``certify`` cell on dense rows that containment walks by l1 norm.

Each bound is the contract's formula: what a call may hold beyond ``A``, the
row-pair operator ``P`` (built before the measurement) and the sketched
solver's ``s x m`` draw.  That is one scratch block of ``_BLOCK_ELEMENTS``
floats (two for containment, which gathers rows in norm order), a few
``m``-float iterate and accumulator arrays, and ``O(n^2 + n * samples)``.
The one exception is the Gram of CSR whose rows are too dense for ``P``,
which builds ``sqrt(W) A`` and ``B^T B`` every sweep: about twice ``A``.
"""

import numpy as np
import pytest

from conftest import peak_bytes
from johnellip import (
    FixedPointConfig,
    SketchConfig,
    build_instance,
    certify,
    fixed_point_solve,
    generate,
    parse_generator_spec,
    read_matrix_market,
    sketched_solve,
    write_matrix_market,
)
from johnellip import core

BLOCK = 8 * core._BLOCK_ELEMENTS
M_FLOATS = 8  # iterates, scores and accumulators, each m float64
SKETCH_ROWS = 40
SAMPLES = 1000

STORAGES = {
    "dense": "gaussian-dense:10000x20",
    "csr-pairs": "sparse-bernoulli:20000x20:density=0.1",
    "csr-above-cut": "sparse-bernoulli:20000x40:density=0.3",
}


def matrix_bytes(inst):
    a = inst.matrix
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes if inst.is_sparse else a.nbytes


def contract(command, inst):
    """The bytes ``command`` may allocate once ``A`` and ``P`` exist."""
    m, n = inst.m, inst.n
    if command == "read":
        # The array layout is parsed column by column and copied once into
        # row-major order, so reading it holds about one more A.
        return 1.1 * matrix_bytes(inst)
    bound = BLOCK + 8 * (M_FLOATS * m + 8 * n * n)
    if command == "certify":
        # A second block for rows gathered in norm order, and the directions.
        bound += BLOCK + 8 * 4 * n * SAMPLES
    if command == "sketched":
        # sketched_solve allocates its draw; on CSR each product copies rows of it.
        rows = min(SKETCH_ROWS, core._LEFT_CHUNK_ROWS) if inst.is_sparse else 0
        bound += 8 * (SKETCH_ROWS + rows) * m
    if inst.is_sparse and inst._pairs is None:
        bound += 2 * matrix_bytes(inst)
    return bound


COMMANDS = {
    "solve": lambda inst: fixed_point_solve(inst, FixedPointConfig(0.5, iterations=5)),
    "sketched": lambda inst: sketched_solve(
        inst, SketchConfig(0.5, 0.1, iterations=3, sketch_rows=SKETCH_ROWS)
    ),
    "certify": lambda inst: certify(
        inst, np.full(inst.m, inst.n / inst.m), 0.5, containment_samples=SAMPLES
    ),
}
CELLS = [(command, storage) for command in COMMANDS for storage in STORAGES]


@pytest.mark.parametrize("command, storage", CELLS + [("read", "dense")])
def test_command_keeps_the_contract(command, storage, tmp_path):
    inst = generate(parse_generator_spec(STORAGES[storage]))
    assert (inst._pairs is not None) == (storage == "csr-pairs")  # P is built here
    if command == "read":
        path = tmp_path / "a.mtx"
        write_matrix_market(path, inst)
        back, peak = peak_bytes(lambda: read_matrix_market(path))
        assert np.array_equal(back.matrix, inst.matrix)
        peak -= matrix_bytes(back)  # the instance read is A itself
    else:
        _, peak = peak_bytes(lambda: COMMANDS[command](inst))
    bound = contract(command, inst)
    assert peak <= bound, f"{peak / 2**20:.2f} MiB, contract {bound / 2**20:.2f} MiB"


def test_certify_in_holder_order_keeps_the_contract(monkeypatch):
    # Dense rows with one dominant coordinate and norms spread over 100x:
    # the probe picks norm order, whose l1 norms of dense rows are taken a
    # block at a time: 2.1 MiB against a bound of 4.5 MiB, which an m x n
    # temporary (6.1 MiB) breaks.
    rng = np.random.default_rng(0)
    m, n = 20000, 40
    dense = 0.01 * rng.standard_normal((m, n))
    dense[np.arange(m), rng.integers(0, n, m)] += 1.0
    dense *= np.logspace(-1, 1, m)[rng.permutation(m), None]
    inst = build_instance(dense)
    walks = []
    l1_norms = core._l1_norms

    def recording(inst):
        walks.append(inst.m)
        return l1_norms(inst)

    monkeypatch.setattr(core, "_l1_norms", recording)
    _, peak = peak_bytes(lambda: COMMANDS["certify"](inst))
    assert walks == [m]  # the walk in l1 order ran
    bound = contract("certify", inst)
    assert peak <= bound, f"{peak / 2**20:.2f} MiB, contract {bound / 2**20:.2f} MiB"
