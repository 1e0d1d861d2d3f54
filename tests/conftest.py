"""Shared fixtures and reference implementations.

The reference helpers here deliberately use explicit matrix inverses and
LU-based determinants (``numpy.linalg``) so that expected values in the
tests never come from the triangular-solve kernel under test.
"""

import tracemalloc

import numpy as np
import pytest

from johnellip import GeneratorSpec, build_instance, generate

DIAMOND_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
# Optimal weights for the diamond instance: rows 3 and 4 are the binding
# constraints, rows 1 and 2 are slack (scores 1, 1, 1/2, 1/2 at these weights).
DIAMOND_OPTIMUM = np.array([0.0, 0.0, 1.0, 1.0])


@pytest.fixture
def diamond():
    return build_instance(DIAMOND_ROWS)


def gaussian(m, n, seed):
    """Dense seeded random instance."""
    return generate(GeneratorSpec("gaussian-dense", m, n, seed=seed))


def peak_bytes(call):
    """``call()``'s result and the tracemalloc peak, in bytes, of what it allocated."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def reference_scores(matrix, w):
    """Scores via explicit inverse: sigma_i = a_i^T (A^T diag(w) A)^{-1} a_i."""
    matrix = np.asarray(matrix, dtype=float)
    gram = matrix.T @ (matrix * np.asarray(w, dtype=float)[:, None])
    return np.einsum("ij,ij->i", matrix @ np.linalg.inv(gram), matrix)


def qr_reference_scores(matrix, w):
    """Scores via Householder QR: sqrt(W) A = Q R, sigma_i = ||R^{-T} a_i||^2."""
    matrix = np.asarray(matrix, dtype=float)
    r = np.linalg.qr(np.sqrt(np.asarray(w, dtype=float))[:, None] * matrix, mode="r")
    x = np.linalg.solve(r.T, matrix.T)
    return np.einsum("ij,ij->j", x, x)


def reference_logdet(matrix, w):
    """logdet of the weighted Gram via LU-based slogdet."""
    matrix = np.asarray(matrix, dtype=float)
    gram = matrix.T @ (matrix * np.asarray(w, dtype=float)[:, None])
    sign, value = np.linalg.slogdet(gram)
    assert sign > 0.0
    return float(value)
