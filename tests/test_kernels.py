"""The engine's kernels: the power table of per-qubit gates on product
terms, the materialization of the terms into amplitudes, and their
determinism."""

import numpy as np
import pytest

from helpers import dense_single_qubit, dense_terms, layer_on_terms, random_terms


def random_gates(rng, n: int, b: int) -> np.ndarray:
    """One random complex 2x2 gate per qubit and column, shape (n, 2, 2, b)."""
    return rng.normal(size=(n, 2, 2, b)) + 1j * rng.normal(size=(n, 2, 2, b))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_sweep_matches_dense(n):
    # every column gets its own gate per qubit and its own product terms;
    # the gates applied to the terms, then materialized, must equal the
    # product of the dense single-qubit operators on the dense state.  The
    # sizes cover both halves of odd and even registers, and n=1 with an
    # empty first half.
    rng = np.random.default_rng(42 + n)
    b = 5
    mats = random_gates(rng, n, b)
    coeffs, vecs = random_terms(rng, n, b, t=4)
    out = layer_on_terms(coeffs, vecs, mats)
    start = dense_terms(coeffs, vecs)
    for j in range(b):
        ref = start[j]
        for qubit in range(1, n + 1):
            ref = dense_single_qubit(n, qubit, mats[qubit - 1, :, :, j]) @ ref
        np.testing.assert_allclose(out[j], ref, atol=1e-12)


def test_engine_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    mats = random_gates(rng, 6, 4)
    coeffs, vecs = random_terms(rng, 6, 4)
    first = layer_on_terms(coeffs, vecs, mats)
    second = layer_on_terms(coeffs.copy(), vecs.copy(), mats.copy())
    assert np.array_equal(first, second)
