"""The engine's kernel: the batched single-qubit sweep, and determinism."""

import numpy as np
import pytest

from dqsa.search import _sweep

from helpers import dense_single_qubit, random_state


def random_gates(rng, n: int, b: int) -> np.ndarray:
    """One random complex 2x2 gate per qubit and column, shape (n, 2, 2, b)."""
    return rng.normal(size=(n, 2, 2, b)) + 1j * rng.normal(size=(n, 2, 2, b))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_sweep_matches_dense(n):
    # every column gets its own gate per qubit; the sweep must equal the
    # product of the dense single-qubit operators, column by column
    rng = np.random.default_rng(42 + n)
    b = 5
    mats = random_gates(rng, n, b)
    amps = np.stack([random_state(rng, n) for _ in range(b)], axis=1)
    out = _sweep(amps, mats)
    for j in range(b):
        ref = amps[:, j]
        for qubit in range(1, n + 1):
            ref = dense_single_qubit(n, qubit, mats[qubit - 1, :, :, j]) @ ref
        np.testing.assert_allclose(out[:, j], ref, atol=1e-12)


def test_engine_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    mats = random_gates(rng, 6, 4)
    start = np.stack([random_state(rng, 6) for _ in range(4)], axis=1)
    first, second = _sweep(start, mats), _sweep(start.copy(), mats)
    assert np.array_equal(first, second)
