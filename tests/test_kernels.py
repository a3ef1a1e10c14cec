"""The engine's kernel: a layer of per-qubit gates applied as one matmul per
group of up to GROUP qubits, and its determinism."""

import math

import numpy as np
import pytest

from dqsa.search import GROUP, _factors

from helpers import dense_single_qubit, engine_layer, random_state


def random_gates(rng, n: int, b: int) -> np.ndarray:
    """One random complex 2x2 gate per qubit and column, shape (n, 2, 2, b)."""
    return rng.normal(size=(n, 2, 2, b)) + 1j * rng.normal(size=(n, 2, 2, b))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_sweep_matches_dense(n):
    # every column gets its own gate per qubit; the layer must equal the
    # product of the dense single-qubit operators, column by column.  The
    # sizes cover n < GROUP and every n mod GROUP.
    rng = np.random.default_rng(42 + n)
    b = 5
    mats = random_gates(rng, n, b)
    amps = np.stack([random_state(rng, n) for _ in range(b)])
    out = engine_layer(amps, mats)
    for j in range(b):
        ref = amps[j]
        for qubit in range(1, n + 1):
            ref = dense_single_qubit(n, qubit, mats[qubit - 1, :, :, j]) @ ref
        np.testing.assert_allclose(out[j], ref, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12])
def test_one_factor_per_group(n):
    sizes = [f.shape for f in _factors(np.zeros((n, 2, 2, 3), dtype=np.complex128))]
    assert len(sizes) == math.ceil(n / GROUP)
    assert sum(math.log2(d) for _, d, _ in sizes) == n
    assert all(b == 3 and d == e <= 2**GROUP for b, d, e in sizes)


def test_engine_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    mats = random_gates(rng, 6, 4)
    start = np.stack([random_state(rng, 6) for _ in range(4)])
    first, second = engine_layer(start, mats), engine_layer(start.copy(), mats)
    assert np.array_equal(first, second)
