"""The engine's kernels: the power table of real per-qubit gates on
product terms and the two sequences the recurrence reads from it, the
materialization of the terms into amplitudes, their determinism, and their
refusal of complex tables."""

import warnings

import numpy as np
import pytest

from dqsa.basis import bits
from dqsa.gates import tau, w_gate
from dqsa.search import RunConfig, _batch, _materialize, _powers, _recurrence, _terms

from helpers import dense_single_qubit, dense_terms, layer_on_terms, random_terms


def random_gates(rng, n: int, b: int) -> np.ndarray:
    """One random real 2x2 gate per qubit and column, shape (n, 2, 2, b):
    the engine's domain, where every damped gate M_v is real."""
    return rng.normal(size=(n, 2, 2, b))


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


@pytest.mark.parametrize("n", [1, 2, 5])
def test_complex_tables_raise(n):
    # the kernels hold vectors in float64; a complex table raises, even
    # where a complex-to-float cast would only warn, and never loses its
    # imaginary part
    rng = np.random.default_rng(n)
    coeffs, vecs = random_terms(rng, n, 2)
    mats = random_gates(rng, n, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TypeError):
            _materialize(coeffs, vecs + 1j * vecs)
        with pytest.raises(TypeError):
            _powers(mats.transpose(1, 2, 0, 3), (vecs + 1j * vecs).transpose(1, 3, 0, 2), 2)
        with pytest.raises(TypeError):
            _powers(mats.transpose(1, 2, 0, 3) * 1j, vecs.transpose(1, 3, 0, 2), 2)


def damped_block(convention: str, k: int, n: int = 5, b: int = 6) -> tuple:
    """A random block of ``b`` runs with k rounds, as `_recurrence` takes it,
    and its W and damped M gates, (2, 2, n, B) each."""
    rng = np.random.default_rng(7)
    config = RunConfig(n, "g" * n, 1.0, iterations=k, convention=convention)
    patterns = ["".join(rng.choice(["g", "e"], n)) for _ in range(b)]
    block = _batch(config, rng.uniform(0.0, 2.0, b), rng.uniform(0.0, 1.5, (b, n)), patterns)
    _, phi, rates = block
    w = w_gate(rates, convention).transpose(2, 3, 1, 0)
    m = w.copy()
    m[:, 1] = w[:, 1] * np.exp(-0.5 * tau(phi, n) * rates.T)
    return config, block, w, m


@pytest.mark.parametrize("convention", ["composite", "tabulated"])
def test_first_term_is_w_e0_evolved(convention):
    # the damping diag(1, d_v) leaves e_0 alone, so M_v e_0 = W_v e_0: e_0
    # at age j + 1, kind 0 (A) at odd ages and kind 1 (B) at even ones, is
    # bitwise W e_0 evolved j layers, and the first term's vectors are it
    # at j = 2k
    k = 4
    config, block, w, m = damped_block(convention, k)
    evolved = _powers(m, w[:, :1], 2 * k + 1)[:, :, 0]  # (2, T, n, B)
    table = _recurrence(config, *block)[0]
    assert np.array_equal(table[:, 1::2, 0], evolved[:, 0::2])
    assert np.array_equal(table[:, 2::2, 1], evolved[:, 1::2])
    vecs = _terms(config, *block)[1]
    assert np.array_equal(vecs[..., 0], evolved[:, -1].transpose(1, 0, 2))


@pytest.mark.parametrize("k", [1, 4, 11])
@pytest.mark.parametrize("convention", ["composite", "tabulated"])
def test_table_holds_the_sequences_read(convention, k):
    # kind 0 (A) is M^j e_x at even ages j and M^j e_0 at odd ones, kind 1
    # (B) the converse: each age bitwise the generic power table of its
    # start vector, which takes M's powers by squaring as the table does
    config, block, _, m = damped_block(convention, k)
    x = bits(config.n, block[0]).T
    e_0 = np.zeros(x.shape)
    starts = np.stack((np.stack((1.0 - x, x)), np.stack((e_0 + 1.0, e_0))), axis=1)
    powers = _powers(m, starts, 2 * k + 2)  # kinds e_x, e_0
    table = _recurrence(config, *block)[0]
    assert table.shape == powers.shape
    assert np.array_equal(table[:, 0::2], powers[:, 0::2])
    assert np.array_equal(table[:, 1::2], powers[:, 1::2, ::-1])
