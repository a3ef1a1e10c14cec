"""Basis indexing and the engine's two elementary operations on product
terms: a damping diagonal folded into the W layer, and a single-qubit gate
applied on one tensor slot."""

import math

import numpy as np
import pytest

from dqsa.basis import MAX_QUBITS, all_patterns, bits, index_of, validate_pattern
from dqsa.errors import InvalidPattern
from dqsa.gates import damping_entries, w_gate

from helpers import dense_single_qubit, dense_terms, dense_walsh, layer_on_terms, random_terms


def one_slot(n: int, qubit: int, gate2) -> np.ndarray:
    """Real layer gates (n, 2, 2, 1): ``gate2`` on ``qubit``, identity
    elsewhere."""
    mats = np.array([gate2 if v == qubit else np.eye(2) for v in range(1, n + 1)], dtype=float)
    return mats[..., None]


class TestIndexing:
    @pytest.mark.parametrize("pattern,index", [
        ("g", 0), ("e", 1),
        ("gg", 0), ("ge", 1), ("eg", 2), ("ee", 3),
        ("ege", 5), ("egg", 4), ("eee", 7),
        ("geeg", 6),
    ])
    def test_known_indices(self, pattern, index):
        assert index_of(pattern) == index
        assert all_patterns(len(pattern))[index] == pattern

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_bits_spell_the_patterns(self, n):
        expected = [[int(c == "e") for c in pat] for pat in all_patterns(n)]
        assert bits(n).tolist() == expected
        assert bits(n, [2**n - 1, 0]).tolist() == [expected[-1], expected[0]]

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_bijection(self, n):
        pats = all_patterns(n)
        assert len(pats) == 2**n
        assert len(set(pats)) == 2**n
        for i, pat in enumerate(pats):
            assert index_of(pat) == i

    def test_first_qubit_most_significant(self):
        # flipping qubit 1 moves the index by 2^(n-1)
        assert index_of("egg") - index_of("ggg") == 4
        assert index_of("gge") - index_of("ggg") == 1

    def test_all_patterns_order(self):
        assert all_patterns(2) == ("gg", "ge", "eg", "ee")

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
    def test_all_patterns_qubit_count_checked(self, n):
        with pytest.raises(InvalidPattern):
            all_patterns(n)

    @pytest.mark.parametrize("bad", ["", "gx", "xq", "GE", "g e", 3, None,
                                     "g" * (MAX_QUBITS + 1)])
    def test_invalid_patterns(self, bad):
        with pytest.raises(InvalidPattern):
            validate_pattern(bad)

    def test_max_length_accepted(self):
        assert index_of("e" * MAX_QUBITS) == 2**MAX_QUBITS - 1


class TestOperations:
    def test_apply_diagonal_is_entrywise(self):
        # W_v diag(1, d_v) applied on every qubit is the W layer applied after
        # the entrywise damping diagonal exp(-(tau/2) * excited rates)
        rng = np.random.default_rng(1)
        n, rates, phi = 3, (0.3, 0.9, 0.5), 0.8
        d = np.exp(-0.5 * (phi * math.pi / 2**n) * np.array(rates))
        mats = w_gate(rates).real
        mats[:, :, 1] *= d[:, None]
        coeffs, vecs = random_terms(rng, n)
        out = layer_on_terms(coeffs, vecs, mats[..., None])[0]
        ref = dense_walsh(n, rates) @ (damping_entries(n, phi, rates) * dense_terms(coeffs, vecs)[0])
        np.testing.assert_allclose(out, ref, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_apply_single_qubit_matches_dense(self, n):
        rng = np.random.default_rng(n)
        coeffs, vecs = random_terms(rng, n)
        amps = dense_terms(coeffs, vecs)[0]
        gate2 = rng.normal(size=(2, 2))
        for qubit in range(1, n + 1):
            out = layer_on_terms(coeffs, vecs, one_slot(n, qubit, gate2))[0]
            ref = dense_single_qubit(n, qubit, gate2) @ amps
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_apply_single_qubit_does_not_mutate_input(self):
        # one product term, |gg>
        coeffs = np.ones((1, 1), dtype=np.complex128)
        vecs = np.zeros((2, 2, 1, 1))
        vecs[:, 0] = 1.0
        before = coeffs.copy(), vecs.copy()
        out = layer_on_terms(coeffs, vecs, one_slot(2, 1, np.array([[0, 1], [1, 0]])))
        np.testing.assert_array_equal(out, [[0, 0, 1, 0]])
        np.testing.assert_array_equal(coeffs, before[0])
        np.testing.assert_array_equal(vecs, before[1])
