"""Coupling assignment, Hamiltonian synthesis, and pulse compositions."""

import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dqsa import synthesis
from dqsa.basis import all_patterns, index_of
from dqsa.errors import DimensionMismatch, NegativePhase, OverdampedQubit, UnsupportedSize
from dqsa.gates import w_gate, xi_factor
from dqsa.search import BLOCK_AMPLITUDES, RunConfig, reports
from dqsa.synthesis import (
    THETA,
    compose_w,
    coupling_assignment,
    evolve,
    v1_gate,
    v2_gate,
    verification_sweep,
)

from helpers import (
    defining_energies,
    draw_deviation,
    oracle_gate,
    per_draw_sweep,
    synthesized_energies,
    synthesized_run,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def record_block_sizes(monkeypatch) -> list:
    """The number of draws in each block verification_sweep checks from
    here on, in order."""
    sizes, errors = [], synthesis._realization_errors

    def spy(ising, marked, phi, rates):
        sizes.append(len(phi))
        return errors(ising, marked, phi, rates)

    monkeypatch.setattr(synthesis, "_realization_errors", spy)
    return sizes


class TestCouplingAssignment:
    def test_two_qubit_all_excited(self):
        t = coupling_assignment(2, "ee")
        assert t[(1,)] == t[(2,)] == THETA
        assert t[(1, 2)] == t[(2, 1)] == THETA / 2
        assert t[(1, 1)] + t[(2, 2)] == pytest.approx(THETA)

    def test_three_qubit_mixed(self):
        t = coupling_assignment(3, "eeg")
        assert t[(1,)] == t[(2,)] == THETA
        assert t[(3,)] == -THETA
        assert t[(1, 2)] == THETA / 2
        assert t[(1, 3)] == t[(2, 3)] == -THETA / 2
        # all six orderings of the triple share one value
        vals = {t[p] for p in [(1, 2, 3), (1, 3, 2), (2, 1, 3),
                               (2, 3, 1), (3, 1, 2), (3, 2, 1)]}
        assert vals == {-THETA / 6}

    def test_four_qubit_triples_and_quadruple(self):
        t = coupling_assignment(4, "eegg")
        assert t[(1, 2, 3)] == t[(1, 2, 4)] == -THETA / 6
        assert t[(1, 3, 4)] == t[(2, 3, 4)] == THETA / 6
        assert t[(1, 2, 3, 4)] == THETA / 24
        assert t[(1, 1)] == t[(1, 1, 1, 1)] == THETA / 8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_terms_expand_to_projector(self, n):
        # sum over tuples of J * prod z(y) must equal theta * 2^n [y == x]
        for pattern in all_patterns(n):
            total = -defining_energies(coupling_assignment(n, pattern), (0.0,) * n)
            expected = np.where(np.arange(2**n) == index_of(pattern), THETA * 2**n, 0.0)
            np.testing.assert_allclose(total, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_g_magnitudes_times_signs(self, n):
        # verification_sweep builds every pattern's couplings from the all-g
        # ones: |J| times the pattern's row of coupling signs, bit for bit
        terms = coupling_assignment(n, "g" * n)
        signs = synthesis.coupling_signs(terms, n)
        magnitudes = np.abs(list(terms.values()))
        for pattern in all_patterns(n):
            expected = coupling_assignment(n, pattern)
            assert list(expected) == list(terms)
            got = magnitudes * signs[index_of(pattern, n)]
            assert got.tobytes() == np.array(list(expected.values())).tobytes()

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            coupling_assignment(5, "eeeee")

    def test_pattern_length_checked(self):
        with pytest.raises(DimensionMismatch):
            coupling_assignment(3, "ee")


class TestHamiltonian:
    def test_energies_two_qubit_all_excited(self):
        h = synthesized_energies(coupling_assignment(2, "ee"), (0.0, 0.0))
        np.testing.assert_allclose(h, [0, 0, 0, -4], atol=1e-12)

    def test_damping_term(self):
        h = synthesized_energies(coupling_assignment(2, "ee"), (0.3, 0.5))
        # imaginary part: -(1/2) * sum of rates over excited qubits
        np.testing.assert_allclose(h.imag, [0, -0.25, -0.15, -0.4], atol=1e-12)

    @pytest.mark.parametrize("n,terms", [
        *(pytest.param(n, coupling_assignment(n, p), id=f"{n}-{p}")
          for n in (2, 3, 4) for p in all_patterns(n)),
        pytest.param(3, {(2,): 0.4, (1, 1, 3): -1.5, (3, 2, 3, 3): 0.7,
                         (1, 2, 1, 2): 2.0}, id="3-custom"),
    ])
    def test_energies_equal_term_by_term_sum(self, n, terms):
        # the vectorized energies against the defining sum, state by state
        rates = tuple(np.random.default_rng(n).uniform(0.0, 1.0, n).tolist())
        got = synthesized_energies(terms, rates)
        assert np.max(np.abs(got - defining_energies(terms, rates))) <= 1e-12

    def test_evolution_matches_expm(self):
        h = synthesized_energies(coupling_assignment(3, "ege"), (0.2, 0.0, 0.7))
        got = evolve(h, 0.83)
        ref = np.diag(scipy.linalg.expm(-1j * (0.83 * math.pi / 8) * np.diag(h)))
        np.testing.assert_allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("phi,error", [(-0.5, NegativePhase), (math.nan, ValueError),
                                           (True, ValueError)])
    def test_evolution_phase_checked(self, phi, error):
        h = synthesized_energies(coupling_assignment(2, "ee"), (0.0, 0.0))
        with pytest.raises(error, match="phi"):
            evolve(h, phi)

    @pytest.mark.parametrize("energies", [np.zeros(0), np.zeros(1), np.zeros(3), np.zeros(6),
                                          np.zeros((2, 3)), np.zeros(()), [0.0, 0.0, 0.0]])
    def test_evolution_needs_a_power_of_two_entries(self, energies):
        # three entries had evolved as n=1, and none as n=-1
        with pytest.raises(DimensionMismatch, match="energies"):
            evolve(energies, 0.5)

    @pytest.mark.parametrize("energies,phi", [
        (np.zeros(4), [0.5, 0.6]),  # had evolved as two rows
        (np.zeros(4), [0.5]),
        (np.zeros((3, 4)), [0.5, 0.5]),  # had failed in numpy's broadcast
        (np.zeros((3, 4)), 0.5),
    ], ids=["vector-two-phases", "vector-phase-list", "rows-two-phases", "rows-one-phase"])
    def test_evolution_needs_one_phase_per_energy_row(self, energies, phi):
        with pytest.raises(DimensionMismatch, match=r"phi: expected shape"):
            evolve(energies, phi)

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_evolution_accepts_a_power_of_two_entries(self, size):
        energies = np.arange(size, dtype=float)
        got = evolve(energies, 0.5)
        assert got.shape == (size,)
        np.testing.assert_array_equal(got, np.exp(-1j * energies * (0.5 * math.pi / size)))

    @pytest.mark.parametrize("pattern,rates", [
        ("ee", (0.0, 0.0)),
        ("ge", (1 / 113, 1 / 90)),
        ("ege", (0.5, 0.1, 0.9)),
        ("geeg", (0.3, 0.0, 0.2, 0.8)),
    ])
    def test_evolution_realizes_oracle(self, pattern, rates):
        n = len(pattern)
        phi = 0.77
        dev = draw_deviation(pattern, phi, rates)
        assert dev < 1e-12
        # and directly: entries equal the oracle's, with no phase fitted
        u = evolve(synthesized_energies(coupling_assignment(n, pattern), rates), phi)
        np.testing.assert_allclose(u, oracle_gate(pattern, phi, rates), rtol=0, atol=1e-12)

    def test_verification_sweep_shape(self):
        rows = verification_sweep(ns=(2,), draws=3)
        assert tuple(p for p, _ in rows) == all_patterns(2)
        assert all(w <= 1e-10 for _, w in rows)

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sweep_sees_the_constant_term(self, monkeypatch, n, scale):
        # the diagonal couplings, (s, s) and at n=4 (s, s, s, s), carry the
        # projector's constant term: a phase on every entry alike, which a
        # fitted global phase had absorbed, so that every row passed
        assign = synthesis.coupling_assignment

        def rescaled(size, pattern):
            return {tup: j * scale if len(tup) > 1 and len(set(tup)) == 1 else j
                    for tup, j in assign(size, pattern).items()}

        monkeypatch.setattr(synthesis, "coupling_assignment", rescaled)
        assert max(w for _, w in verification_sweep(ns=(n,), draws=2)) > 1e-10

    def test_verification_sweep_needs_a_draw(self):
        with pytest.raises(ValueError, match="draws"):
            verification_sweep(ns=(2,), draws=0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(draws=2.5), "draws"), (dict(draws="3"), "draws"), (dict(draws=True), "draws"),
        (dict(seed=1.5), "seed"), (dict(seed="7"), "seed"), (dict(seed=False), "seed"),
        (dict(seed=-1), "seed"), (dict(ns=(2.0,)), "n"), (dict(ns=(3, True)), "n"),
        (dict(ns=("2",)), "n"),
    ])
    def test_verification_sweep_integers_checked(self, kwargs, name):
        # each was a TypeError from deep inside, numpy's own error, or (draws
        # True) one silent draw
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            verification_sweep(**dict(ns=(2,), draws=1) | kwargs)

    @pytest.mark.parametrize("n", [2.0, "2", True])
    def test_coupling_size_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            coupling_assignment(n, "ee")

    @pytest.mark.parametrize("n", [2.5, True, "2"])
    def test_coupling_signs_size_must_be_an_int(self, n):
        # 2.5 and True each raised a bare TypeError from range or bits
        with pytest.raises(ValueError, match="^n must be an integer"):
            synthesis.coupling_signs(coupling_assignment(2, "ee"), n)

    @pytest.mark.parametrize("ns", [3, np.int64(3), np.array(3), "23"],
                             ids=["int", "int64", "0-d-array", "string"])
    def test_verification_sweep_sizes_must_be_a_sequence(self, ns):
        # a scalar raised a bare TypeError from len(), and "23" was read as the
        # sizes "2" and "3", which failed as non-integers
        with pytest.raises(DimensionMismatch, match="^ns: "):
            verification_sweep(ns=ns, draws=1)

    @pytest.mark.parametrize("ns", [np.array([3]), iter([3]), (n for n in [3])],
                             ids=["array", "iterator", "generator"])
    def test_verification_sweep_takes_any_iterable_of_sizes(self, ns):
        # a generator had failed in len(), like a scalar
        assert verification_sweep(ns=ns, draws=2, seed=5) == verification_sweep((3,), 2, 5)

    def test_verification_sweep_needs_a_size(self):
        # no size would return no rows, which reads as nothing failed
        with pytest.raises(ValueError, match="ns"):
            verification_sweep(ns=())

    def test_verification_sweep_deterministic(self):
        a = verification_sweep(ns=(2,), draws=2, seed=5)
        b = verification_sweep(ns=(2,), draws=2, seed=5)
        assert a == b

    def test_numpy_integers_accepted(self):
        # random.Random raises TypeError for a numpy integer seed
        got = verification_sweep(ns=(np.int64(2),), draws=np.int64(2), seed=np.int64(5))
        assert got == verification_sweep(ns=(2,), draws=2, seed=5)

    @pytest.mark.parametrize("seed", [7, 20240])
    @pytest.mark.parametrize("draws", [1, 20])
    def test_sweep_rows_equal_per_draw_reference(self, seed, draws):
        # the sweep checks each size's draws as one sequence; its rows must be
        # exactly those of one check per draw on the same random numbers
        assert verification_sweep(draws=draws, seed=seed) == per_draw_sweep(draws=draws, seed=seed)

    def test_first_draw_is_pinned(self, monkeypatch):
        # one 64-bit word of Python's generator per float, least significant
        # 32 bits first, on numpy's 53-bit grid: phi is twice the first float
        draws = []
        errors = synthesis._realization_errors
        monkeypatch.setattr(synthesis, "_realization_errors",
                            lambda *args: draws.append(args[2:]) or errors(*args))
        verification_sweep(ns=(2,), draws=1, seed=0)
        phi, rates = draws[0]
        words = random.Random(0)
        assert phi[0] == 2 * (words.getrandbits(64) >> 11) * 2**-53
        assert rates[0].tolist() == [(words.getrandbits(64) >> 11) * 2**-53 for _ in range(2)]

    @pytest.mark.parametrize("rows", [1, 3, 7, 20])
    def test_block_size_does_not_change_rows(self, monkeypatch, rows):
        # blocks of `rows` draws at n=4 (more at n=2 and 3), the last one short
        monkeypatch.setattr(synthesis, "BLOCK_AMPLITUDES", 32 * rows)
        assert verification_sweep(draws=20, seed=7) == per_draw_sweep(draws=20, seed=7)

    def test_second_block_at_full_size(self, monkeypatch):
        # one draw more than a block holds at n=4 against all draws in one block
        draws = BLOCK_AMPLITUDES // 32 + 1
        blocked = verification_sweep(ns=(4,), draws=draws, seed=20240)
        monkeypatch.setattr(synthesis, "BLOCK_AMPLITUDES", 32 * draws)
        assert blocked == verification_sweep(ns=(4,), draws=draws, seed=20240)

    @pytest.mark.parametrize("n,size", [(2, 16384), (3, 8192), (4, 4096)])
    def test_draws_per_block(self, monkeypatch, n, size):
        # a draw counts its two rows of 2^n, U and P, against the engine's
        # budget; the 2^n patterns' draws form one sequence, so size + 1
        # draws of each fill 2^n whole blocks and a last one of 2^n draws
        sizes = record_block_sizes(monkeypatch)
        verification_sweep(ns=(n,), draws=size + 1, seed=7)
        assert sizes == [size] * 2**n + [2**n]

    def test_default_pass_is_one_block_per_size(self, monkeypatch):
        # the 20 draws of every pattern of n = 2, 3 and 4 fit one block each
        sizes = record_block_sizes(monkeypatch)
        verification_sweep()
        assert sizes == [4 * 20, 8 * 20, 16 * 20]

    def test_sweep_peak_is_bounded(self):
        # a block of 4096 draws at n=4 peaked at 3.9 MiB, on a first call as
        # after one (4.7 MiB on a first call with numpy's generator); the
        # 20000 draws in one block took 18.6 MiB
        tracemalloc.start()
        try:
            verification_sweep(ns=(4,), draws=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    @pytest.mark.parametrize("terms,rates,bad", [
        ({(0,): 1.0}, (0.0, 0.0), r"\(0,\)"),
        (coupling_assignment(3, "ege"), (0.0, 0.0), r"\(3,\)"),
    ])
    def test_qubit_outside_register_rejected(self, terms, rates, bad):
        with pytest.raises(DimensionMismatch, match=bad):
            synthesis.coupling_signs(terms, len(rates))


class TestPulses:
    def test_v1_zero_duration(self):
        np.testing.assert_allclose(v1_gate(0.0), np.eye(2), atol=1e-15)

    def test_v1_quarter_turn(self):
        v = v1_gate(math.pi / 4)
        np.testing.assert_allclose(
            v, np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)]), atol=1e-15)

    @pytest.mark.parametrize("duration,g", [
        (0.3, 0.0), (1.2, 0.8), (0.9, 2.5), (1e-5, 0.5), (0.0, 1.0),
    ])
    def test_v2_matches_expm(self, duration, g):
        h = np.array([[0, 1], [1, -0.5j * g]], dtype=complex)
        ref = scipy.linalg.expm(-1j * duration * h)
        np.testing.assert_allclose(v2_gate(duration, g), ref, atol=1e-12)

    @pytest.mark.parametrize("longest", [10.0, 2e-9])
    def test_v2_closed_form_matches_expm(self, longest):
        # durations up to 10, and near 1e-9, where sin(xi t)/xi ~ t
        rng = np.random.default_rng(17)
        for g, duration in zip(rng.uniform(0.0, 4.0, 500), rng.uniform(0.0, longest, 500)):
            h = np.array([[0, 1], [1, -0.5j * g]], dtype=complex)
            ref = scipy.linalg.expm(-1j * duration * h)
            assert np.max(np.abs(v2_gate(duration, g) - ref)) <= 1e-14

    @pytest.mark.parametrize("pulse", [v1_gate, lambda duration: v2_gate(duration, 0.1)],
                             ids=["v1", "v2"])
    @pytest.mark.parametrize("duration,rule", [
        (math.inf, "finite"), (math.nan, "finite"), (-1.0, "non-negative"),
        (True, "an int or float"), ("a", "an int or float"),
    ])
    def test_duration_follows_the_input_rule(self, pulse, duration, rule):
        # inf gave v1 a NaN matrix and v2 a math domain error, -1.0 gave v2 a
        # gain (|det| = 1.051), True was a duration of 1 and "a" a bare TypeError
        with pytest.raises(ValueError, match=f"^duration must be {rule}"):
            pulse(duration)

    def test_v2_overdamped_rejected(self):
        with pytest.raises(OverdampedQubit):
            v2_gate(1.0, 4.0)

    def test_compose_w_zero_rate_is_hadamard(self):
        np.testing.assert_allclose(compose_w(0.0), HADAMARD, atol=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.00885, 0.5, 0.8, 2.0, 3.9])
    def test_compose_w_matches_closed_form(self, g):
        diff = np.max(np.abs(compose_w(g) - w_gate(g, "composite")))
        assert diff <= 1e-10

    def test_compose_w_pulse_durations(self):
        # the middle pulse runs for pi/(4 xi); check composition piecewise
        g = 1.3
        xi = xi_factor(g)
        expected = 1j * (v1_gate(math.pi / 4) @ v2_gate(math.pi / (4 * xi), g)
                         @ v1_gate(math.pi / 4))
        np.testing.assert_allclose(compose_w(g), expected, atol=1e-15)


class TestSynthesizedCircuit:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_circuit_of_synthesized_gates_equals_reports(self, n):
        # the search run on the paper's own gates (three-pulse W layers and
        # coupling oracles), every pattern, three damped configs per n; each
        # gate alone is checked more loosely (compose_w to 1e-10), so a
        # 1e-12 error in w_gate's composite asymmetry fails only here
        rng = random.Random(n)
        for _ in range(3):
            phi, k = rng.uniform(0.01, 1.99), rng.randint(1, 11)
            rates = tuple(rng.uniform(0.0, 0.9) for _ in range(n))
            _, probs = reports(RunConfig(n, "g" * n, phi, rates, k), marked=all_patterns(n))
            for pattern, row in zip(all_patterns(n), probs):
                state = synthesized_run(pattern, phi, rates, k)
                assert np.max(np.abs(np.abs(state) ** 2 - row)) <= 1e-14
