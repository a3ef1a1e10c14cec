"""Gate constructors: phase checks, W gate, oracle; and the dense
diffusion built from them."""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dqsa.basis import bits, index_of
from dqsa.errors import DimensionMismatch, NegativePhase, OverdampedQubit
from dqsa.gates import (
    CONVENTIONS,
    RATE_BOUNDS,
    check_phi,
    check_rates,
    damping_entries,
    tau,
    w_gate,
    xi_factor,
)
from dqsa.search import RunConfig
from dqsa.synthesis import evolve

from helpers import (
    dense_diffusion,
    dense_terms,
    dense_walsh,
    layer_on_terms,
    oracle_gate,
    random_terms,
    run,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


class TestPhase:
    def test_beta_and_tau(self):
        # each state's damping is exp(-(tau/2) * excited rates), tau = phi*pi/2^n
        rates = (0.2, 0.4, 0.6)
        damping = damping_entries(3, 0.5, rates)
        assert damping[index_of("ege")] == pytest.approx(
            math.exp(-0.25 * math.pi / 8 * 0.8), abs=1e-15)
        assert damping[index_of("gge")] == pytest.approx(
            math.exp(-0.25 * math.pi / 8 * 0.6), abs=1e-15)
        # the test oracle, which dense_run and dense_diffusion use, is that
        # damping with e^{i*beta}, beta = phi*pi, on the marked entry alone
        phase = np.ones(8, dtype=complex)
        phase[index_of("ege")] = np.exp(1j * 0.5 * math.pi)
        np.testing.assert_array_equal(oracle_gate("ege", 0.5, rates), damping * phase)

    def test_tau(self):
        assert tau(0.5, 3) == 0.5 * math.pi / 8
        np.testing.assert_array_equal(tau(np.array([0.5, 1.0]), 3), [tau(0.5, 3), tau(1.0, 3)])

    def test_negative_phase_rejected(self):
        with pytest.raises(NegativePhase):
            check_phi(-0.1)
        with pytest.raises(NegativePhase):
            damping_entries(2, -0.1, (0.0, 0.0))

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, True, "1.0", 1e308])
    def test_non_finite_or_non_number_phase_rejected(self, phi):
        with pytest.raises(ValueError, match="phi"):
            check_phi(phi)
        with pytest.raises(ValueError, match="phi"):
            damping_entries(2, phi, (0.0, 0.0))

    def test_zero_phase_allowed(self):
        assert check_phi(0.0) == 0.0
        assert check_phi(1) == 1.0 and type(check_phi(1)) is float


class TestRates:
    def test_check_rates_normalizes(self):
        rates = check_rates([1, 0.5], (2,))
        assert rates.dtype == np.float64 and rates.tolist() == [1.0, 0.5]

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            check_rates((0.1,), (2,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_rates((-0.1, 0.0), (2,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_or_bool_rejected(self, bad):
        with pytest.raises(ValueError, match="rate"):
            check_rates((bad, 0.0), (2,))

    @pytest.mark.parametrize("bad", [4.0, 4.5])
    def test_overdamped_rejected(self, bad):
        with pytest.raises(OverdampedQubit, match=str(bad)):
            check_rates((0.0, bad), (2,))


    def test_tabulated_run_bound_is_where_its_gate_stops_contracting(self):
        bound = RATE_BOUNDS["tabulated"]
        # the g where the spectral norm of the tabulated gate reaches 1
        crossover = brentq(lambda g: np.linalg.norm(w_gate(g, "tabulated"), ord=2) - 1,
                           2.0, 2.5, xtol=1e-15)
        assert abs(crossover - bound) < 1e-12
        below = float(np.nextafter(bound, 0))
        assert check_rates(below, convention="tabulated") == below
        with pytest.raises(OverdampedQubit, match=f"below 2.27574, got {bound!r}"):
            check_rates(bound, convention="tabulated")
        # a gate of either convention, and a composite run, stop at 4 alone
        assert RATE_BOUNDS["composite"] == 4.0
        assert check_rates(bound) == bound
        assert np.isfinite(w_gate(bound, "tabulated")).all()


class TestWGate:
    def test_xi_factor(self):
        assert xi_factor(0.0) == 1.0
        assert xi_factor(0.8) == pytest.approx(math.sqrt(16 - 0.64) / 4, abs=1e-15)

    @pytest.mark.parametrize("g", [4.0, 4.5, 100.0])
    def test_overdamped_rejected(self, g):
        with pytest.raises(OverdampedQubit):
            xi_factor(g)
        with pytest.raises(OverdampedQubit):
            w_gate(g)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            w_gate(-0.5)

    @pytest.mark.parametrize("g", [True, [0.5, True], np.array([True, False])])
    def test_bool_rate_rejected(self, g):
        with pytest.raises(ValueError, match="rate"):
            w_gate(g)
        with pytest.raises(ValueError, match="rate"):
            xi_factor(g)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_zero_rate_is_hadamard(self, convention):
        np.testing.assert_allclose(w_gate(0.0, convention), HADAMARD, atol=1e-15)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            w_gate(0.5, "bogus")

    def test_composite_entries_frozen(self):
        # frozen values, independently computed
        w = w_gate(0.8)
        assert w.dtype == np.float64  # the damped Hadamard is real; nothing to discard
        assert w[0, 0].real == pytest.approx(0.7253217954411793, abs=1e-12)
        assert w[0, 1].real == pytest.approx(0.6147858262737641, abs=1e-12)
        assert w[1, 0] == w[0, 1]
        assert w[1, 1].real == pytest.approx(-0.4794074649316735, abs=1e-12)

    def test_conventions_agree_at_weak_rates(self):
        # difference is second order in the rate
        for g in (1e-4, 1e-3):
            diff = np.max(np.abs(w_gate(g, "composite") - w_gate(g, "tabulated")))
            assert diff < 2 * g * g

    def test_conventions_differ_at_strong_rates(self):
        diff = np.max(np.abs(w_gate(0.8, "composite") - w_gate(0.8, "tabulated")))
        assert diff > 1e-3

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.5, 3.0, 3.9])
    def test_composite_is_a_contraction_everywhere(self, g):
        assert np.linalg.norm(w_gate(g, "composite"), ord=2) <= 1 + 1e-9

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_tabulated_is_a_contraction_at_table_rates(self, g):
        assert np.linalg.norm(w_gate(g, "tabulated"), ord=2) <= 1 + 1e-9

    def test_tabulated_amplifies_beyond_crossover(self):
        # the variant stops being a physical damped gate above g ~ 2.28 --
        # one more sign the composite form is the right default
        assert np.linalg.norm(w_gate(3.0, "tabulated"), ord=2) > 1.1

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_array_of_rates_equals_stacked_gates(self, convention):
        gs = (0.0, 1e-4, 0.8, 2.28, 3.99)
        np.testing.assert_array_equal(w_gate(np.array(gs), convention),
                                      np.stack([w_gate(g, convention) for g in gs]))

    @pytest.mark.parametrize("gs,error", [
        ((0.1, 4.0, 0.2), OverdampedQubit),
        ((0.1, 0.3, -0.2), ValueError),
    ])
    def test_one_bad_rate_in_an_array_rejected(self, gs, error):
        bad = str([g for g in gs if not 0 <= g < 4][0])
        with pytest.raises(error, match=bad):
            w_gate(np.array(gs))
        with pytest.raises(error, match=bad):
            xi_factor(np.array(gs))


class TestWalshLayer:
    def test_sweeps_match_dense(self):
        rng = np.random.default_rng(3)
        rates = (0.1, 0.5, 0.9)
        coeffs, vecs = random_terms(rng, 3, t=4)
        out = layer_on_terms(coeffs, vecs, w_gate(rates).real[..., None])[0]
        ref = dense_walsh(3, rates) @ dense_terms(coeffs, vecs)[0]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_rates_squares_to_identity(self):
        w = functools.reduce(np.kron, w_gate((0.0,) * 3))
        np.testing.assert_allclose(w @ w, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("n,rates,rule", [
    (True, [0.1], "an integer"), (2.0, [0.1, 0.2], "an integer"), ("2", [0.1, 0.2], "an integer"),
    (0, [], ">= 1"), (-1, [], ">= 1"),
])
def test_damping_size_checked_first(n, rates, rule):
    # True gave two entries, 0 gave [1.], and 2.0 and -1 failed inside
    # numpy's right_shift
    with pytest.raises(ValueError, match=f"^n must be {rule}"):
        damping_entries(n, 0.5, rates)


RAGGED = [[0.1], [0.1, 0.2]]


class TestRaggedInput:
    # nested lists of unequal lengths are a shape error naming the argument,
    # not numpy's bare "inhomogeneous shape" ValueError
    @pytest.mark.parametrize("call,name", [
        (lambda: w_gate(RAGGED), "rates"),
        (lambda: xi_factor(RAGGED), "rates"),
        (lambda: damping_entries(2, RAGGED, [(0.1, 0.2)] * 2), "phi"),
        (lambda: damping_entries(2, [0.5, 1.0], RAGGED), "rates"),
        (lambda: evolve(np.zeros((2, 4)), RAGGED), "phi"),
        (lambda: evolve([[0.0, 1.0], [0.0]], 0.5), "energies"),
    ], ids=["w_gate", "xi_factor", "damping_entries-phi", "damping_entries-rates",
            "evolve-phi", "evolve-energies"])
    def test_ragged_argument_named(self, call, name):
        with pytest.raises(DimensionMismatch, match=name):
            call()


class TestOracle:
    # the oracle is its damping, `damping_entries`, with a phase on the
    # marked entry (see TestPhase::test_beta_and_tau)
    def test_known_entries(self):
        # n=2, phi=1: tau/2 = pi/8
        ga, gb = 1 / 113, 1 / 90
        e = damping_entries(2, 1.0, (ga, gb))
        assert e[index_of("gg")] == pytest.approx(1.0, abs=1e-15)
        assert e[index_of("ge")] == pytest.approx(math.exp(-math.pi / 8 * gb), abs=1e-15)
        assert e[index_of("eg")] == pytest.approx(math.exp(-math.pi / 8 * ga), abs=1e-15)
        assert e[index_of("ee")] == pytest.approx(math.exp(-math.pi / 8 * (ga + gb)), abs=1e-15)

    def test_zero_phase_is_identity(self):
        np.testing.assert_array_equal(damping_entries(2, 0.0, (0.7, 0.3)), np.ones(4))

    def test_zero_rates_is_pure_phase_flip(self):
        # no damping at all, so the oracle is its phase alone
        np.testing.assert_array_equal(damping_entries(2, 1.0, (0.0, 0.0)), np.ones(4))

    def test_damping_entries_bounded(self):
        d = damping_entries(3, 1.7, (0.9, 0.4, 0.2))
        assert np.all(d <= 1.0 + 1e-15)
        assert np.all(d > 0.0)

    @pytest.mark.parametrize("n", [1, 3, 4, 8, 12])
    def test_batch_rows_are_bitwise_single_calls(self, n):
        # rates of mixed magnitudes, where the order of a sum shows in its last bits
        rng = np.random.default_rng(n)
        phi = rng.uniform(0.0, 2.0, 64)
        rates = rng.uniform(0.0, 1.0, (64, n)) * 10.0 ** rng.integers(-3, 1, (64, n))
        batch = damping_entries(n, phi, rates)
        for row in range(64):
            single = damping_entries(n, float(phi[row]), rates[row].tolist())
            assert batch[row].tobytes() == single.tobytes()
            # and a single call keeps its formula: one matrix-vector product
            ref = np.exp(-0.5 * tau(float(phi[row]), n) * (bits(n) @ rates[row]))
            assert single.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("phi,rates", [
        ([0.5, 1.0], [(0.1, 0.2)]),            # one row of rates for two phases
        ([0.5, 1.0], [(0.1, 0.2, 0.3)] * 2),  # three rates on two qubits
        ([0.5, 1.0], (0.1, 0.2)),             # one phase's rates for a batch
        ([[0.5], [1.0]], [(0.1, 0.2)] * 2),   # phases of more than one axis
    ])
    def test_batch_shapes_checked(self, phi, rates):
        with pytest.raises(DimensionMismatch):
            damping_entries(2, phi, rates)

    def test_batch_values_checked(self):
        with pytest.raises(NegativePhase):
            damping_entries(2, [0.5, -1.0], [(0.1, 0.2)] * 2)
        with pytest.raises(OverdampedQubit):
            damping_entries(2, [0.5, 1.0], [(0.1, 0.2), (4.0, 0.0)])
        with pytest.raises(ValueError, match="phi"):
            damping_entries(2, [0.5, True], [(0.1, 0.2)] * 2)


class TestDiffusion:
    def test_grover_limit(self):
        # rates 0, phi=1: 2|s><s| - 1 with |s> uniform
        n = 3
        d = dense_diffusion(n, 1.0, (0.0,) * n)
        s = np.full((8, 1), 1 / math.sqrt(8))
        np.testing.assert_allclose(d, 2 * s @ s.T - np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_symmetric_at_any_rates(self, convention):
        d = dense_diffusion(3, 0.73, (0.9, 0.2, 0.5), convention)
        np.testing.assert_allclose(d, d.T, atol=1e-12)

    def test_equal_diagonal_at_zero_rates(self):
        d = dense_diffusion(3, 0.4, (0.0,) * 3)
        np.testing.assert_allclose(np.diag(d), np.full(8, d[0, 0]), atol=1e-12)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_contraction(self, convention):
        d = dense_diffusion(2, 1.3, (1.5, 0.8), convention)
        assert np.linalg.norm(d, ord=2) <= 1 + 1e-9

    def test_matrix_free_matches_dense(self):
        # one engine round after the W layer: dense diffusion after the oracle
        n, marked, rates = 3, "egg", (0.3, 0.6, 0.1)
        phi = 0.9
        out = run(RunConfig(n, marked, phi, rates, iterations=1))
        start = dense_walsh(n, rates)[:, 0]
        ref = dense_diffusion(n, phi, rates) @ (oracle_gate(marked, phi, rates) * start)
        np.testing.assert_allclose(out, ref, atol=1e-12)
