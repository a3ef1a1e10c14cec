"""Property-based invariants of the search dynamics.

Each property here holds for *all* valid inputs, not just tabulated points:
norm conservation without damping, contraction with it, diffusion symmetry,
the basis-relabeling symmetry of the lossless search, the qubit-relabeling
symmetry of any run, and the real gates the engine's float64 tables rest on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsa.basis import all_patterns, index_of
from dqsa.gates import damping_entries, w_gate
from dqsa.search import RunConfig, reports, summaries

from helpers import dense_diffusion, report

phis = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)
rate_values = st.floats(min_value=0.0, max_value=3.5, allow_nan=False, allow_infinity=False)


@st.composite
def patterns(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    index = draw(st.integers(min_value=0, max_value=2**n - 1))
    return all_patterns(n)[index]


@st.composite
def damped_cases(draw, max_n=5, max_rate=3.5):
    pattern = draw(patterns(max_n=max_n))
    n = len(pattern)
    phi = draw(phis)
    rates = tuple(draw(st.floats(min_value=0.0, max_value=max_rate,
                                 allow_nan=False, allow_infinity=False))
                  for _ in range(n))
    return RunConfig(n, pattern, phi, rates)


@given(pattern=patterns(min_n=2), rates=st.lists(st.floats(min_value=0.0, max_value=1.0),
                                                 min_size=6, max_size=6),
       convention=st.sampled_from(["composite", "tabulated"]),
       below=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                exclude_max=True), min_size=1, max_size=100))
def test_damped_probability_at_2_minus_phi_never_exceeds_phi(pattern, rates, convention, below):
    # why `peak` scans only (0, 1]: undamped, P(2 - phi) = P(phi), and
    # damping grows with phi.  At the n - 1 rounds `peak` runs, n = 2..6 and
    # rates up to 1, 8500 random configs of 100 phases each gave
    # P(2 - phi) - P(phi) <= -1.1e-9.  It fails at n = 1 (by up to 8.3e-3),
    # at n = 7 and 8 near zeros of P (by up to 2.6e-7, at P ~ 2e-6), and past
    # n - 1 rounds (by up to 4.9e-4 at n = 2..4); at n = 1, 7 and 8 the
    # maximum over (1, 2) still never beat the one over (0, 1].
    n = len(pattern)
    config = RunConfig(n, pattern, 1.0, tuple(rates[:n]), convention=convention)
    rhos = [rho for rho, _, _ in summaries(config, phi=below + [2.0 - p for p in below])]
    assert max(np.subtract(rhos[len(below):], rhos[:len(below)])) <= 1e-12


@given(pattern=patterns(), phi=phis)
def test_lossless_run_conserves_norm(pattern, phi):
    rep = report(RunConfig(len(pattern), pattern, phi))
    assert abs(rep.survival - 1.0) <= 1e-12


@given(cfg=damped_cases())
def test_damped_run_is_a_contraction(cfg):
    rep = report(cfg)
    assert rep.survival <= 1.0 + 1e-9
    assert rep.marked_prob >= 0.0


@given(cfg=damped_cases(max_n=4))
def test_survival_splits_into_probabilities(cfg):
    rep = report(cfg)
    assert abs(rep.marked_prob + rep.sum_unmarked - rep.survival) <= 1e-12


@given(n=st.integers(min_value=2, max_value=4), phi=phis,
       rates=st.lists(rate_values, min_size=4, max_size=4),
       convention=st.sampled_from(["composite", "tabulated"]))
def test_diffusion_is_symmetric_at_any_rates(n, phi, rates, convention):
    d = dense_diffusion(n, phi, tuple(rates[:n]), convention)
    assert np.max(np.abs(d - d.T)) <= 1e-12


@given(n=st.integers(min_value=2, max_value=4), phi=phis)
def test_diffusion_diagonal_is_uniform_at_zero_rates(n, phi):
    d = dense_diffusion(n, phi, (0.0,) * n)
    diag = np.diag(d)
    assert np.max(np.abs(diag - diag[0])) <= 1e-12


@given(pattern=patterns(max_n=5), iterations=st.integers(min_value=1, max_value=6))
def test_zero_phase_leaves_the_uniform_distribution(pattern, iterations):
    # no oracle phase and no damping: any number of rounds is a no-op on
    # the uniform superposition
    n = len(pattern)
    rep = report(RunConfig(n, pattern, 0.0, iterations=iterations))
    expected = 2.0**-n
    assert abs(rep.marked_prob - expected) <= 1e-12
    assert all(abs(v - expected) <= 1e-12 for v in rep.unmarked.values())


@given(n=st.integers(min_value=1, max_value=6), phi=phis,
       a=st.integers(min_value=0, max_value=63), b=st.integers(min_value=0, max_value=63))
def test_lossless_search_is_blind_to_the_marked_pattern(n, phi, a, b):
    pat_a = all_patterns(n)[a % 2**n]
    pat_b = all_patterns(n)[b % 2**n]
    rho_a = report(RunConfig(n, pat_a, phi)).marked_prob
    rho_b = report(RunConfig(n, pat_b, phi)).marked_prob
    assert abs(rho_a - rho_b) <= 1e-10


@given(pattern=patterns(min_n=2), phi=phis, iterations=st.integers(min_value=1, max_value=8),
       convention=st.sampled_from(["composite", "tabulated"]), data=st.data())
def test_relabeling_qubits_permutes_the_probabilities(pattern, phi, iterations, convention, data):
    # qubit v of the relabeled run is qubit order[v] of the original, its bit
    # of the marked pattern and its rate (all distinct) moved with it, so its
    # probability row is the original's with the bits of every state moved
    # alike.  Rates stay below 2, where both conventions are contractions
    # (tabulated amplifies past g ~ 2.28), so an absolute bound fits; 4000
    # random configs gave at most 4.0e-15.
    n = len(pattern)
    rates = data.draw(st.lists(st.floats(min_value=0.0, max_value=2.0, exclude_max=True),
                               min_size=n, max_size=n, unique=True))
    order = data.draw(st.permutations(range(n)))

    def moved(bits):
        return "".join(bits[v] for v in order)

    _, (row,) = reports(RunConfig(n, pattern, phi, tuple(rates), iterations, convention))
    _, (got,) = reports(RunConfig(n, moved(pattern), phi, tuple(rates[v] for v in order),
                                  iterations, convention))
    states = [index_of(moved(p), n) for p in all_patterns(n)]
    assert np.max(np.abs(got[states] - row)) <= 1e-14


@settings(max_examples=30)
@given(phi=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
       g=st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_all_ground_beats_all_excited_under_uniform_damping(phi, g):
    rates = (g,) * 5
    rho_ground = report(RunConfig(5, "ggggg", phi, rates)).marked_prob
    rho_excited = report(RunConfig(5, "eeeee", phi, rates)).marked_prob
    assert rho_ground >= rho_excited - 1e-12


@given(n=st.integers(min_value=1, max_value=6), phi=phis,
       rates=st.lists(rate_values, min_size=6, max_size=6))
def test_oracle_entries_never_amplify(n, phi, rates):
    damping = damping_entries(n, phi, tuple(rates[:n]))
    assert np.all(np.abs(damping) <= 1.0 + 1e-12)


@given(n=st.integers(min_value=1, max_value=4),
       draws=st.lists(st.tuples(phis, st.lists(rate_values, min_size=4, max_size=4)),
                      min_size=1, max_size=5))
def test_batched_gate_rows_equal_scalar_calls(n, draws):
    # bitwise: a batch of draws is D single calls, not a reordered sum
    phi = [p for p, _ in draws]
    rates = [r[:n] for _, r in draws]
    damping = damping_entries(n, phi, rates)
    assert damping.shape == (len(draws), 2**n)
    for row, (p, r) in enumerate(zip(phi, rates)):
        assert damping[row].tobytes() == damping_entries(n, p, r).tobytes()


@given(g=st.floats(min_value=0.0, max_value=4.0, exclude_max=True), phi=phis,
       convention=st.sampled_from(["composite", "tabulated"]))
def test_damped_gates_are_real(g, phi, convention):
    # W_v is a damped Hadamard and d_v a real exponential, so W_v and
    # M_v = W_v diag(1, d_v) have no imaginary part at all: the engine holds
    # them, and every vector table made from them, in float64
    w = w_gate(g, convention)
    m = w * damping_entries(1, phi, (g,))
    assert not w.imag.any() and not m.imag.any()
    assert np.isfinite(m.real).all()
