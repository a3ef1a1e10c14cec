"""Property-based invariants of the search dynamics.

Each property here holds for *all* valid inputs, not just tabulated points:
norm conservation without damping, contraction with it, diffusion symmetry,
and the basis-relabeling symmetry of the lossless search.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsa.basis import index_of, pattern_of
from dqsa.gates import oracle_gate
from dqsa.search import RunConfig, report

from helpers import dense_diffusion

phis = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)
rate_values = st.floats(min_value=0.0, max_value=3.5, allow_nan=False, allow_infinity=False)


@st.composite
def patterns(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    index = draw(st.integers(min_value=0, max_value=2**n - 1))
    return pattern_of(index, n)


@st.composite
def damped_cases(draw, max_n=5, max_rate=3.5):
    pattern = draw(patterns(max_n=max_n))
    n = len(pattern)
    phi = draw(phis)
    rates = tuple(draw(st.floats(min_value=0.0, max_value=max_rate,
                                 allow_nan=False, allow_infinity=False))
                  for _ in range(n))
    return RunConfig(n, pattern, phi, rates)


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
    pat_a = pattern_of(a % 2**n, n)
    pat_b = pattern_of(b % 2**n, n)
    rho_a = report(RunConfig(n, pat_a, phi)).marked_prob
    rho_b = report(RunConfig(n, pat_b, phi)).marked_prob
    assert abs(rho_a - rho_b) <= 1e-10


@settings(max_examples=30)
@given(phi=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
       g=st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_all_ground_beats_all_excited_under_uniform_damping(phi, g):
    rates = (g,) * 5
    rho_ground = report(RunConfig(5, "ggggg", phi, rates)).marked_prob
    rho_excited = report(RunConfig(5, "eeeee", phi, rates)).marked_prob
    assert rho_ground >= rho_excited - 1e-12


@given(pattern=patterns(max_n=6), phi=phis,
       rates=st.lists(rate_values, min_size=6, max_size=6))
def test_oracle_entries_never_amplify(pattern, phi, rates):
    n = len(pattern)
    gate = oracle_gate(pattern, phi, tuple(rates[:n]))
    assert np.all(np.abs(gate) <= 1.0 + 1e-12)


@given(n=st.integers(min_value=1, max_value=12), index=st.integers(min_value=0))
def test_index_pattern_bijection(n, index):
    index %= 2**n
    assert index_of(pattern_of(index, n)) == index
