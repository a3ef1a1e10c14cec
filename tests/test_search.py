"""Search runs: configuration handling, known outcomes, dense cross-check."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqsa import search
from dqsa.basis import index_of
from dqsa.errors import (
    DimensionMismatch,
    DqsaError,
    InvalidPattern,
    NegativePhase,
    OverdampedQubit,
)
from dqsa.gates import RATE_BOUNDS, damping_entries
from dqsa.search import (
    RunConfig,
    _batch,
    _marked_probabilities,
    _materialize,
    _terms,
    points_per_block,
    reports,
    summaries,
)
from dqsa.synthesis import evolve

from helpers import (
    EngineCalls,
    damped_configs,
    dense_run,
    grover_closed_form,
    marked_amplitude_trace,
    oracle_gate,
    planned_blocks,
    record_blocks,
    recurrence_width,
    report,
    run,
    symmetric_run,
    two_level,
)


@st.composite
def undamped_runs(draw):
    """Undamped configs at n = 1..12, any phase in [0, 2] and any marked
    pattern, with up to the ceil(pi sqrt(2^n) / 4) rounds of a search."""
    n = draw(st.integers(min_value=1, max_value=12))
    marked = draw(st.text("ge", min_size=n, max_size=n))
    phi = draw(st.floats(min_value=0.0, max_value=2.0))
    iterations = draw(st.integers(min_value=1, max_value=math.ceil(math.pi * 2 ** (n / 2) / 4)))
    return RunConfig(n, marked, phi, iterations=iterations)


@st.composite
def uniform_rate_runs(draw):
    """Damped configs with one rate on every qubit, at n = 1..12 and up to 14
    rounds, any marked pattern and phase, under either convention."""
    n = draw(st.integers(min_value=1, max_value=12))
    marked = draw(st.text("ge", min_size=n, max_size=n))
    phi = draw(st.floats(min_value=0.0, max_value=2.0))
    g = draw(st.floats(min_value=0.0, max_value=1.5))
    iterations = draw(st.integers(min_value=1, max_value=14))
    convention = draw(st.sampled_from(("composite", "tabulated")))
    return RunConfig(n, marked, phi, (g,) * n, iterations, convention)


class TestRunConfig:
    def test_default_iterations(self):
        assert RunConfig(5, "geege", 1.0).iterations == 4
        assert RunConfig(2, "ee", 1.0).iterations == 1
        assert RunConfig(1, "e", 1.0).iterations == 1

    def test_default_rates_are_zero(self):
        assert RunConfig(3, "ege", 1.0).rates == (0.0, 0.0, 0.0)

    def test_explicit_iterations_kept(self):
        assert RunConfig(2, "ee", 1.0, iterations=7).iterations == 7

    def test_invalid_pattern(self):
        with pytest.raises(InvalidPattern):
            RunConfig(2, "xq", 1.0)

    def test_pattern_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RunConfig(3, "ee", 1.0)

    def test_rate_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RunConfig(2, "ee", 1.0, (0.1,))

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(2, "ee", 1.0, iterations=0)

    @pytest.mark.parametrize("n,limit", [(1, 2910), (2, 2518), (6, 1308), (7, 1005)])
    def test_iterations_bounded_by_one_run_per_block(self, n, limit):
        # past the limit one run outgrows its state block, at every n (n=9
        # and n=12 are checked on every route in test_input_boundary.py)
        assert RunConfig(n, "e" * n, 1.0, iterations=limit).iterations == limit
        with pytest.raises(ValueError, match=rf"iterations must be <= {limit} at n={n}\b"):
            RunConfig(n, "e" * n, 1.0, iterations=limit + 1)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            RunConfig(2, "ee", 1.0, convention="bogus")

    @pytest.mark.parametrize("field,kwargs", [
        ("phi", dict(phi=math.nan)), ("phi", dict(phi=math.inf)),
        ("phi", dict(phi=-math.inf)), ("phi", dict(phi=True)),
        ("rate", dict(rates=(math.nan, 0.0))), ("rate", dict(rates=(0.1, math.inf))),
        ("rate", dict(rates=(False, 0.0))),
        ("iterations", dict(iterations=True)), ("iterations", dict(iterations=2.0)),
        ("n", dict(n=True, marked="e")),
        ("phi", dict(phi=10**400)),  # finite, but float() of it overflows
        # phases far above 2, where k*phi*pi would overflow to inf
        ("phi", dict(phi=1e308)), ("phi", dict(phi=2e306, iterations=50)),
    ])
    def test_non_finite_or_bool_rejected(self, field, kwargs):
        args = dict(n=2, marked="ee", phi=1.0) | kwargs
        with pytest.raises(ValueError, match=field):
            RunConfig(**args)

    def test_negative_phase_rejected(self):
        with pytest.raises(NegativePhase):
            RunConfig(2, "ee", -0.5)

    @pytest.mark.parametrize("rate", [0.0, 3.99])
    def test_phase_is_an_angle_in_0_to_2(self, rate):
        # phi = 2 is accepted, and a run at the most rounds n=2 allows stays
        # finite (warnings are errors here); the next float above 2 is
        # rejected, naming phi, wherever a phase enters
        config = RunConfig(2, "ee", 2.0, (rate, rate), iterations=2518)
        assert np.isfinite(summaries(config)).all()
        assert np.isfinite(marked_amplitude_trace(config)).all()
        assert np.isfinite(damping_entries(2, 2.0, (rate, rate))).all()
        above = math.nextafter(2.0, 3.0)
        assert above == 2.0000000000000004
        entries = (lambda: RunConfig(2, "ee", above, (rate, rate)),
                   lambda: summaries(config, phi=[1.0, above]),
                   lambda: damping_entries(2, above, (rate, rate)),
                   lambda: evolve(np.zeros(4), above))
        for enter in entries:
            with pytest.raises(ValueError, match="phi"):
                enter()

    def test_tabulated_run_rates_bounded_where_they_enter(self):
        # past 2.27574 the tabulated gate amplifies: a run at n=12 wrote NaN
        bound = RATE_BOUNDS["tabulated"]
        below = float(np.nextafter(bound, 0))
        config = RunConfig(2, "ee", 1.0, (below, 0.0), iterations=50, convention="tabulated")
        assert np.isfinite(summaries(config, rates=[[below, below]])).all()
        entries = (lambda: RunConfig(2, "ee", 1.0, (bound, 0.0), convention="tabulated"),
                   lambda: summaries(config, rates=[[0.1, 0.1], [0.0, bound]]))
        for enter in entries:
            with pytest.raises(OverdampedQubit, match="below 2.27574"):
                enter()
        assert RunConfig(2, "ee", 1.0, (bound, 0.0)).rates == (bound, 0.0)

    @pytest.mark.parametrize("rates", [(4.0, 0.0), (0.1, 5.0)])
    def test_overdamped_rate_rejected_when_built(self, rates):
        with pytest.raises(OverdampedQubit):
            RunConfig(2, "ee", 1.0, rates)

    @pytest.mark.parametrize("rates,expected", [
        (np.array([0.1, 0.2, 0.3]), (0.1, 0.2, 0.3)),
        (np.arange(3), (0.0, 1.0, 2.0)),
        (np.zeros(3), (0.0, 0.0, 0.0)),
        (np.array([0.5, 0.25, 0.125], dtype=np.float32), (0.5, 0.25, 0.125)),
        (None, (0.0, 0.0, 0.0)),  # None, as when left out, takes the default
    ])
    def test_numpy_rates_read_as_their_tuple(self, rates, expected):
        # an array is read as its tuple is, not by its truth value
        config = RunConfig(3, "ege", 1.0, rates)
        assert config.rates == expected
        assert config == RunConfig(3, "ege", 1.0, expected)

    @pytest.mark.parametrize("rates,error", [
        (np.array([0.1, 4.0, 0.2]), OverdampedQubit),
        (np.array([0.1, np.nan, 0.2]), ValueError),
        (np.array([True, False, True]), ValueError),
        (np.array([0.1, 0.2]), DimensionMismatch),
        (0.0, DimensionMismatch),  # a scalar is no rate list, zero or not
        (np.zeros(0), DimensionMismatch),  # empty is a wrong length; None takes the default
        ([], DimensionMismatch),
        ((), DimensionMismatch),
    ])
    def test_numpy_rates_checked_as_their_tuple(self, rates, error):
        with pytest.raises(error, match=r"rates \(gammas\)"):
            RunConfig(3, "ege", 1.0, rates)


class TestBatch:
    def test_omitted_arrays_take_the_config_values(self):
        config = RunConfig(3, "gge", 0.43, (0.2, 0.1, 0.4))
        assert summaries(config) == summaries(config, phi=[0.43], rates=[config.rates],
                                              marked=["gge"])

    def test_rows_equal_standalone_reports(self):
        config = RunConfig(3, "ggg", 1.0, iterations=4)
        phi, rates, marked = [0.3, 1.7], [(0.1, 0.0, 0.5), (0.9, 0.2, 0.0)], ["ege", "gee"]
        for k, (rho, rest, surv) in enumerate(summaries(config, phi, rates, marked)):
            rep = report(RunConfig(3, marked[k], phi[k], rates[k], iterations=4))
            assert (rho, rest, surv) == pytest.approx(
                (rep.marked_prob, rep.sum_unmarked, rep.survival), rel=0, abs=1e-15)

    def test_empty_batch(self):
        assert summaries(RunConfig(2, "ee", 1.0), phi=[]) == []
        indices, probs = reports(RunConfig(2, "ee", 1.0), phi=[])
        assert indices.shape == (0,) and probs.shape == (0, 4)

    def test_reports_are_the_rows_summaries_reduce(self):
        # two engine blocks; each row's marked entry and sum are bitwise the
        # summary of its run
        config = RunConfig(7, "ggggggg", 1.0, iterations=3)
        b = points_per_block(7, 3) + 2
        rng = np.random.default_rng(4)
        phi, rates = rng.uniform(0.0, 2.0, b), rng.uniform(0.0, 1.0, (b, 7))
        marked = ["".join(rng.choice(["g", "e"], 7)) for _ in range(b)]
        indices, probs = reports(config, phi, rates, marked)
        assert indices.tolist() == [index_of(p) for p in marked]
        assert probs.shape == (b, 2**7) and probs.dtype == np.float64
        for (rho, rest, surv), ix, row in zip(summaries(config, phi, rates, marked),
                                              indices, probs):
            assert (rho, surv) == (row[ix], row.sum())
            assert rest == surv - rho

    # each bad per-run value raises what RunConfig raises for it; a list is
    # the per-run array itself, its first entry the value RunConfig gets
    @pytest.mark.parametrize("field,bad,match", [
        ("phi", math.nan, "phi"), ("phi", math.inf, "phi"), ("phi", True, "phi"),
        ("phi", -0.5, "phi"), ("phi", 1j, "phi"),
        ("rates", (math.nan, 0.0), "rate"), ("rates", (0.1, -math.inf), "rate"),
        ("rates", (True, False), "rate"), ("rates", (-0.1, 0.0), "rate"),
        ("rates", (0.1,), "rates"), ("rates", (0.1, 0.2, 0.3), "rates"),
        ("marked", "xq", "pattern"), ("marked", "eee", "pattern"), ("marked", "", "pattern"),
        ("phi", [True, 0.5], "phi"), ("phi", [np.True_, 0.5], "phi"),
        ("rates", [(True, 0.0), (0.1, 0.1)], "rate"),
        ("rates", (4.0, 0.0), "rate"),
        pytest.param("phi", 10**400, "phi", id="phi-int-too-large-for-a-float"),
    ])
    def test_bad_per_run_value_rejected_as_by_run_config(self, field, bad, match):
        runs = bad if isinstance(bad, list) else [bad, bad]
        with pytest.raises((ValueError, DqsaError)) as by_config:
            RunConfig(**(dict(n=2, marked="ee", phi=1.0) | {field: runs[0]}))
        with pytest.raises(by_config.type, match=match):
            summaries(RunConfig(2, "ee", 1.0), **{field: runs})

    def test_fraction_phase_treated_as_by_run_config(self):
        # a Fraction is neither an int nor a float number: both reject it
        with pytest.raises(ValueError, match="phi"):
            RunConfig(2, "ee", Fraction(1, 2))
        with pytest.raises(ValueError, match="phi"):
            summaries(RunConfig(2, "ee", 1.0), phi=[Fraction(1, 2), 0.5])

    @pytest.mark.parametrize("arrays", [
        dict(phi=[0.1, 0.2], marked=["ee"]),
        dict(phi=[0.1], rates=[(0.0, 0.0), (0.1, 0.1)]),
        dict(phi=[[0.1, 0.2]]),
        dict(rates=[0.1, 0.2]),
        dict(rates=[(0.1,), (0.1, 0.2)]),
    ])
    def test_batch_shape_checked(self, arrays):
        # the error names the array at fault, the last one given
        with pytest.raises(DimensionMismatch, match=list(arrays)[-1]):
            summaries(RunConfig(2, "ee", 1.0), **arrays)

    @pytest.mark.parametrize("arrays,name", [
        (dict(marked="ge"), "marked"),  # had given two runs, one per symbol
        (dict(phi=[0.5, 0.6], marked="ge"), "marked"),
        (dict(phi=0.5), "phi"),  # had raised TypeError from len()
        (dict(phi=np.float64(0.5)), "phi"),
        (dict(phi=np.array(0.5)), "phi"),
        (dict(rates=0.2), "rates"),
        (dict(phi=[0.5], rates=0.2), "rates"),
        (dict(marked=1), "marked"),
    ])
    @pytest.mark.parametrize("entry", [summaries, reports, search._marked_probabilities])
    def test_scalar_or_string_is_no_per_run_array(self, entry, arrays, name):
        with pytest.raises(DimensionMismatch, match=f"^{name}: expected one entry per run"):
            entry(RunConfig(1, "g", 1.0), **arrays)


class TestKnownOutcomes:
    def test_two_qubit_search_is_exact(self):
        # the lossless n=2 search lands on the marked state exactly
        state = run(RunConfig(2, "ee", 1.0))
        np.testing.assert_allclose(state, [0, 0, 0, 1], atol=1e-12)

    def test_three_qubit_grover_probability(self):
        rep = report(RunConfig(3, "ege", 1.0))
        assert rep.marked_prob == pytest.approx(0.9453, abs=5e-4)
        assert rep.survival == pytest.approx(1.0, abs=1e-12)

    def test_weakly_damped_two_qubit(self):
        rep = report(RunConfig(2, "ee", 1.0, (1 / 113, 1 / 90)))
        assert rep.marked_prob == pytest.approx(0.9618, abs=2e-3)
        assert all(v <= 1e-4 for v in rep.unmarked.values())
        assert rep.survival < 1.0

    def test_strong_damping_convention_split(self):
        # the two W-gate conventions separate visibly at strong rates
        rates = (0.8, 7 / 9)
        composite = report(RunConfig(2, "gg", 0.331, rates)).marked_prob
        tabulated = report(RunConfig(2, "gg", 0.331, rates, convention="tabulated")).marked_prob
        assert tabulated == pytest.approx(0.3244, abs=2e-3)
        assert composite == pytest.approx(0.3181, abs=2e-3)
        assert abs(tabulated - composite) > 4e-3

    def test_overdamped_rate_rejected_at_run(self):
        with pytest.raises(OverdampedQubit):
            run(RunConfig(2, "ee", 1.0, (4.0, 0.0)))


class TestReport:
    def test_unmarked_keys_complete_and_ordered(self):
        rep = report(RunConfig(3, "ege", 0.7))
        assert list(rep.unmarked) == ["ggg", "gge", "geg", "gee", "egg", "eeg", "eee"]
        assert "ege" not in rep.unmarked
        assert rep.marked_pattern == "ege"

    def test_sum_unmarked(self):
        rep = report(RunConfig(2, "ee", 1.0))
        assert rep.sum_unmarked == pytest.approx(sum(rep.unmarked.values()), abs=1e-15)
        assert rep.marked_prob + rep.sum_unmarked == pytest.approx(rep.survival, abs=1e-12)

    def test_report_is_its_reports_row(self):
        cfg = RunConfig(4, "gege", 0.61, (0.3, 0.0, 0.2, 0.7), iterations=5)
        rep, ((ix,), (row,)) = report(cfg), reports(cfg)
        assert rep.marked_prob == row[ix] and rep.survival == row.sum()
        assert list(rep.unmarked.values()) == np.delete(row, ix).tolist()

    def test_probabilities_match_state(self):
        cfg = RunConfig(3, "gge", 0.43, (0.2, 0.1, 0.4))
        rep = report(cfg)
        state = run(cfg)
        probs = np.abs(state) ** 2
        assert rep.marked_prob == pytest.approx(probs[1], abs=1e-15)
        assert rep.survival == pytest.approx(probs.sum(), abs=1e-15)


class TestTrace:
    def test_trace_length_and_final_value(self):
        cfg = RunConfig(4, "egge", 0.9, (0.1, 0.0, 0.3, 0.2), iterations=5)
        trace = marked_amplitude_trace(cfg)
        assert len(trace) == 5
        final = run(cfg)[index_of("egge")]
        assert trace[-1] == pytest.approx(complex(final), abs=1e-12)

    def test_two_qubit_trace(self):
        trace = marked_amplitude_trace(RunConfig(2, "ee", 1.0))
        assert trace == [pytest.approx(1.0 + 0j, abs=1e-12)]

    def test_grover_amplitude_grows_monotonically(self):
        cfg = RunConfig(5, "geege", 1.0, iterations=4)
        probs = [abs(a) ** 2 for a in marked_amplitude_trace(cfg)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_two_level_at_phi_1_is_grover(self, n):
        assert abs(abs(two_level(n, 1.0, n - 1)[-1]) ** 2 - grover_closed_form(n)) <= 1e-12

    @given(cfg=undamped_runs())
    def test_undamped_trace_equals_two_level(self, cfg):
        # every round, not only the last (worst seen 1.3e-13 in 240 draws)
        trace = marked_amplitude_trace(cfg)
        assert len(trace) == cfg.iterations
        exact = two_level(cfg.n, cfg.phi, cfg.iterations)
        assert np.max(np.abs(np.subtract(trace, exact))) <= 1e-12

    @given(cfg=undamped_runs())
    def test_undamped_probability_symmetric_in_phi(self, cfg):
        # phi -> 2 - phi conjugates every undamped gate (worst seen 4.9e-14)
        mirror = RunConfig(cfg.n, cfg.marked, 2.0 - cfg.phi, iterations=cfg.iterations)
        probs = np.abs(marked_amplitude_trace(cfg)) ** 2
        assert np.max(np.abs(probs - np.abs(marked_amplitude_trace(mirror)) ** 2)) <= 1e-12


class TestDenseCrossCheck:
    @pytest.mark.parametrize("n,marked,phi,rates,convention", [
        (2, "ge", 0.55, (0.3, 0.9), "composite"),
        (3, "ege", 1.0, (0.0, 0.0, 0.0), "composite"),
        (4, "geeg", 0.86, (0.5, 0.1, 0.0, 0.8), "composite"),
        (3, "gge", 0.331, (0.8, 0.8, 0.7), "tabulated"),
        # qubit groups 3+2, 3+3+1 and 3+3+2, damped, under both conventions
        (5, "egeeg", 0.72, (0.2, 0.0, 0.6, 0.3, 0.9), "composite"),
        (5, "ggege", 1.31, (0.7, 0.4, 0.1, 0.0, 0.5), "tabulated"),
        (7, "geegeeg", 0.93, (0.1, 0.0, 0.4, 0.2, 0.05, 0.3, 0.6), "composite"),
        (7, "eeggege", 0.48, (0.5, 0.2, 0.0, 0.8, 0.3, 0.1, 0.4), "tabulated"),
        (8, "egeegegg", 1.07, (0.3, 0.6, 0.0, 0.2, 0.9, 0.1, 0.4, 0.05), "composite"),
        (8, "gegeeegg", 0.66, (0.1, 0.3, 0.5, 0.7, 0.0, 0.2, 0.4, 0.6), "tabulated"),
    ])
    def test_matrix_free_equals_dense(self, n, marked, phi, rates, convention):
        state = run(RunConfig(n, marked, phi, rates, convention=convention))
        ref = dense_run(n, marked, phi, rates, convention=convention)
        np.testing.assert_allclose(state, ref, atol=1e-12)

    def test_block_columns_equal_dense(self):
        # one engine block per convention whose columns differ in pattern,
        # phase and rates: each summary equals the dense run of its column
        rng = np.random.default_rng(8)
        for convention in ("composite", "tabulated"):
            patterns = ["".join(rng.choice(["g", "e"], 5)) for _ in range(7)]
            phis = rng.uniform(0.1, 1.9, 7)
            rates = rng.uniform(0.0, 0.9, (7, 5))
            assert len(patterns) <= points_per_block(5, 6)
            config = RunConfig(5, "ggggg", 1.0, iterations=6, convention=convention)
            rows = summaries(config, phi=phis, rates=rates, marked=patterns)
            for pattern, phi, g, (rho, rest, surv) in zip(patterns, phis, rates, rows):
                probs = np.abs(dense_run(5, pattern, phi, tuple(g), 6, convention)) ** 2
                marked = probs[index_of(pattern)]
                assert abs(rho - marked) <= 1e-12
                assert abs(rest - (probs.sum() - marked)) <= 1e-12
                assert abs(surv - probs.sum()) <= 1e-12


def summaries_peak(config, **arrays) -> int:
    """tracemalloc peak, in bytes, of one ``summaries`` call."""
    tracemalloc.start()
    try:
        summaries(config, **arrays)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestProductEngine:
    @given(cfg=damped_configs())
    def test_run_equals_dense(self, cfg):
        ref = dense_run(cfg.n, cfg.marked, cfg.phi, cfg.rates, cfg.iterations, cfg.convention)
        np.testing.assert_allclose(run(cfg), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_undamped_marked_probability_closed_form(self, n):
        # phi=1 without damping is Grover's search: sin^2((2k+1) asin 2^(-n/2))
        marked = "".join("ge"[(n * v) % 3 == 1] for v in range(n))
        angle = math.asin(2 ** (-n / 2))
        for k in (1, 2, 3, 5, 8, 13, 21, 34, 50):
            rho = summaries(RunConfig(n, marked, 1.0, iterations=k))[0][0]
            assert abs(rho - math.sin((2 * k + 1) * angle) ** 2) <= 1e-12

    def test_block_rows_equal_one_point_blocks(self):
        # a row of a full block is bitwise the run evolved alone, under each
        # convention
        rng = np.random.default_rng(9)
        b = points_per_block(9, 8)
        for convention in ("composite", "tabulated"):
            config = RunConfig(9, "g" * 9, 1.0, convention=convention)
            patterns = ["".join(rng.choice(["g", "e"], 9)) for _ in range(b)]
            marked, phi, rates = _batch(config, rng.uniform(0.0, 2.0, b),
                                        rng.uniform(0.0, 1.0, (b, 9)), patterns)
            block = _materialize(*_terms(config, marked, phi, rates))
            for k, row in enumerate(block):
                alone = RunConfig(9, patterns[k], float(phi[k]), tuple(rates[k].tolist()),
                                  convention=convention)
                assert np.array_equal(row, run(alone))


class TestSymmetricOracle:
    # with one rate on every qubit the run keeps (w + 1)(n - w + 1) amplitudes
    # (`helpers.symmetric_run`), so an oracle independent of the engine
    # reaches the benchmark's n = 9 and 12, where `dense_run` does not
    @given(cfg=uniform_rate_runs())
    def test_uniform_rate_run_equals_symmetric_oracle(self, cfg):
        ref = symmetric_run(cfg.n, cfg.marked, cfg.phi, cfg.rates[0], cfg.iterations,
                            cfg.convention)
        assert summaries(cfg)[0] == pytest.approx(ref, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n,points,convention,blocks", [
        (9, 400, "composite", [156, 156, 88]),
        (12, 130, "tabulated", [108, 22]),
    ])
    def test_mixed_batch_equals_symmetric_oracle(self, n, points, convention, blocks):
        # each point has its own pattern, phase and uniform rate, over
        # several recurrence blocks and the state blocks within them
        assert planned_blocks(n, n - 1, points)[0] == blocks
        rng = np.random.default_rng(n)
        patterns = ["".join(rng.choice(["g", "e"], n)) for _ in range(points)]
        phis, rates = rng.uniform(0.0, 2.0, points), rng.uniform(0.0, 1.5, points)
        config = RunConfig(n, "g" * n, 1.0, convention=convention)
        rows = summaries(config, phi=phis, rates=np.outer(rates, np.ones(n)), marked=patterns)
        for pattern, phi, g, row in zip(patterns, phis.tolist(), rates.tolist(), rows):
            ref = symmetric_run(n, pattern, phi, g, n - 1, convention)
            assert row == pytest.approx(ref, rel=0, abs=1e-12)


class TestEngineCalls:
    # each recurrence block evolved to its terms once, and each of its state
    # blocks materialized once from a real (float64) vector table, as
    # planned from the two widths; the trace reads the terms' recurrence
    # alone
    @pytest.mark.parametrize("entry", [summaries, reports])
    @pytest.mark.parametrize("n,iterations,points", [(3, 2, 1000), (9, 8, 60), (12, 11, 7),
                                                     (12, 50, 5), (9, 8, 110), (12, 11, 70),
                                                     (9, 8, 200), (12, 11, 120)])
    def test_one_terms_and_one_materialize_call_per_block(self, monkeypatch, entry, n,
                                                          iterations, points):
        calls = record_blocks(monkeypatch)
        entry(RunConfig(n, "e" * n, 1.0, iterations=iterations), phi=np.linspace(0, 2, points))
        assert (calls.recurrence, calls.state) == planned_blocks(n, iterations, points)
        assert calls.dtypes == [np.float64] * len(calls.state)

    @pytest.mark.parametrize("n,iterations,size,width", [(3, 2, 555, 555), (7, 6, 119, 238),
                                                         (9, 8, 52, 156), (12, 11, 12, 108)])
    def test_block_widths(self, n, iterations, size, width):
        # the recurrence block is a whole number of state blocks: at
        # k = n - 1 one from n=3 to n=6, two at n=2, 7 and 8, three at n=9
        # and nine at n=12
        assert (points_per_block(n, iterations), recurrence_width(n, iterations)) == (size, width)

    def test_run_is_one_block(self, monkeypatch):
        calls = record_blocks(monkeypatch)
        run(RunConfig(5, "geege", 0.8, (0.1,) * 5))
        assert calls == EngineCalls([1], [1], [np.float64])

    @pytest.mark.parametrize("n,iterations,points", [(3, 2, 1000), (9, 8, 60), (12, 11, 7),
                                                     (12, 50, 5), (9, 8, 230), (12, 11, 130)])
    def test_marked_read_evolves_each_block_once_and_materializes_nothing(
            self, monkeypatch, n, iterations, points):
        calls = record_blocks(monkeypatch)
        config = RunConfig(n, "e" * n, 1.0, iterations=iterations)
        _marked_probabilities(config, phi=np.linspace(0, 2, points))
        assert calls == EngineCalls(planned_blocks(n, iterations, points)[0], [], [])

    def test_trace_materializes_nothing(self, monkeypatch):
        calls = record_blocks(monkeypatch)
        marked_amplitude_trace(RunConfig(12, "e" * 12, 0.7, iterations=50))
        assert calls == EngineCalls([1], [], [])


class TestMarkedRead:
    @given(cfg=damped_configs(), seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 3))
    def test_equals_summaries(self, cfg, seed, blocks):
        # one to three recurrence blocks and one run more, at a budget of
        # 2^12 so that blocks stay small: the recurrence's marked
        # probability against the materialized one (worst seen 4.4e-16 in
        # 400 draws)
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "BLOCK_AMPLITUDES", 2**12)
            b = blocks * recurrence_width(cfg.n, cfg.iterations) + 1
            phi, rates = rng.uniform(0.0, 2.0, b), rng.uniform(0.0, 1.5, (b, cfg.n))
            marked = ["".join(rng.choice(["g", "e"], cfg.n)) for _ in range(b)]
            read = _marked_probabilities(cfg, phi, rates, marked)
            rows = summaries(cfg, phi, rates, marked)
        assert len(read) == b
        assert max(abs(p - rho) for p, (rho, _, _) in zip(read, rows)) <= 1e-12

    def test_omitted_arrays_take_the_config_values(self):
        config = RunConfig(4, "gege", 0.61, (0.3, 0.0, 0.2, 0.7), iterations=5)
        assert _marked_probabilities(config) == _marked_probabilities(
            config, phi=[0.61], rates=[config.rates], marked=["gege"])
        assert _marked_probabilities(config, phi=[]) == []


class TestBudget:
    # a row does not depend on the width of its blocks, so every budget gives
    # the same bytes, in the blocks each budget plans: at n=9 recurrence
    # blocks of 5, 78 and 156 runs split into state blocks of 1, 26 and 52
    # at 2^12, 2^16 and 2^17 (at n=12, k=50, 1, 12 and 20 split into 1, 2
    # and 5: the 5 points make one recurrence block at 2^16 and 2^17); the
    # marked read evolves the same recurrence blocks and no state block
    @pytest.mark.parametrize("entry", [summaries, reports, _marked_probabilities])
    @pytest.mark.parametrize("n,iterations,points", [(9, 8, 1000), (12, 50, 5)])
    def test_output_does_not_depend_on_the_budget(self, monkeypatch, entry, n, iterations,
                                                  points):
        rng = np.random.default_rng(n)
        config = RunConfig(n, "eg" * (n // 2) + "e" * (n % 2), 1.0, iterations=iterations)
        phi, rates = np.linspace(0.001, 2.0, points), rng.uniform(0.0, 1.0, (points, n))
        outputs = []
        for budget in (2**12, 2**16, 2**17):
            with monkeypatch.context() as patch:
                patch.setattr(search, "BLOCK_AMPLITUDES", budget)
                recurrence, state = planned_blocks(n, iterations, points)
                calls = record_blocks(patch)
                out = entry(config, phi=phi, rates=rates)
            assert calls.recurrence == recurrence
            assert calls.state == ([] if entry is _marked_probabilities else state)
            parts = out if entry is reports else [out]
            outputs.append(b"".join(np.asarray(part).tobytes() for part in parts))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestMemory:
    # A state block's budget counts each run's amplitudes and probabilities,
    # its real half tables and power table, the right table times the
    # coefficients, and its recurrence (see points_per_block); a recurrence
    # block's counts T*(3n + 16) per run.  At 2^17 16-byte units the peak
    # was 0.82-2.05 MiB on the grids here (n=2 lowest; 1.72 MiB at n=9 and
    # 2.05 MiB at n=12 with 120 points, in recurrence blocks of 156 and 108
    # runs), 1.17 MiB at n=12 with 50 iterations and 1.60 MiB at n=12 with
    # the most iterations allowed there, 346.
    @pytest.mark.parametrize("n,points", [(2, 1000), (3, 1000), (4, 1000), (6, 1000),
                                          (9, 1000), (12, 40), (7, 1000), (12, 120)])
    def test_summaries_peak_is_bounded(self, n, points):
        phi = [0.001 + 1.999 * k / points for k in range(points)]
        assert summaries_peak(RunConfig(n, "e" * n, 1.0, (0.1,) * n), phi=phi) <= 2.5 * 2**20

    def test_deep_n12_peak_is_bounded(self):
        # the largest register at the deepest iteration count of the benchmark
        config = RunConfig(12, "e" * 12, 1.0, (0.1,) * 12, iterations=50)
        assert summaries_peak(config, phi=[0.1 + 0.4 * k for k in range(5)]) <= 2.5 * 2**20

    def test_most_iterations_peak_is_bounded(self):
        # the largest register at the most iterations RunConfig allows there:
        # a whole recurrence block of two runs, each its own state block
        config = RunConfig(12, "e" * 12, 1.0, (0.1,) * 12, iterations=346)
        assert summaries_peak(config, phi=[0.3, 0.7]) <= 2.5 * 2**20


class TestConcurrency:
    def test_parallel_reports_match_serial(self):
        configs = [RunConfig(4, "egee", k / 10) for k in range(1, 11)]
        serial = [report(c).marked_prob for c in configs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = [r.marked_prob for r in pool.map(report, configs)]
        assert serial == parallel
