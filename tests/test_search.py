"""Search runs: configuration handling, known outcomes, dense cross-check."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dqsa.basis import index_of
from dqsa.errors import DimensionMismatch, InvalidPattern, OverdampedQubit
from dqsa.search import (
    RunConfig,
    marked_amplitude_trace,
    points_per_block,
    report,
    run,
    summaries,
)

from helpers import dense_run


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
    ])
    def test_non_finite_or_bool_rejected(self, field, kwargs):
        args = dict(n=2, marked="ee", phi=1.0) | kwargs
        with pytest.raises(ValueError, match=field):
            RunConfig(**args)

    def test_phase_accessor(self):
        cfg = RunConfig(3, "ege", 0.5)
        assert cfg.phase.n == 3
        assert cfg.phase.phi == 0.5


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

    def test_probabilities_match_state(self):
        cfg = RunConfig(3, "gge", 0.43, (0.2, 0.1, 0.4))
        rep = report(cfg)
        state = run(cfg)
        probs = np.abs(state) ** 2
        assert rep.marked_prob == pytest.approx(probs[1], abs=1e-15)
        assert rep.survival == pytest.approx(probs.sum(), abs=1e-15)


class TestTrace:
    def test_trace_length_and_final_value(self):
        from dqsa.basis import index_of

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
        # one engine block whose columns differ in pattern, phase, rates and
        # convention: each summary equals the dense run of its own column
        rng = np.random.default_rng(8)
        configs = [RunConfig(5, "".join(rng.choice(["g", "e"], 5)), float(rng.uniform(0.1, 1.9)),
                             tuple(rng.uniform(0.0, 0.9, 5).tolist()), iterations=6,
                             convention=("composite", "tabulated")[k % 2])
                   for k in range(7)]
        assert len(configs) <= points_per_block(5)
        for c, (rho, rest, surv) in zip(configs, summaries(configs)):
            probs = np.abs(dense_run(c.n, c.marked, c.phi, c.rates, c.iterations,
                                     c.convention)) ** 2
            marked = probs[index_of(c.marked)]
            assert abs(rho - marked) <= 1e-12
            assert abs(rest - (probs.sum() - marked)) <= 1e-12
            assert abs(surv - probs.sum()) <= 1e-12


class TestMemory:
    # A block holds at most BLOCK_AMPLITUDES amplitudes (0.5 MiB) plus its
    # group factors; its peak stayed at or below 1.8 MiB on every grid here.
    # Blocks sized by amplitudes alone peaked at 3.6-4.0 MiB on the n=3-6
    # grids, whose 8x8 factors outweigh their states.
    @pytest.mark.parametrize("n,points", [(2, 1000), (3, 1000), (4, 1000), (6, 1000),
                                          (9, 1000), (12, 40)])
    def test_summaries_peak_is_bounded(self, n, points):
        configs = [RunConfig(n, "e" * n, 0.001 + 1.999 * k / points, (0.1,) * n)
                   for k in range(points)]
        tracemalloc.start()
        try:
            summaries(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


class TestConcurrency:
    def test_parallel_reports_match_serial(self):
        configs = [RunConfig(4, "egee", k / 10) for k in range(1, 11)]
        serial = [report(c).marked_prob for c in configs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = [r.marked_prob for r in pool.map(report, configs)]
        assert serial == parallel
