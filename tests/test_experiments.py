"""Summary-row comparison, sweeps, peak search, and reference tables."""

import json
import math

import pytest
from hypothesis import given

from dqsa.errors import (
    DimensionMismatch,
    InvalidPattern,
    NegativePhase,
    OverdampedQubit,
    UnknownTable,
    UnsupportedSize,
)
from dqsa.search import RunConfig, points_per_block, report, reports
from dqsa.experiments import (
    AVAILABLE_TABLES,
    OFFSET_TABLES,
    SUMMARY_GROVER,
    SUMMARY_PHI_P,
    SweepSpec,
    _load_table,
    appendix_reproduce,
    comparison_to_csv,
    comparison_to_json,
    peak_search,
    run_to_json,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    table1,
    table1_comparison,
)

from helpers import (
    appendix_rows_by_dict,
    damped_configs,
    grover_closed_form,
    record_blocks,
    run_json_by_dict,
    worst_row_vs_report,
)


class TestSummaryTable:
    def test_table1_row_for_four_qubits(self):
        phi_p, present, grover = table1(4)
        assert phi_p == 0.6933
        assert present >= 0.999
        assert grover == pytest.approx(0.9613, abs=5e-4)

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            table1(10)
        with pytest.raises(UnsupportedSize):
            table1(1)

    def test_grover_closed_form(self):
        assert grover_closed_form(3) == pytest.approx(0.9453, abs=5e-5)
        assert grover_closed_form(2) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_simulation(self):
        for n in (2, 3, 4, 5):
            _, _, grover = table1(n)
            assert grover == pytest.approx(grover_closed_form(n), abs=1e-12)

    def test_comparison_small_sizes(self):
        rep = table1_comparison(ns=(2, 3))
        assert rep.all_pass
        assert [r.label for r in rep.rows] == [
            "n=2 present", "n=2 grover", "n=3 present", "n=3 grover"]


class TestPeakSearch:
    def test_three_qubits(self):
        phi, rho = peak_search(3, "eee")
        assert rho >= 0.9999
        assert abs(phi - SUMMARY_PHI_P[3]) < 0.01

    def test_two_qubit_plateau_resolves_left(self):
        # rho is flat at the top for n=2; the scan takes the first maximum
        phi, rho = peak_search(2, "gg")
        assert rho >= 0.9999
        assert phi <= 1.0

    def test_seven_qubit_peak_value(self):
        _, rho = peak_search(7, "e" * 7)
        assert rho == pytest.approx(0.8335, abs=1e-3)


class TestSweepSpec:
    def test_grid_endpoints(self):
        spec = SweepSpec(n=2, marked="ee", start=0.0, stop=1.0, steps=5)
        assert spec.grid() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(n=2, marked="ee", axis="time")

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            SweepSpec(n=2, marked="ee", steps=1)

    def test_phase_grid_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec(n=2, marked="ee", axis="phase", start=0.5, stop=2.5, steps=3)

    def test_dissipation_grid_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec(n=2, marked="ee", axis="dissipation", start=0.0, stop=4.0, steps=3)

    @pytest.mark.parametrize("field,kwargs", [
        ("phi start", dict(start=math.nan)), ("phi stop", dict(stop=math.inf)),
        ("phi start", dict(start=True)), ("steps", dict(steps=True)),
        ("gbar stop", dict(axis="dissipation", stop=math.nan)),
        ("phi", dict(axis="dissipation", phi=math.nan)),
        ("phi", dict(axis="dissipation", phi=-math.inf)),
        ("rate", dict(rates=(math.nan, 0.0))),
        ("rate", dict(axis="dissipation", weights=(1.0, math.inf))),
        ("rate", dict(axis="dissipation", weights=(True, 1.0))),
    ])
    def test_non_finite_or_bool_rejected(self, field, kwargs):
        args = dict(n=2, marked="ee", start=0.0, stop=1.0, steps=3) | kwargs
        with pytest.raises(ValueError, match=field):
            SweepSpec(**args)

    @pytest.mark.parametrize("kwargs,error", [
        (dict(marked="xyz"), InvalidPattern),
        (dict(marked="eee"), DimensionMismatch),
        (dict(axis="dissipation", marked="e"), DimensionMismatch),
        (dict(convention="bogus"), ValueError),
        (dict(axis="dissipation", convention="bogus"), ValueError),
    ])
    def test_marked_and_convention_checked(self, kwargs, error):
        # rejected when the spec is built, before any grid point is
        args = dict(n=2, marked="ee", start=0.0, stop=1.0, steps=3) | kwargs
        with pytest.raises(error):
            SweepSpec(**args)

    @pytest.mark.parametrize("field,kwargs", [
        ("phi", dict(phi=0.5)),
        ("weights", dict(weights=(1, 2))),
        ("rates", dict(axis="dissipation", rates=(0.3, 0.0))),
    ])
    def test_field_unused_by_axis_rejected(self, field, kwargs):
        # such a field used to be ignored: the rows equalled a sweep without it
        args = dict(n=2, marked="ee", start=0.0, stop=1.0, steps=3) | kwargs
        with pytest.raises(ValueError, match=field):
            SweepSpec(**args)

    def test_negative_phi_rejected(self):
        # rejected when the spec is built, not when the sweep runs
        with pytest.raises(NegativePhase):
            SweepSpec(n=2, marked="ee", axis="dissipation", phi=-0.5)

    @pytest.mark.parametrize("rates", [(5.0, 0.0), (0.1, 4.0)])
    def test_overdamped_rate_rejected_when_built(self, rates):
        with pytest.raises(OverdampedQubit):
            SweepSpec(n=2, marked="ee", rates=rates)

    def test_overdamped_top_rate_rejected(self):
        # the last grid point would give qubit 1 the rate 3.5 * 1.5 = 5.25
        with pytest.raises(OverdampedQubit, match="5.25"):
            SweepSpec(n=2, marked="ee", axis="dissipation", stop=3.5, weights=(1.5, 1.0))
        assert SweepSpec(n=2, marked="ee", axis="dissipation", stop=3.5, weights=(1.1, 1.0))

    def test_dissipation_phi_defaults_to_1(self):
        spec = SweepSpec(n=2, marked="ee", axis="dissipation", steps=3)
        assert spec.phi == 1.0


class TestPhaseSweep:
    def test_zero_phase_leaves_uniform_distribution(self):
        spec = SweepSpec(n=3, marked="ege", start=0.0, stop=1.0, steps=3)
        rows = sweep(spec)
        phi0 = rows[0]
        assert phi0[0] == 0.0
        assert phi0[2] == pytest.approx(1 / 8, abs=1e-12)   # marked prob
        assert phi0[4] == pytest.approx(1.0, abs=1e-12)     # survival

    def test_tau_column(self):
        spec = SweepSpec(n=2, marked="ee", start=0.5, stop=1.0, steps=2)
        rows = sweep(spec)
        for phi, tau, *_ in rows:
            assert tau == pytest.approx(phi * math.pi / 4, abs=1e-15)

    def test_lossless_survival_stays_one(self):
        spec = SweepSpec(n=4, marked="geeg", start=0.1, stop=1.9, steps=7)
        for _, _, rho, sum_unmarked, surv in sweep(spec):
            assert surv == pytest.approx(1.0, abs=1e-12)
            assert rho + sum_unmarked == pytest.approx(surv, abs=1e-12)

    def test_six_qubit_ceiling(self):
        # with no damping the n=6 success probability tops out just above 0.96
        spec = SweepSpec(n=6, marked="e" * 6, start=0.9, stop=1.1, steps=21)
        top = max(r[2] for r in sweep(spec))
        assert 0.96 <= top <= 0.97



def dissipation_spec(n, marked, phi, start, stop, steps, weights=()) -> SweepSpec:
    return SweepSpec(n=n, marked=marked, axis="dissipation", start=start, stop=stop,
                     steps=steps, phi=phi, weights=weights)


class TestDissipationSweep:
    def test_zero_rate_point_matches_lossless_run(self):
        rows = sweep(dissipation_spec(3, "ege", 1.0, 0.0, 0.5, 3))
        direct = report(RunConfig(3, "ege", 1.0))
        assert rows[0][0] == 0.0
        assert rows[0][3] == pytest.approx(direct.marked_prob, abs=1e-15)

    def test_probability_decreases_with_uniform_rate(self):
        rows = sweep(dissipation_spec(4, "egee", 0.45008, 0.0, 0.9, 10))
        probs = [r[3] for r in rows]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_phi_and_tau_columns(self):
        for _, phi, tau, *_ in sweep(dissipation_spec(3, "ege", 0.6, 0.0, 0.5, 3)):
            assert phi == 0.6
            assert tau == pytest.approx(0.6 * math.pi / 8, abs=1e-15)

    def test_weighted_rates(self):
        # weight vector (1, 0): only qubit 1 is damped
        rows = sweep(dissipation_spec(2, "ee", 1.0, 0.0, 0.5, 2, weights=(1.0, 0.0)))
        direct = report(RunConfig(2, "ee", 1.0, (0.5, 0.0)))
        assert rows[1][0] == 0.5
        assert rows[1][3] == pytest.approx(direct.marked_prob, abs=1e-15)

    def test_weight_length_checked(self):
        with pytest.raises(DimensionMismatch):
            dissipation_spec(3, "ege", 1.0, 0.0, 1.0, 3, weights=(1.0, 0.5))

    @pytest.mark.parametrize("bad", [True, math.nan, math.inf])
    def test_non_finite_or_bool_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="rate"):
            dissipation_spec(2, "ee", 1.0, 0.0, 0.5, 2, weights=(bad, 1.0))


class TestReferenceTables:
    def test_available_ids(self):
        assert AVAILABLE_TABLES == tuple(range(2, 12))
        assert set(OFFSET_TABLES) <= set(AVAILABLE_TABLES)

    def test_unknown_table(self):
        with pytest.raises(UnknownTable):
            _load_table(1)
        with pytest.raises(UnknownTable):
            appendix_reproduce(12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            appendix_reproduce(2, convention="bogus")

    def test_weak_two_qubit_metadata(self):
        n, rates, phis, marked, unmarked = _load_table(2)
        assert n == 2
        assert rates == pytest.approx((1 / 113, 1 / 90))
        assert phis == (0.331, 0.566, 0.9425, 1.0)
        assert [marked[("ee", p)] for p in phis] == [0.5583, 0.8537, 0.9625, 0.9618]

    def test_pinned_cells(self):
        _, _, _, marked5, _ = _load_table(5)
        assert marked5[("eeee", 0.331)] == 0.5433
        _, _, _, marked9, _ = _load_table(9)
        assert marked9[("gggggg", 1.0)] == 0.8776

    def test_unmarked_cell_counts(self):
        n, _, _, marked, unmarked = _load_table(4)
        assert all(len(vals) == 2**n - 1 for vals in unmarked.values())
        assert set(unmarked) <= set(marked)

    def test_weak_table_reproduces(self):
        rep = appendix_reproduce(2)
        assert rep.all_pass
        assert rep.worst < 2e-4

    def test_offset_table_under_both_conventions(self):
        composite = appendix_reproduce(3)
        assert not composite.all_pass
        assert 2e-3 < composite.worst <= 9e-3
        tabulated = appendix_reproduce(3, convention="tabulated")
        assert tabulated.all_pass

    @pytest.mark.parametrize("convention", ["composite", "tabulated"])
    @pytest.mark.parametrize("table_id", AVAILABLE_TABLES)
    def test_rows_equal_dict_reference(self, table_id, convention):
        rows = appendix_reproduce(table_id, convention=convention).rows
        assert [(r.label, r.paper, r.computed) for r in rows] == appendix_rows_by_dict(
            table_id, convention)

    def test_row_labels(self):
        rep = appendix_reproduce(2)
        labels = [r.label for r in rep.rows]
        assert "table02 ee phi=0.331 marked" in labels
        assert "table02 ee phi=0.331 unmarked[0]" in labels


class TestSerialization:
    def test_comparison_csv_shape(self):
        rep = table1_comparison(ns=(2,))
        text = comparison_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "label,paper,computed,absdiff,pass"
        assert len(lines) == 1 + len(rep.rows)
        assert lines[1].startswith("n=2 present,")
        assert lines[1].endswith(",true")

    def test_comparison_json_round_trip(self):
        rep = table1_comparison(ns=(2,))
        doc = json.loads(comparison_to_json(rep))
        assert doc["all_pass"] is True
        assert {"label", "paper", "computed", "absdiff", "pass"} == set(doc["rows"][0])

    def test_sweep_csv_headers(self):
        spec = SweepSpec(n=2, marked="ee", start=0.2, stop=0.4, steps=2)
        text = sweep_to_csv(sweep(spec))
        assert text.startswith("phi,tau,marked_prob,sum_unmarked,survival\n")
        rows = sweep(dissipation_spec(2, "ee", 1.0, 0.0, 0.5, 2))
        text = sweep_to_csv(rows, axis="dissipation")
        assert text.startswith("gbar,phi,tau,marked_prob,sum_unmarked,survival\n")

    def test_sweep_json_columns(self):
        rows = sweep(dissipation_spec(2, "ee", 1.0, 0.0, 0.5, 2))
        doc = json.loads(sweep_to_json(rows, axis="dissipation"))
        assert list(doc[0]) == ["gbar", "phi", "tau", "marked_prob", "sum_unmarked", "survival"]

    @given(cfg=damped_configs())
    def test_run_json_equals_dict_reference(self, cfg):
        (marked,), (row,) = reports(cfg)
        assert run_to_json(cfg, marked, row) == run_json_by_dict(cfg)

    def test_run_json_of_one_qubit(self):
        # n=1: one remaining state, the smallest block json.dumps writes
        cfg = RunConfig(1, "g", 0.3, (0.2,))
        (marked,), (row,) = reports(cfg)
        text = run_to_json(cfg, marked, row)
        assert text == run_json_by_dict(cfg)
        assert list(json.loads(text)["unmarked"]) == ["e"]

    def test_csv_emission_is_deterministic(self):
        spec = SweepSpec(n=3, marked="geg", start=0.1, stop=1.5, steps=9)
        assert sweep_to_csv(sweep(spec)) == sweep_to_csv(sweep(spec))


class TestRunConfigCount:
    # a multi-point computation checks its shared parameters once, in one
    # RunConfig, and passes what varies as arrays
    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        post_init = RunConfig.__post_init__

        def counting(config):
            built.append(config)
            post_init(config)

        monkeypatch.setattr(RunConfig, "__post_init__", counting)
        return built

    @pytest.mark.parametrize("spec", [
        SweepSpec(n=9, marked="e" * 9, start=0.001, stop=2.0, steps=1000),
        SweepSpec(n=9, marked="e" * 9, axis="dissipation", stop=0.9, steps=1000),
    ])
    def test_sweep(self, built, spec):
        assert len(sweep(spec)) == 1000
        assert len(built) <= 2

    def test_peak_search(self, built):
        peak_search(4, "egee", (0.1, 0.0, 0.2, 0.05))
        assert len(built) <= 2


class TestBlocks:
    def test_block_split_matches_report(self, monkeypatch):
        # a whole engine block plus a one-point last block: every row, the
        # last one included, agrees with a standalone report of its point
        n, marked, rates = 7, "geegeeg", (0.1, 0.0, 0.4, 0.2, 0.05, 0.3, 0.0)
        steps = points_per_block(n) + 1
        spec = SweepSpec(n=n, marked=marked, start=0.05, stop=1.95, steps=steps, rates=rates)
        blocks = record_blocks(monkeypatch)
        rows = sweep(spec)
        assert blocks == [steps - 1, 1]
        assert len(rows) == steps
        assert worst_row_vs_report(rows, spec) <= 1e-15
        assert sweep_to_csv(rows) == sweep_to_csv(sweep(spec))

    def test_dissipation_block_split_matches_report(self, monkeypatch):
        # the same on the rate axis, with per-qubit weights
        n, marked, weights = 7, "egeggee", (1.0, 0.5, 0.0, 0.25, 2.0, 1.0, 0.75)
        steps = points_per_block(n) + 1
        spec = dissipation_spec(n, marked, 0.81, 0.0, 0.95, steps, weights)
        blocks = record_blocks(monkeypatch)
        rows = sweep(spec)
        assert blocks == [steps - 1, 1]
        assert len(rows) == steps
        assert worst_row_vs_report(rows, spec) <= 1e-15
        text = sweep_to_csv(rows, axis="dissipation")
        assert text == sweep_to_csv(sweep(spec), axis="dissipation")
