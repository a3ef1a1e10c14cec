"""Summary-row comparison, sweeps, peak search, and reference tables."""

import json
import math
from fractions import Fraction

import numpy as np
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
from dqsa.search import RunConfig, points_per_block, reports, summaries
from dqsa.experiments import (
    AVAILABLE_TABLES,
    GROVER_TOLERANCE,
    PRESENT_TOLERANCE,
    SUMMARY_GROVER,
    SUMMARY_PHI_P,
    SUMMARY_PRESENT,
    TABLE_TOLERANCE,
    ComparisonReport,
    SweepSpec,
    _parse_table,
    appendix_reproduce,
    comparison_to_csv,
    comparison_to_json,
    peak_search,
    run_to_json,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    table1_comparison,
)

from helpers import (
    EngineCalls,
    appendix_rows_by_dict,
    comparison_by_rows,
    damped_configs,
    grover_closed_form,
    planned_blocks,
    record_blocks,
    recurrence_width,
    report,
    run_json_by_dict,
    sweep_csv_by_rows,
    table_by_dict,
    table_text,
    worst_row_vs_report,
)


def load_table(table_id: int) -> tuple:
    """`_parse_table` of a bundled table."""
    return _parse_table(table_id, table_text(table_id))


def marked_cells(table_id: int) -> dict:
    """{(pattern, phi): marked value} of a table, from `_parse_table`."""
    _, _, _, patterns, phis, paper = load_table(table_id)
    return dict(zip(zip(patterns, phis.tolist()), paper[:, 0].tolist()))


class TestSummaryTable:
    def test_table1_row_for_four_qubits(self):
        present, grover = table1_comparison(4).computed
        assert SUMMARY_PHI_P[4] == 0.6933
        assert present >= 0.999
        assert grover == pytest.approx(0.9613, abs=5e-4)

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            table1_comparison(10)
        with pytest.raises(UnsupportedSize):
            table1_comparison(1)

    @pytest.mark.parametrize("n", [2.0, "2", True])
    def test_size_must_be_an_int(self, n):
        # a float equal to a size, a numeral or a bool is not a size
        with pytest.raises(ValueError, match="n must be an integer"):
            table1_comparison(n)

    def test_grover_closed_form(self):
        assert grover_closed_form(3) == pytest.approx(0.9453, abs=5e-5)
        assert grover_closed_form(2) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_simulation(self):
        for n in (2, 3, 4, 5):
            _, grover = table1_comparison(n).computed
            assert grover == pytest.approx(grover_closed_form(n), abs=1e-12)

    def test_comparison_small_sizes(self):
        for n in (2, 3):
            rep = table1_comparison(n)
            assert rep.all_pass
            assert rep.labels == [f"n={n} present", f"n={n} grover"]

    # The paper's phi_p column is not the argmax: P(phi_p) falls short of the
    # maximum over (0, 1] by this much, as measured.  For n = 2..5 that
    # maximum is 1, at Long's zero-failure phase (1 - P <= 1.2e-14 measured);
    # for n = 6..9 it is P(1).  Each shortfall stays within 1% of its size.
    PHI_P_SHORTFALL = {2: 4.964e-5, 3: 4.365e-5, 4: 4.841e-5, 5: 4.909e-5,
                       6: 6.528e-5, 7: 9.340e-5, 8: 9.736e-5, 9: 2.308e-5}

    @pytest.mark.parametrize("n", sorted(PHI_P_SHORTFALL))
    def test_phi_p_column_offset(self, n):
        present, grover = table1_comparison(n).computed
        if n <= 5:
            k = n - 1
            long = 2 / math.pi * math.asin(math.sin(math.pi / (4 * k + 2)) * 2 ** (n / 2))
            assert 1 - summaries(RunConfig(n, "e" * n, long))[0][0] <= 1e-13
            top = 1.0
        else:
            phi, top = peak_search(n, "e" * n)
            assert phi == 1.0
            assert top == pytest.approx(grover, abs=1e-15)
        assert top - present == pytest.approx(self.PHI_P_SHORTFALL[n], rel=1e-2)


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

    @pytest.mark.parametrize("symbol", "eg")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_long_zero_failure_phase(self, n, symbol):
        # undamped, k = n - 1 rounds of Long's phase-matched iteration find
        # the marked state with certainty at phi = (2/pi) asin(sin(pi/(4k+2))
        # 2^(n/2)) (G. L. Long, PRA 64, 022307 (2001)); the grid and its
        # parabola came within 9.5e-9 to 4.1e-6 of it, at 1 - rho <= 3.7e-12
        k = n - 1
        exact = 2 / math.pi * math.asin(math.sin(math.pi / (4 * k + 2)) * 2 ** (n / 2))
        phi, rho = peak_search(n, symbol * n)
        assert abs(phi - exact) <= 1e-5
        assert rho >= 1 - 1e-10


class TestSweepSpec:
    def test_grid_endpoints(self):
        # the grid is column 0 of the sweep's rows
        spec = SweepSpec(n=2, marked="ee", start=0.0, stop=1.0, steps=5)
        assert [row[0] for row in sweep(spec)] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_ends_exactly_at_stop(self):
        # start + k*step overshot stop to 4.0: the spec built, and its sweep
        # then raised OverdampedQubit
        stop = float(np.nextafter(4, 0))
        spec = SweepSpec(n=1, marked="e", axis="dissipation", start=0.0, stop=stop, steps=4)
        assert [row[0] for row in sweep(spec)] == np.linspace(0.0, stop, 4).tolist()
        assert sweep(spec)[-1][0] == stop

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
        ("weights", dict(weights=np.ones(2))),
        ("rates", dict(axis="dissipation", rates=np.array([0.3, 0.0]))),
        ("weights", dict(weights=[])),  # empty, but given
    ])
    def test_field_unused_by_axis_rejected(self, field, kwargs):
        # such a field used to be ignored: the rows equalled a sweep without it
        args = dict(n=2, marked="ee", start=0.0, stop=1.0, steps=3) | kwargs
        with pytest.raises(ValueError, match=field):
            SweepSpec(**args)

    @pytest.mark.parametrize("kwargs,same", [
        (dict(rates=np.array([0.1, 0.2])), dict(rates=(0.1, 0.2))),
        (dict(rates=None, weights=None), dict()),
        (dict(weights=None), dict()),
        (dict(axis="dissipation", weights=np.array([1.0, 0.5])),
         dict(axis="dissipation", weights=(1.0, 0.5))),
        (dict(axis="dissipation", weights=None, rates=None),
         dict(axis="dissipation", weights=(1.0, 1.0))),
    ])
    def test_numpy_fields_read_as_their_tuple(self, kwargs, same):
        # an array is read as its tuple is, not by its truth value; None is
        # the field left out
        args = dict(n=2, marked="ee", start=0.0, stop=1.0, steps=3)
        spec = SweepSpec(**args | kwargs)
        assert spec == SweepSpec(**args | same)
        assert hash(spec) == hash(SweepSpec(**args | same))

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

    @pytest.mark.parametrize("kwargs,config", [
        (dict(start=0.25, rates=(0.1, 0.2)), RunConfig(2, "eg", 0.25, (0.1, 0.2))),
        (dict(axis="dissipation", phi=0.5, weights=(1.0, 0.5)), RunConfig(2, "eg", 0.5)),
        (dict(axis="dissipation", convention="tabulated"),
         RunConfig(2, "eg", 1.0, convention="tabulated")),
    ])
    def test_config_is_the_shared_run_config(self, kwargs, config):
        # an attribute set when the spec is built; it takes no part in the
        # spec's repr, equality or hash, which its own fields decide
        spec = SweepSpec(n=2, marked="eg", steps=3, **kwargs)
        assert spec.config == config
        assert "config" not in repr(spec)
        assert not hasattr(spec, "grid")
        with pytest.raises(TypeError):
            SweepSpec(n=2, marked="eg", config=config)

    @pytest.mark.parametrize("axis", ["phase", "dissipation"])
    def test_sweep_builds_no_run_config(self, monkeypatch, axis):
        # the spec checked its RunConfig once, when it was built; the sweep
        # reuses it on either axis
        spec = SweepSpec(n=3, marked="ege", axis=axis, steps=4)
        built, check = [], RunConfig.__post_init__
        monkeypatch.setattr(RunConfig, "__post_init__",
                            lambda config: built.append(config) or check(config))
        rows = sweep(spec)
        assert built == []
        assert len(rows) == 4


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



def dissipation_spec(n, marked, phi, start, stop, steps, weights=None) -> SweepSpec:
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
        # an empty one too: only None takes the default weights of 1
        for weights in ((1.0, 0.5), np.zeros(0), ()):
            with pytest.raises(DimensionMismatch, match=r"rate weights \(gammas\)"):
                dissipation_spec(3, "ege", 1.0, 0.0, 1.0, 3, weights=weights)

    @pytest.mark.parametrize("bad", [True, math.nan, math.inf])
    def test_non_finite_or_bool_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="rate"):
            dissipation_spec(2, "ee", 1.0, 0.0, 0.5, 2, weights=(bad, 1.0))


class TestReferenceTables:
    # the strong-dissipation tables that only the "tabulated" gate convention
    # reproduces; under the default composite convention they carry a known
    # systematic offset (worst marked deviation < 9e-3), README "Known
    # systematic offset"
    OFFSET_TABLES = (3, 11)

    def test_available_ids(self):
        assert AVAILABLE_TABLES == tuple(range(2, 12))
        assert set(self.OFFSET_TABLES) <= set(AVAILABLE_TABLES)

    def test_unknown_table(self):
        with pytest.raises(UnknownTable):
            appendix_reproduce(1)
        with pytest.raises(UnknownTable):
            appendix_reproduce(12)

    @pytest.mark.parametrize("table_id", [2.0, "2", True, np.float64(2.0)],
                             ids=["float", "str", "bool", "numpy-float"])
    def test_table_id_must_be_an_int(self, table_id):
        # 2.0 had failed formatting the file name, and True was reported as
        # "no reference table True"
        with pytest.raises(ValueError, match="table_id must be an integer"):
            appendix_reproduce(table_id)

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            appendix_reproduce(2, convention="bogus")

    def test_weak_two_qubit_metadata(self):
        n, rates, phis, *_ = load_table(2)
        assert n == 2
        assert rates == pytest.approx((1 / 113, 1 / 90))
        assert phis == (0.331, 0.566, 0.9425, 1.0)
        marked = marked_cells(2)
        assert [marked[("ee", p)] for p in phis] == [0.5583, 0.8537, 0.9625, 0.9618]

    def test_pinned_cells(self):
        assert marked_cells(5)[("eeee", 0.331)] == 0.5433
        assert marked_cells(9)[("gggggg", 1.0)] == 0.8776

    def test_unmarked_cell_counts(self):
        # the dict oracle's view of the data: a cell gives none or all of its
        # 2^n - 1 remaining-state values, and only a cell with a marked value
        for table_id in AVAILABLE_TABLES:
            n, _, _, marked, unmarked = table_by_dict(table_id)
            assert all(len(vals) == 2**n - 1 for vals in unmarked.values()), table_id
            assert set(unmarked) <= set(marked), table_id
            assert len(unmarked) in (0, len(marked)), table_id

    @pytest.mark.parametrize("table_id", AVAILABLE_TABLES)
    def test_loader_equals_dict_oracle(self, table_id):
        n, rates, phis, marked, unmarked = table_by_dict(table_id)
        cells = sorted(marked)
        got_n, got_rates, got_phis, patterns, cell_phis, paper = load_table(table_id)
        assert (got_n, got_rates, got_phis) == (n, rates, phis)
        assert list(zip(patterns, cell_phis.tolist())) == cells
        assert paper.shape == (len(cells), 2**n if unmarked else 1)
        assert paper.tolist() == [[marked[c]] + sorted(unmarked.get(c, ()), reverse=True)
                                  for c in cells]

    # the rows of one complete cell of a two-qubit table
    GOOD_ROWS = ("ee,0.5,marked,0.9\nee,0.5,unmarked,0.01\nee,0.5,unmarked,0.02\n"
                 "ee,0.5,unmarked,0.03\n")

    @staticmethod
    def table_text(rows: str) -> str:
        return "# n: 2\n# rates: 1/10, 0\n# phis: 0.5\npattern,phi,kind,value\n" + rows

    def test_parse_of_a_well_formed_text(self):
        n, rates, phis, patterns, cell_phis, paper = _parse_table(7, self.table_text(
            "ee,0.5,unmarked,0.02\nee,0.5,marked,0.9\nee,0.5,unmarked,0.01\n"
            "ee,0.5,unmarked,0.03\n"))
        assert (n, rates, phis, patterns, cell_phis.tolist()) == (2, (0.1, 0.0), (0.5,),
                                                                  ["ee"], [0.5])
        assert paper.tolist() == [[0.9, 0.03, 0.02, 0.01]]

    @pytest.mark.parametrize("rows", [
        pytest.param(GOOD_ROWS + "gg,0.5,marked\n", id="three-fields"),
        pytest.param(GOOD_ROWS + "gg,0.5,marked,0.8,0.1\n", id="five-fields"),
        pytest.param(GOOD_ROWS + "gg,0.5,marked,0.8,\n", id="empty-field"),
        pytest.param(GOOD_ROWS.replace("unmarked,0.02", "remaining,0.02"), id="unknown-kind"),
        pytest.param(GOOD_ROWS.replace("ee,0.5,unmarked,0.03\n", ""), id="short-cell"),
        pytest.param(GOOD_ROWS + "gg,0.5,marked,0.8\n", id="cell-without-remaining"),
        pytest.param(GOOD_ROWS.replace("ee,0.5,marked", "eg,0.5,marked"), id="no-marked-row"),
        pytest.param(GOOD_ROWS.replace("ee,0.5,unmarked,0.01", "ee,0.25,unmarked,0.01"),
                     id="stray-phi"),
        pytest.param(GOOD_ROWS.replace("0.9", "high"), id="not-a-number"),
        pytest.param(GOOD_ROWS.replace(",0.5,", ",0.6,"), id="phi-not-in-header"),
        pytest.param("", id="no-rows"),
    ])
    def test_malformed_table_raises_naming_it(self, rows):
        with pytest.raises(ValueError, match="reference table 7 is malformed"):
            _parse_table(7, self.table_text(rows))

    @pytest.mark.parametrize("rates", ["1/0", "1/", "1/2/3", "0.5", "a/b"])
    def test_bad_rate_raises_naming_the_table(self, rates):
        text = self.table_text(self.GOOD_ROWS).replace("1/10, 0", rates + ", 0")
        with pytest.raises(ValueError, match="reference table 7 is malformed"):
            _parse_table(7, text)

    @pytest.mark.parametrize("table_id", AVAILABLE_TABLES)
    def test_rates_equal_their_fractions(self, table_id):
        (line,) = [ln for ln in table_text(table_id).splitlines() if ln.startswith("# rates:")]
        exact = tuple(float(Fraction(r)) for r in line.partition(":")[2].split(","))
        assert load_table(table_id)[1] == exact

    @pytest.mark.parametrize("field", ["n", "rates", "phis"])
    def test_missing_header_field_raises_naming_it(self, field):
        text = "\n".join(line for line in self.table_text(self.GOOD_ROWS).split("\n")
                         if not line.startswith(f"# {field}:"))
        with pytest.raises(ValueError, match="reference table 7 is malformed"):
            _parse_table(7, text)

    def test_weak_table_reproduces(self):
        rep = appendix_reproduce(2)
        assert rep.all_pass
        assert rep.absdiff.max() < 2e-4

    def test_offset_table_under_both_conventions(self):
        composite = appendix_reproduce(3)
        assert not composite.all_pass
        assert 2e-3 < composite.absdiff.max() <= 9e-3
        tabulated = appendix_reproduce(3, convention="tabulated")
        assert tabulated.all_pass

    # worst cell of each strong-dissipation table as measured (README "Known
    # systematic offset"), composite then tabulated; each stays within 1% of it
    STRONG_WORST = {3: (8.205e-3, 6.869e-5), 6: (1.955e-3, 5.322e-5), 8: (4.104e-4, 5.106e-5),
                    10: (9.595e-5, 1.773e-6), 11: (4.362e-3, 6.004e-5)}

    @pytest.mark.parametrize("table_id", sorted(STRONG_WORST))
    def test_strong_table_worst_cells(self, table_id):
        for convention, measured in zip(("composite", "tabulated"), self.STRONG_WORST[table_id]):
            rep = appendix_reproduce(table_id, convention=convention)
            assert rep.absdiff.max() == pytest.approx(measured, rel=1e-2)
            offset = convention == "composite" and table_id in self.OFFSET_TABLES
            assert rep.all_pass == (not offset)

    @pytest.mark.parametrize("convention", ["composite", "tabulated"])
    @pytest.mark.parametrize("table_id", AVAILABLE_TABLES)
    def test_rows_equal_dict_reference(self, table_id, convention):
        rep = appendix_reproduce(table_id, convention=convention)
        assert list(zip(rep.labels, rep.paper.tolist(), rep.computed.tolist())) == (
            appendix_rows_by_dict(table_id, convention))

    def test_row_labels(self):
        rep = appendix_reproduce(2)
        assert "table02 ee phi=0.331 marked" in rep.labels
        assert "table02 ee phi=0.331 unmarked[0]" in rep.labels

    def test_report_columns(self):
        # one entry per row in every column; the verdicts are numpy's, the
        # report-level answers Python's
        rep = appendix_reproduce(3)
        assert len(rep.labels) == len(rep.paper) == len(rep.computed) == len(rep.tolerances)
        assert rep.absdiff.tolist() == [abs(c - p) for p, c in
                                        zip(rep.paper.tolist(), rep.computed.tolist())]
        assert rep.passed.tolist() == [d <= TABLE_TOLERANCE for d in rep.absdiff.tolist()]
        assert type(rep.all_pass) is bool

    def test_empty_report_raises(self):
        # no rows would read all_pass True, and the JSON's headline
        # tolerance, the loosest row's, would have no row to come from
        with pytest.raises(ValueError, match="at least one row"):
            ComparisonReport([], np.zeros(0), np.zeros(0), [])

    # a column without one entry per label would broadcast against the
    # others: two computed values against one label read all_pass False,
    # but the CSV writes one row that passes
    @pytest.mark.parametrize("column", [np.array([0.0, 5.0]), np.zeros(0), np.zeros((1, 1)),
                                        np.float64(0.0), [[0.0], [0.0, 1.0]]])
    @pytest.mark.parametrize("name", ["paper", "computed"])
    def test_column_without_an_entry_per_label_raises_naming_it(self, name, column):
        columns = {"paper": np.zeros(1), "computed": np.zeros(1), name: column}
        with pytest.raises(DimensionMismatch, match=f"^{name}:"):
            ComparisonReport(["a"], tolerances=[0.1], **columns)

    # inf or NaN would pass or fail every row whatever it holds, a negative
    # value fail every row; a bool or a string is no tolerance at all
    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1e-3, True, "x"])
    @pytest.mark.parametrize("compare", [pytest.param(appendix_reproduce, id="appendix"),
                                         pytest.param(table1_comparison, id="table1")])
    def test_bad_tolerance_raises_naming_it(self, compare, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            compare(2, tolerance=tolerance)


class TestSerialization:
    def test_comparison_csv_shape(self):
        rep = table1_comparison(2)
        text = comparison_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "label,paper,computed,absdiff,pass"
        assert len(lines) == 1 + len(rep.labels)
        assert lines[1].startswith("n=2 present,")
        assert lines[1].endswith(",true")

    def test_comparison_json_round_trip(self):
        rep = table1_comparison(2)
        doc = json.loads(comparison_to_json(rep))
        assert doc["all_pass"] is True
        assert {"label", "paper", "computed", "absdiff", "pass"} == set(doc["rows"][0])

    @pytest.mark.parametrize("convention", ["composite", "tabulated"])
    @pytest.mark.parametrize("table_id", AVAILABLE_TABLES)
    def test_appendix_output_equals_row_by_row(self, table_id, convention):
        rep = appendix_reproduce(table_id, convention=convention)
        rows = [(*row, TABLE_TOLERANCE) for row in appendix_rows_by_dict(table_id, convention)]
        assert (comparison_to_csv(rep), comparison_to_json(rep)) == comparison_by_rows(
            rows, TABLE_TOLERANCE)

    @pytest.mark.parametrize("n,tolerance", [
        (None, None), (4, None), (9, None), (None, 1e-9), (3, 1e-12)])
    def test_table1_output_equals_row_by_row(self, n, tolerance):
        rep = table1_comparison(n, tolerance)
        present_tol, grover_tol = ((PRESENT_TOLERANCE, GROVER_TOLERANCE) if tolerance is None
                                   else (tolerance, tolerance))
        rows = []
        for size in sorted(SUMMARY_PHI_P) if n is None else [n]:
            present, grover = table1_comparison(size).computed.tolist()
            rows.append((f"n={size} present", SUMMARY_PRESENT[size], present, present_tol))
            rows.append((f"n={size} grover", SUMMARY_GROVER[size], grover, grover_tol))
        # the JSON's headline tolerance is the loosest row's
        assert (comparison_to_csv(rep), comparison_to_json(rep)) == comparison_by_rows(
            rows, max(present_tol, grover_tol))

    def test_sweep_csv_headers(self):
        spec = SweepSpec(n=2, marked="ee", start=0.2, stop=0.4, steps=2)
        text = sweep_to_csv(sweep(spec))
        assert text.startswith("phi,tau,marked_prob,sum_unmarked,survival\n")
        rows = sweep(dissipation_spec(2, "ee", 1.0, 0.0, 0.5, 2))
        text = sweep_to_csv(rows, axis="dissipation")
        assert text.startswith("gbar,phi,tau,marked_prob,sum_unmarked,survival\n")

    # numpy 2 writes the repr of a numpy scalar as np.float64(...): the
    # writer takes each value's Python float first, as the reference does
    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    @pytest.mark.parametrize("axis", ["phase", "dissipation"])
    def test_sweep_csv_of_numpy_scalars_equals_row_by_row(self, axis, scalar):
        spec = (SweepSpec(n=3, marked="geg", start=0.1, stop=1.5, steps=4) if axis == "phase"
                else dissipation_spec(3, "geg", 0.8, 0.0, 0.9, 4))
        samples = [tuple(map(scalar, row)) for row in sweep(spec)]
        text = sweep_to_csv(samples, axis)
        assert text == sweep_csv_by_rows(samples, axis)
        assert "np." not in text

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
        # a whole recurrence block plus a one-point last block (at n=7 a
        # recurrence block is two state blocks): every row, the last one
        # included, agrees with a standalone report of its point
        n, marked, rates = 7, "geegeeg", (0.1, 0.0, 0.4, 0.2, 0.05, 0.3, 0.0)
        size, steps = points_per_block(n, n - 1), recurrence_width(n, n - 1) + 1
        spec = SweepSpec(n=n, marked=marked, start=0.05, stop=1.95, steps=steps, rates=rates)
        blocks = record_blocks(monkeypatch)
        rows = sweep(spec)
        assert (blocks.recurrence, blocks.state) == ([2 * size, 1], [size, size, 1])
        assert len(rows) == steps
        assert worst_row_vs_report(rows, spec) <= 1e-15
        assert sweep_to_csv(rows) == sweep_to_csv(sweep(spec))

    def test_peak_and_table1_build_no_state(self, monkeypatch):
        # both read the marked probability from the recurrence alone: the
        # peak's 1000-point grid in its recurrence blocks, then its refined
        # point, and each size's two summary-row phases in one block
        rates = tuple(0.05 * (v + 1) for v in range(9))
        grid, _ = planned_blocks(9, 8, 1000)
        calls = record_blocks(monkeypatch)
        phi, _ = peak_search(9, "e" * 9, rates)
        assert phi != round(phi, 3)  # refined off the grid
        assert calls == EngineCalls(grid + [1], [], [])
        calls = record_blocks(monkeypatch)
        table1_comparison()
        assert calls == EngineCalls([2] * len(SUMMARY_PHI_P), [], [])

    def test_dissipation_block_split_matches_report(self, monkeypatch):
        # the same on the rate axis, with per-qubit weights
        n, marked, weights = 7, "egeggee", (1.0, 0.5, 0.0, 0.25, 2.0, 1.0, 0.75)
        size, steps = points_per_block(n, n - 1), recurrence_width(n, n - 1) + 1
        spec = dissipation_spec(n, marked, 0.81, 0.0, 0.95, steps, weights)
        blocks = record_blocks(monkeypatch)
        rows = sweep(spec)
        assert (blocks.recurrence, blocks.state) == ([2 * size, 1], [size, size, 1])
        assert len(rows) == steps
        assert worst_row_vs_report(rows, spec) <= 1e-15
        text = sweep_to_csv(rows, axis="dissipation")
        assert text == sweep_to_csv(sweep(spec), axis="dissipation")
