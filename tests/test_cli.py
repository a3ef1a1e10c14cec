"""CLI behavior: subcommands, exit codes, config handling, documentation."""

import ast
import dataclasses
import inspect
import json
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dqsa
from dqsa import cli, experiments
from dqsa.cli import config_from_dict, main
from dqsa.errors import MalformedConfig
from dqsa.experiments import SweepSpec, peak_search, sweep
from dqsa.gates import RATE_BOUNDS
from dqsa.search import RunConfig

from helpers import child_env, config_to_dict, run_csv_by_report, run_json_by_dict

REPO_ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("run", "sweep", "table1", "appendix", "verify-gates", "peak")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_argv(cfg: RunConfig) -> list:
    """`dqsa run` flags of a config with the default convention."""
    return ["run", "--n", str(cfg.n), "--marked", cfg.marked, "--phi", repr(cfg.phi),
            "--gammas", ",".join(map(repr, cfg.rates)), "--iterations", str(cfg.iterations)]


N12 = RunConfig(12, "egeeggegeege", 0.8137, tuple(0.04 * v for v in range(12)))
# tabulated rates past 2.27574, where that gate amplifies: this run wrote NaN
# and exited 0, with nine numpy overflow warnings on stderr
STRONG_TABULATED = {"n": 12, "marked": "eeegggggeege", "phi": 1.6437716566477252,
                    "iterations": 327, "convention": "tabulated",
                    "gammas": [3.55, 3.1, 2.9, 3.4, 3.55, 2.5, 3.0, 3.2, 3.55, 2.8, 3.3, 3.5]}
STRONG_TABULATED_ERROR = ("MalformedConfig: invalid config: OverdampedQubit: "
                          "rates (gammas) must be below 2.27574, got 3.55\n")


class TestRun:
    def test_reference_probability(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "--n", "3", "--marked", "ege", "--phi", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["marked_prob"] == pytest.approx(0.9453, abs=5e-4)
        assert doc["iterations"] == 2
        assert len(doc["unmarked"]) == 7

    def test_coeff_alias(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "--n", "2", "--marked", "ee", "--coeff", "1"])
        assert code == 0
        assert json.loads(out)["marked_prob"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "--n", "2", "--marked", "ee",
                                        "--phi", "1", "--format", "csv"])
        assert code == 0
        assert out.startswith("phi,tau,marked_prob,sum_unmarked,survival\n")
        assert len(out.strip().split("\n")) == 2

    def test_gammas_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "--n", "2", "--marked", "ee",
                                        "--phi", "1", "--gammas", "0.00885,0.01111"])
        assert code == 0
        assert json.loads(out)["marked_prob"] == pytest.approx(0.9618, abs=2e-3)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["run", "--n", "2", "--marked", "ee",
                                        "--phi", "1", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["marked_prob"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("iterations", [11, 50])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_n12_json_bytes_equal_dict_reference(self, capsys, tmp_path, iterations, to_file):
        cfg = dataclasses.replace(N12, iterations=iterations)
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, run_argv(cfg) + (["--out", str(target)] if to_file else []))
        assert code == 0
        assert (target.read_text() if to_file else out) == run_json_by_dict(cfg)

    @pytest.mark.parametrize("cfg", [RunConfig(3, "ege", 0.37, (0.1, 0.2, 0.0)),
                                     RunConfig(9, "egeegggee", 1.9, (0.05,) * 9, 7), N12])
    def test_csv_bytes_equal_report_row(self, capsys, cfg):
        code, out, _ = run_cli(capsys, run_argv(cfg) + ["--format", "csv"])
        assert code == 0
        assert out == run_csv_by_report(cfg)

    def test_invalid_pattern_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--n", "2", "--marked", "xq", "--phi", "1"])
        assert code == 1
        assert "InvalidPattern" in err

    def test_missing_phi_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--n", "2", "--marked", "ee"])
        assert code == 1
        assert "MalformedConfig" in err
        assert "phi" in err

    def test_gamma_count_mismatch_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--n", "3", "--marked", "ege",
                                        "--phi", "1", "--gammas", "0.1,0.2"])
        assert code == 1
        assert "gammas" in err

    @pytest.mark.parametrize("flags,field", [
        (["--phi", "nan"], "phi"), (["--phi", "inf"], "phi"),
        (["--phi=-inf"], "phi"),
        (["--phi", "1", "--gammas", "nan,0"], "gammas"),
        (["--phi", "1", "--gammas", "0,inf"], "gammas"),
        # phases far above 2, where k*phi*pi would overflow to inf
        (["--phi", "1e308"], "phi"), (["--phi", "2e306", "--iterations", "50"], "phi"),
    ])
    def test_non_finite_input_exits_1(self, capsys, flags, field):
        code, out, err = run_cli(capsys, ["run", "--n", "2", "--marked", "ee",
                                          "--format", "csv"] + flags)
        assert code == 1
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("phi,expected", [("2", 0), ("2.0000000000000004", 1)])
    def test_phase_domain_ends_at_2(self, capsys, phi, expected):
        code, out, err = run_cli(capsys, ["run", "--n", "2", "--marked", "ee", "--phi", phi])
        assert code == expected
        if expected:
            assert out == ""
            assert err == ("MalformedConfig: invalid config: ValueError: "
                           "phi must lie in [0, 2], got 2.0000000000000004\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_strong_tabulated_rates_exit_1(self, capsys, tmp_path, fmt):
        path = tmp_path / "strong.json"
        path.write_text(json.dumps(STRONG_TABULATED))
        code, out, err = run_cli(capsys, ["run", "--config", str(path), "--format", fmt])
        assert (code, out, err) == (1, "", STRONG_TABULATED_ERROR)

    @pytest.mark.parametrize("convention,expected", [("composite", 0), ("tabulated", 1)])
    def test_peak_gammas_bounded_by_convention(self, capsys, convention, expected):
        # 2.3 is a valid rate of a composite run, not of a tabulated one
        code, out, err = run_cli(capsys, ["peak", "--n", "2", "--gammas", "2.3,0",
                                          "--convention", convention])
        assert code == expected
        if expected:
            assert (out, err) == ("", "OverdampedQubit: --gammas must be below 2.27574, got 2.3\n")

    @pytest.mark.parametrize("argv,field", [
        (["verify-gates", "--n", "2", "--draws", "0"], "--draws"),
        (["verify-gates", "--n", "2", "--draws=-3"], "--draws"),
        (["verify-gates", "--n", "2", "--tolerance", "inf"], "--tolerance"),
        (["verify-gates", "--n", "2", "--tolerance=-1e-10"], "--tolerance"),
        (["table1", "--n", "2", "--tolerance", "nan"], "--tolerance"),
        (["table1", "--n", "2", "--tolerance=-inf"], "--tolerance"),
        (["appendix", "--table", "2", "--tolerance", "inf"], "--tolerance"),
        (["appendix", "--table", "2", "--tolerance=-2e-3"], "--tolerance"),
    ])
    def test_vacuous_comparison_flag_exits_1(self, capsys, argv, field):
        # each of these made every row pass, or every row fail
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "2", "--marked", "ee", "--phi", "1"],
        ["sweep", "--n", "2", "--marked", "ee", "--phi", "0:1:3"],
        ["table1", "--n", "2"],
        ["appendix", "--table", "2"],
    ], ids=["run", "sweep", "table1", "appendix"])
    @pytest.mark.parametrize("target", ["missing/out.csv", ".", None],
                             ids=["no-dir", "a-dir", "empty"])
    def test_unwritable_out_exits_1(self, capsys, tmp_path, argv, target):
        # a missing directory, a directory path or an empty path (a path,
        # not "no --out"): one line naming --out and the OS error, not an
        # uncaught FileNotFoundError/IsADirectoryError
        path = "" if target is None else str(tmp_path / target)
        code, out, err = run_cli(capsys, argv + ["--out", path])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--out" in err
        assert "No such file or directory" in err or "Is a directory" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("path", ["absent.json", None], ids=["missing", "empty"])
    def test_unreadable_config_exits_1(self, capsys, tmp_path, command, path):
        # every field is also given as a flag, so only the path can fail: an
        # empty one is a path, not "no --config"
        argv = [command, "--config", "" if path is None else str(tmp_path / path),
                "--n", "2", "--marked", "ee", "--phi", "1" if command == "run" else "0:1:3"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "cannot read config" in err

    @pytest.mark.parametrize("seed", ["-1", "-20240"])
    def test_negative_seed_exits_1(self, capsys, seed):
        # Python's generator seeds by |seed|, so -s would repeat the draws of s
        code, out, err = run_cli(capsys, ["verify-gates", "--n", "2", "--seed", seed])
        assert code == 1
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "2", "--marked", "ee", "--phi", "abc"],
        ["sweep", "--n", "2", "--marked", "ee", "--phi", "0:1:x"],
    ])
    def test_unparsable_phi_flag_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "MalformedConfig" in err
        assert "--phi" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "abc", "--marked", "e", "--phi", "1"],
        ["verify-gates", "--n", "5"],
        ["peak"],
        ["run", "--n", "2", "--marked", "ee", "--phi", "1", "--bogus"],
        [],
    ], ids=["bad-int", "bad-choice", "missing-required", "unknown-flag", "no-subcommand"])
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse alone would exit 2, the code for a failed comparison
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("cfg,field", [
        ({"n": 2, "marked": "ee", "phi": True}, "phi"),
        ({"n": True, "marked": "e", "phi": 1.0}, "n"),
        ({"n": 2, "marked": "ee", "phi": 1.0, "gammas": [True, 0.0]}, "gammas"),
        ({"n": 2, "marked": "ee", "phi": 1.0, "iterations": True}, "iterations"),
        ({"n": 2, "marked": "ee", "phi": {"start": 0, "stop": True, "steps": 3}}, "phi stop"),
    ])
    def test_bool_config_value_exits_1(self, capsys, tmp_path, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        command = "sweep" if isinstance(cfg["phi"], dict) else "run"
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 1
        assert out == ""
        assert "MalformedConfig" in err
        assert field in err

    @pytest.mark.parametrize("text,key", [
        ('{"n": 2, "marked": "ee", "phi": 0.5, "phi": 1.0}', "phi"),
        ('{"n": 2, "marked": "ee", "phi": {"start": 0, "stop": 1, "steps": 3, "stop": 2}}',
         "stop"),
        ('{"n": 2, "marked": "ee", "phi": 0.5, "gbar": {"start": 0, "start": 0.1, "stop": 1, '
         '"steps": 3}}', "start"),
    ], ids=["root", "phi-grid", "gbar-grid"])
    def test_repeated_config_key_exits_1(self, capsys, tmp_path, text, key):
        # json.load keeps the last of two equal keys, so the first was ignored
        path = tmp_path / "twice.json"
        path.write_text(text)
        command = "run" if text.count("{") == 1 else "sweep"
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 1
        assert out == ""
        assert "MalformedConfig" in err
        assert f"repeats the key '{key}'" in err

    @pytest.mark.parametrize("flags", [[], ["--n", "2", "--phi", "x"]])
    def test_non_object_config_exits_1(self, capsys, tmp_path, flags):
        # flags merge into an object root only; config_from_dict rejects the rest
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, ["run", "--config", str(path)] + flags)
        assert code == 1
        assert out == ""
        assert "config root must be a JSON object" in err

    def test_int_too_large_for_a_float_exits_1(self, capsys, tmp_path):
        # JSON reads the 401-digit phi as an exact int, which float() overflows
        path = tmp_path / "big.json"
        path.write_text('{"n": 2, "marked": "ee", "phi": 1%s}' % ("0" * 400))
        code, out, err = run_cli(capsys, ["run", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert "MalformedConfig" in err
        assert "phi" in err
        # the message says the int is too large, without echoing its 401 digits
        assert "too large" in err
        assert len(err) < 160

    @pytest.mark.parametrize("n", [-2**63 - 1, 2**63, 10**9])
    def test_n_beyond_int64_exits_1(self, capsys, tmp_path, n):
        # n is checked against the pattern before anything is sized by it,
        # so no list of n rates is built and no int64 bound is met
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": n, "marked": "ee", "phi": 1.0}))
        for argv in (["run", "--config", str(path)],
                     ["run", f"--n={n}", "--marked", "ee", "--phi", "1"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 1
            assert out == ""
            assert f"n={n}" in err

    def test_grid_phi_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--n", "2", "--marked", "ee",
                                        "--phi", "0:1:5"])
        assert code == 1
        assert "sweep" in err


class TestSweep:
    def test_phase_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "2", "--marked", "ee",
                                        "--phi", "0.1:1.0:5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi,tau,marked_prob,sum_unmarked,survival"
        assert len(lines) == 6

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "2", "--marked", "ee",
                                        "--phi", "0.1:1.0:4", "--format", "json"])
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_scalar_phi_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--n", "2", "--marked", "ee", "--phi", "1"])
        assert code == 1
        assert "grid" in err

    def test_malformed_grid(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--n", "2", "--marked", "ee",
                                        "--phi", "0:1"])
        assert code == 1
        assert "start:stop:steps" in err

    def test_dissipation_grid_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "n": 2, "marked": "ee", "phi": 1.0,
            "gbar": {"start": 0.0, "stop": 0.5, "steps": 3}}))
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg)])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gbar,phi,tau,marked_prob,sum_unmarked,survival"
        assert len(lines) == 4

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "n": 2, "marked": "ee",
            "phi": {"start": 0.1, "stop": 1.0, "steps": 3}}))
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg),
                                        "--phi", "0.1:1.0:7"])
        assert code == 0
        assert len(out.strip().split("\n")) == 8


def _reals(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


def _rates(convention, n):
    """n rates below the run bound of ``convention``."""
    bound = RATE_BOUNDS[convention]
    return st.lists(st.floats(0.0, bound, exclude_max=True), min_size=n, max_size=n).map(tuple)


@st.composite
def run_configs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    convention = draw(st.sampled_from(("composite", "tabulated")))
    return RunConfig(n, draw(st.text("ge", min_size=n, max_size=n)), draw(_reals(0.0, 2.0)),
                     draw(_rates(convention, n)),
                     draw(st.none() | st.integers(min_value=1, max_value=60)), convention)


@st.composite
def sweep_specs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    marked = draw(st.text("ge", min_size=n, max_size=n))
    axis = draw(st.sampled_from(("phase", "dissipation")))
    start, stop = sorted(draw(st.lists(_reals(0.0, 2.0 if axis == "phase" else 3.99),
                                       min_size=2, max_size=2)))
    convention = draw(st.sampled_from(("composite", "tabulated")))
    common = dict(n=n, marked=marked, axis=axis, start=start, stop=stop,
                  steps=draw(st.integers(min_value=2, max_value=1000)), convention=convention)
    rates = draw(_rates(convention, n))
    if axis == "phase":
        return SweepSpec(**common, rates=rates)
    # weights of zero, as in a gbar config without damping, and rates below
    # the convention's bound
    weights = tuple(draw(st.sampled_from((0.0, g))) for g in rates)
    assume(stop * max(weights) < RATE_BOUNDS[convention])
    return SweepSpec(**common, phi=draw(st.none() | _reals(0.0, 2.0)), weights=weights)


class TestConfigFiles:
    def test_load_run_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": 3, "marked": "ege", "phi": 1.0,
                                    "gammas": [0.1, 0.2, 0.3], "iterations": 4}))
        cfg = config_from_dict(cli._read_json(str(path)))
        assert cfg == RunConfig(3, "ege", 1.0, (0.1, 0.2, 0.3), iterations=4)

    def test_load_phase_sweep_config(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"n": 2, "marked": "ee",
                                    "phi": {"start": 0, "stop": 1, "steps": 5}}))
        cfg = config_from_dict(cli._read_json(str(path)))
        assert isinstance(cfg, SweepSpec)
        assert cfg.axis == "phase"
        assert cfg.steps == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedConfig):
            config_from_dict(cli._read_json(str(tmp_path / "absent.json")))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedConfig):
            config_from_dict(cli._read_json(str(path)))

    def test_unknown_field_rejected(self):
        with pytest.raises(MalformedConfig):
            config_from_dict({"n": 2, "marked": "ee", "phi": 1.0, "qubits": 2})

    def test_both_grids_rejected(self):
        with pytest.raises(MalformedConfig):
            config_from_dict({"n": 2, "marked": "ee",
                              "phi": {"start": 0, "stop": 1, "steps": 3},
                              "gbar": {"start": 0, "stop": 1, "steps": 3}})

    @pytest.mark.parametrize("grid", ["phi", "gbar"])
    def test_iterations_rejected_in_sweep_config(self, grid):
        raw = {"n": 2, "marked": "ee", "phi": 1.0, "iterations": 7,
               grid: {"start": 0.0, "stop": 1.0, "steps": 3}}
        with pytest.raises(MalformedConfig, match="'iterations'"):
            config_from_dict(raw)

    def test_non_object_root_rejected(self):
        with pytest.raises(MalformedConfig):
            config_from_dict([1, 2, 3])

    @pytest.mark.parametrize("cfg", [
        RunConfig(3, "ege", 0.7, (0.1, 0.0, 0.2), iterations=3),
        SweepSpec(n=2, marked="ee", axis="phase", start=0.1, stop=1.0, steps=5),
        SweepSpec(n=2, marked="ge", axis="dissipation", start=0.0, stop=0.9,
                  steps=4, phi=0.5, weights=(1.0, 0.5)),
        SweepSpec(n=2, marked="ge", axis="dissipation", start=0.0, stop=0.9,
                  steps=4, weights=(0.0, 0.0)),
    ])
    def test_round_trip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @given(cfg=run_configs() | sweep_specs())
    def test_round_trip_property(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_zero_weights_sweep_without_damping(self):
        # all-zero gammas in a gbar config are weights of 0, not "use 1"
        spec = config_from_dict({"n": 2, "marked": "ee", "phi": 0.7, "gammas": [0, 0],
                                 "gbar": {"start": 0.0, "stop": 0.9, "steps": 4}})
        assert spec.weights == (0.0, 0.0)
        assert [row[-1] for row in sweep(spec)] == pytest.approx([1.0] * 4, abs=1e-12)


class TestComparisons:
    def test_table1_single_size(self, capsys):
        code, out, _ = run_cli(capsys, ["table1", "--n", "3"])
        assert code == 0
        assert out.startswith("label,paper,computed,absdiff,pass")

    def test_table1_size_0_exits_1(self, capsys):
        # n=0 is a size the summary table lacks, not "all sizes"
        code, out, err = run_cli(capsys, ["table1", "--n", "0"])
        assert code == 1
        assert out == ""
        assert "UnsupportedSize" in err

    def test_table1_tight_tolerance_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, ["table1", "--n", "3", "--tolerance", "1e-9"])
        assert code == 2
        assert ",false" in out

    def test_appendix_weak_table_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["appendix", "--table", "2"])
        assert code == 0
        assert ",false" not in out

    def test_appendix_offset_table_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, ["appendix", "--table", "3"])
        assert code == 2
        assert ",false" in out

    def test_appendix_offset_table_tabulated_passes(self, capsys):
        code, _, _ = run_cli(capsys, ["appendix", "--table", "3",
                                      "--convention", "tabulated"])
        assert code == 0

    def test_appendix_offset_table_wide_tolerance_passes(self, capsys):
        code, _, _ = run_cli(capsys, ["appendix", "--table", "3",
                                      "--tolerance", "9e-3"])
        assert code == 0

    def test_appendix_unknown_table_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["appendix", "--table", "1"])
        assert code == 1
        assert "UnknownTable" in err

    def test_verify_gates(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-gates", "--n", "2", "--draws", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # 4 patterns + summary
        assert all("PASS" in ln for ln in lines)

    def test_peak(self, capsys):
        code, out, _ = run_cli(capsys, ["peak", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rho"] >= 0.9999
        assert 0 < doc["phi"] <= 1

    def test_peak_convention(self, capsys):
        code, out, _ = run_cli(capsys, ["peak", "--n", "3", "--marked", "ege", "--gammas",
                                        "0.5,0.2,0.9", "--convention", "tabulated"])
        assert code == 0
        phi, rho = peak_search(3, "ege", (0.5, 0.2, 0.9), convention="tabulated")
        assert json.loads(out) == {"phi": phi, "rho": rho}
        assert (phi, rho) != peak_search(3, "ege", (0.5, 0.2, 0.9))

    @pytest.mark.parametrize("n", ["0", "-1", "13"])
    def test_peak_n_out_of_range_exits_1(self, capsys, n):
        # checked before the default pattern "g" * n is built from it
        code, out, err = run_cli(capsys, ["peak", "--n", n])
        assert code == 1
        assert out == ""
        assert "--n" in err
        assert "pattern" not in err

    def test_peak_unknown_convention_exits_1(self, capsys):
        code, out, err = run_cli(capsys, ["peak", "--n", "3", "--convention", "bogus"])
        assert code == 1
        assert out == ""
        assert "--convention" in err

    @pytest.mark.parametrize("flag,field", [("--gammas", "--gammas"), ("--marked", "pattern")])
    def test_peak_empty_value_exits_1(self, capsys, flag, field):
        # an empty value is bad input, as in run, not "use the default"
        code, out, err = run_cli(capsys, ["peak", "--n", "2", flag, ""])
        assert code == 1
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("gammas", ["0.1", "0.1,0.2,0.3", "0.1,4", "nan,0.1", "0.1,inf",
                                        "0.1,-0.2"])
    def test_peak_bad_gammas_exit_1(self, capsys, gammas):
        # the error names the flag, not the engine's field "rates"
        code, out, err = run_cli(capsys, ["peak", "--n", "2", "--gammas", gammas])
        assert code == 1
        assert out == ""
        assert "--gammas" in err


class TestPipeline:
    """A subcommand's handler computes its whole output and exit code and
    writes nothing; `main` writes that text once, after the handler has
    returned."""

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "2", "--marked", "ee", "--phi", "1", "--format", "csv"],
        ["sweep", "--n", "2", "--marked", "ee", "--phi", "0:1:3"],
        ["table1", "--n", "2"],
        ["appendix", "--table", "2"],
        ["verify-gates", "--n", "2", "--draws", "2", "--tolerance", "0"],  # exits 2
        ["peak", "--n", "2"],
    ], ids=SUBCOMMANDS)
    def test_main_writes_what_the_handler_returns(self, capsys, argv):
        args = cli.build_parser().parse_args(argv)
        text, code = args.handler(args)
        assert capsys.readouterr() == ("", "")
        assert isinstance(text, str) and text.endswith("\n")
        assert run_cli(capsys, argv) == (code, text, "")

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "2", "--marked", "ee", "--phi", "1", "--gammas", "5,5"],
        ["sweep", "--n", "2", "--marked", "ee", "--phi", "1"],
        ["table1", "--n", "1"],
        ["appendix", "--table", "99"],
    ], ids=["run", "sweep", "table1", "appendix"])
    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "absent"])
    def test_failed_run_leaves_out_untouched(self, capsys, tmp_path, argv, existing):
        # a failure inside the handler comes before --out is opened, so the
        # file is neither truncated nor created
        target = tmp_path / "existing.csv"
        if existing:
            target.write_bytes(b"phi,tau\r\n0.5,kept\n")
        code, out, err = run_cli(capsys, argv + ["--out", str(target)])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        if existing:
            assert target.read_bytes() == b"phi,tau\r\n0.5,kept\n"
        else:
            assert not target.exists()


class TestBenchmarkHooks:
    """perfbench/tracing.py times these names by replacing the module
    attribute; one the CLI stops calling through its module leaves the
    benchmark's stage blank."""

    @pytest.mark.parametrize("module,name,argv", [
        (experiments, "peak_search", ["peak", "--n", "2"]),
        (experiments, "table1_comparison", ["table1", "--n", "2"]),
        (experiments, "appendix_reproduce", ["appendix", "--table", "2"]),
        (experiments, "comparison_to_csv", ["table1", "--n", "2"]),
        (experiments, "comparison_to_json", ["table1", "--n", "2", "--format", "json"]),
        (experiments, "sweep_to_csv", ["sweep", "--n", "2", "--marked", "ee", "--phi", "0:1:3"]),
        (experiments, "sweep_to_json",
         ["sweep", "--n", "2", "--marked", "ee", "--phi", "0:1:3", "--format", "json"]),
        (cli, "verification_sweep", ["verify-gates", "--n", "2", "--draws", "1"]),
    ])
    def test_traced_name_is_called(self, capsys, monkeypatch, module, name, argv):
        original, calls = getattr(module, name), []

        def traced(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, traced)
        assert run_cli(capsys, argv)[0] == 0
        assert calls == [name]


class TestInstalledEntryPoint:
    """The ``dqsa`` console script, checked without installing the package."""

    def test_console_script_help(self):
        # Call the [project.scripts] target the way pip's generated wrapper does.
        tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["dqsa"]
        module, _, attr = target.partition(":")
        wrapper = (f"import sys\nfrom {module} import {attr.split('.')[0]}\n"
                   f"sys.argv[0] = 'dqsa'\nsys.exit({attr}())")
        out = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                             env=child_env(), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        for sub in SUBCOMMANDS:
            assert sub in out.stdout

    def test_python_m_dqsa_matches_console_script(self, capsys):
        out = subprocess.run([sys.executable, "-m", "dqsa", "--help"],
                             env=child_env(), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: dqsa ")
        for sub in SUBCOMMANDS:
            assert sub in out.stdout
        argv = ["appendix", "--table", "1"]
        out = subprocess.run([sys.executable, "-m", "dqsa", *argv],
                             env=child_env(), capture_output=True, text=True)
        code, _, err = run_cli(capsys, argv)
        assert out.returncode == code == 1
        assert out.stderr == err

    def test_import_leaves_fractions_unloaded(self):
        # the CLI reads the tables' a/b rates by int division, not Fraction
        out = subprocess.run([sys.executable, "-c", "import sys, dqsa.cli; "
                              "print('fractions' in sys.modules)"],
                             env=child_env(), capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "2", "--marked", "ee", "--phi", "1"],
        ["sweep", "--n", "2", "--marked", "ee", "--phi", "0:1:3"],
        ["table1", "--n", "2"],
        ["appendix", "--table", "2"],
        ["verify-gates", "--n", "2"],
        ["peak", "--n", "2"],
    ], ids=lambda argv: argv[0])
    def test_subcommand_leaves_openssl_unloaded(self, argv):
        # numpy.random imports secrets, hashlib and _hashlib, which maps
        # OpenSSL: `python -m dqsa verify-gates` peaked at 36.1 MiB resident
        # when it drew from numpy's generator, 30.2 MiB without it.  The
        # child runs `python -m dqsa` through runpy, then lists them.
        script = ("import runpy, sys\n"
                  "try:\n"
                  "    runpy.run_module('dqsa', run_name='__main__', alter_sys=True)\n"
                  "except SystemExit as stop:\n"
                  "    code = stop.code\n"
                  "names = ('numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
                  "print(code, [name for name in names if name in sys.modules])\n")
        out = subprocess.run([sys.executable, "-c", script, *argv],
                             env=child_env(), capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == "0 []", out.stderr

    def test_child_fails_on_a_numeric_warning(self, tmp_path):
        # a RuntimeWarning is an error in a child, as in the suite itself
        out = subprocess.run([sys.executable, "-c", "import numpy; numpy.float64(1e308) * 10"],
                             env=child_env(), capture_output=True, text=True)
        assert out.returncode == 1 and "RuntimeWarning: overflow" in out.stderr
        path = tmp_path / "strong.json"
        path.write_text(json.dumps(STRONG_TABULATED))
        out = subprocess.run([sys.executable, "-m", "dqsa", "run", "--config", str(path)],
                             env=child_env(), capture_output=True, text=True)
        assert (out.returncode, out.stdout, out.stderr) == (1, "", STRONG_TABULATED_ERROR)

    @pytest.mark.parametrize("setting", [None, "1"])
    def test_child_writes_bytecode_only_as_the_suite_does(self, monkeypatch, setting):
        # a child that dropped PYTHONDONTWRITEBYTECODE wrote src/dqsa/__pycache__
        # even when the suite ran with it set
        if setting is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
        out = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                             env=child_env(), capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, f"{setting is not None}\n"), out.stderr


class TestDeterminism:
    def test_run_json_bytes_do_not_depend_on_blas_threads(self):
        # at n=12 OpenBLAS may split the amplitude product over two threads;
        # README promises byte-identical output all the same
        argv = [sys.executable, "-m", "dqsa", "run", "--n", "12", "--marked", "egeeggegeege",
                "--phi", "0.9", "--gammas", ",".join(["0.05"] * 12), "--iterations", "50",
                "--format", "json"]
        outs = [subprocess.run(argv, env=child_env(OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, check=True).stdout
                for threads in ("1", "2")]
        assert len(outs[0]) > 100_000
        assert outs[0] == outs[1]


class TestMemory:
    def test_deep_n12_run_peak_is_bounded(self, capsys, tmp_path):
        # the tracemalloc peak of this call was 1.05 MiB, most of it the
        # engine's block; a 4095-entry dict of the probabilities adds 0.25
        argv = run_argv(dataclasses.replace(N12, iterations=50))
        argv += ["--out", str(tmp_path / "report.json")]
        main(argv)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 2**20


class TestDocumentedCommands:
    """Every bash and Python code block in the README must execute cleanly."""

    def _blocks(self, language):
        text = (REPO_ROOT / "README.md").read_text()
        return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)

    def _readme_without_api_changes(self):
        # the note on removed names does not count as documenting them
        text = (REPO_ROOT / "README.md").read_text()
        return re.sub(r"\n## Python API changes\n.*?(?=\n## )", "", text, flags=re.DOTALL)

    def test_every_exported_name_is_documented(self):
        # what `dqsa` exports is what README documents
        text = self._readme_without_api_changes()
        names = [name for name, value in vars(dqsa).items()
                 if not name.startswith("_") and not inspect.ismodule(value)]
        assert "RunConfig" in names
        assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []

    def test_every_src_name_is_read_outside_tests(self):
        # the package keeps only what it or README reads: each top-level def,
        # class or assigned name occurs outside its own definition, and each
        # method or property of a top-level class is read as `.name`
        sources = {path.name: path.read_text()
                   for path in sorted(Path(dqsa.__file__).parent.glob("*.py"))}
        readme = self._readme_without_api_changes()
        everything = "\n".join([readme, *sources.values()])
        unread = []
        for file, text in sources.items():
            lines = text.splitlines(keepends=True)
            for node in ast.parse(text).body:
                if isinstance(node, ast.Assign | ast.AnnAssign):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.FunctionDef | ast.ClassDef):
                    names = [node.name]
                else:
                    continue
                if isinstance(node, ast.ClassDef):
                    unread += [f"{file}:{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("__")
                               and not re.search(rf"\.{item.name}\b", everything)]
                rest = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
                others = "\n".join([readme, rest, *(t for f, t in sources.items() if f != file)])
                unread += [f"{file}:{name}" for name in names if not name.startswith("__")
                           and not re.search(rf"\b{name}\b", others)]
        assert unread == []

    def test_readme_has_bash_examples(self):
        assert len(self._blocks("bash")) >= 3

    def test_readme_python_blocks_run(self, tmp_path):
        blocks = self._blocks("python")
        assert len(blocks) >= 3
        for i, block in enumerate(blocks):
            proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                                  env=child_env(), capture_output=True, text=True)
            assert proc.returncode == 0, (
                f"README python block {i} failed\n--- block ---\n{block}\n"
                f"--- stderr ---\n{proc.stderr}")

    def test_readme_bash_blocks_exit_0(self, tmp_path):
        # The documented `dqsa` command, run as `python -m dqsa` so that the
        # blocks need no installed console script.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        shim = bin_dir / "dqsa"
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m dqsa "$@"\n')
        shim.chmod(0o755)
        for i, block in enumerate(self._blocks("bash")):
            proc = subprocess.run(["bash", "-euo", "pipefail", "-c", block],
                                  cwd=tmp_path, env=child_env(path_prefix=bin_dir),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (
                f"README bash block {i} failed\n--- block ---\n{block}\n"
                f"--- stderr ---\n{proc.stderr}")
