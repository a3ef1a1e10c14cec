"""Command-line front end, one pipeline: `main` parses argv with
`build_parser`, the one table of subcommands and flags; the subcommand's
handler computes and returns its whole output text and exit code, writing
nothing; then `main` writes the text once, to ``--out`` or stdout.  So a run
that fails writes no output and leaves ``--out`` as it was.  Exit codes:
0 success, 1 invalid input or usage (diagnostic on stderr naming the
offending field), 2 when a comparison subcommand has at least one failing row.
"""

import argparse
import json
import sys

from . import experiments
from .basis import MAX_QUBITS, validate_pattern
from .errors import DqsaError, MalformedConfig
from .gates import CONVENTIONS, check_rates, check_reals, tau
from .search import RunConfig, reports, summaries
from .synthesis import verification_sweep


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; a repeated key, which
    `json.load` would let the last one win, raises MalformedConfig."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedConfig(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: str):
    """The JSON value stored at ``path``, with no key repeated in any of its
    objects; `config_from_dict` checks its root."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise MalformedConfig(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise MalformedConfig(f"config {path} is not valid JSON: {e}") from e


def _grid_fields(obj, field: str):
    if not isinstance(obj, dict) or set(obj) - {"start", "stop", "steps"}:
        raise MalformedConfig(f"field '{field}' grid must have keys start/stop/steps")
    try:
        return obj["start"], obj["stop"], obj["steps"]
    except KeyError as e:
        raise MalformedConfig(f"field '{field}' grid is incomplete: {e}") from e


def config_from_dict(raw: dict):
    """Parse a JSON config, merged with the flags, into a RunConfig or a
    SweepSpec.

    Schema: {"n": int, "marked": "ege", "phi": number | {"start","stop",
    "steps"}, "gammas": [numbers], "iterations": int, "convention": str,
    "gbar": {"start","stop","steps"}}.  A phi grid makes a phase sweep; a
    "gbar" grid (with scalar phi) makes a dissipation sweep; otherwise the
    result is a single-run config.  Missing gammas mean all zeros, except in
    a "gbar" config, where gammas are the weights of the rate scale and
    default to all ones.  A sweep config may not carry "iterations": sweeps
    always run n - 1 rounds.  This checks only the schema's structure: the
    fields present, the grids' shape and which fields go together.
    RunConfig and SweepSpec check every value."""
    if not isinstance(raw, dict):
        raise MalformedConfig("config root must be a JSON object")
    unknown = set(raw) - {"n", "marked", "phi", "gammas", "iterations", "convention", "gbar"}
    if unknown:
        raise MalformedConfig(f"unknown config fields: {sorted(unknown)}")
    for field in ("n", "marked", "phi"):
        if field not in raw:
            raise MalformedConfig(f"missing required field '{field}' (flag --{field} or config)")
    for field in ("phi", "gammas", "iterations"):  # the classes would read None as left out
        if field in raw and raw[field] is None:
            raise MalformedConfig(f"field '{field}' must not be null")
    gammas = raw.get("gammas")

    phi = raw["phi"]
    if isinstance(phi, dict) and "gbar" in raw:
        raise MalformedConfig("give either a 'phi' grid or a 'gbar' grid, not both")
    if (isinstance(phi, dict) or "gbar" in raw) and "iterations" in raw:
        raise MalformedConfig("field 'iterations' is not allowed in a sweep config "
                              "(sweeps run n - 1 iterations)")
    common = dict(n=raw["n"], marked=raw["marked"], convention=raw.get("convention", "composite"))
    try:
        if isinstance(phi, dict):
            start, stop, steps = _grid_fields(phi, "phi")
            return experiments.SweepSpec(axis="phase", start=start, stop=stop, steps=steps,
                                         rates=gammas, **common)
        if "gbar" in raw:
            start, stop, steps = _grid_fields(raw["gbar"], "gbar")
            return experiments.SweepSpec(axis="dissipation", start=start, stop=stop,
                                         steps=steps, phi=phi, weights=gammas, **common)
        return RunConfig(phi=phi, rates=gammas, iterations=raw.get("iterations"), **common)
    except MalformedConfig:
        raise
    except (DqsaError, ValueError, TypeError) as e:
        raise MalformedConfig(f"invalid config: {type(e).__name__}: {e}") from e


def _parse_gammas(text: str):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise MalformedConfig(f"--gammas must be a comma list of numbers: {e}") from e


def _parse_phi_grid(text: str):
    """phi flag value: a number, or start:stop:steps for sweep grids."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise MalformedConfig("--phi grid must be start:stop:steps")
    try:
        if len(parts) == 1:
            return float(text)
        return {"start": float(parts[0]), "stop": float(parts[1]), "steps": int(parts[2])}
    except ValueError as e:
        raise MalformedConfig(f"--phi must be a number or start:stop:steps: {e}") from e


def _emit(text: str, out: str | None):
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:  # a missing directory, a directory, no permission
            raise ValueError(f"--out: {e}") from None
    else:
        sys.stdout.write(text)


def _merged_config(args):
    """The config file's fields, with each given flag in place of its field."""
    raw = {} if args.config is None else _read_json(args.config)
    for field, parse in (("n", int), ("marked", str), ("phi", _parse_phi_grid),
                         ("gammas", _parse_gammas), ("iterations", int)):
        value = vars(args).get(field)  # sweep has no --iterations
        if value is not None and isinstance(raw, dict):  # config_from_dict rejects the rest
            raw[field] = parse(value)
    return config_from_dict(raw)


def _tolerance(text: str) -> float:
    """A --tolerance: finite and >= 0, since NaN, inf or a negative value
    would make every row pass or every row fail."""
    try:
        return check_reals(float(text), "value")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _at_least(low: int):
    """The type of an int flag of at least ``low``: one --draws or more, and
    a --seed >= 0, since Python's generator seeds by |seed|, so -s would
    give the draws of s."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _cmd_run(args) -> tuple:
    cfg = _merged_config(args)
    if not isinstance(cfg, RunConfig):
        raise MalformedConfig("run needs a scalar 'phi' (use the sweep subcommand for grids)")
    if args.format == "csv":
        (sums,) = summaries(cfg)
        return experiments.sweep_to_csv([(cfg.phi, tau(cfg.phi, cfg.n), *sums)]), 0
    (marked,), (row,) = reports(cfg)
    return experiments.run_to_json(cfg, marked, row), 0


def _cmd_sweep(args) -> tuple:
    cfg = _merged_config(args)
    if isinstance(cfg, RunConfig):
        raise MalformedConfig("sweep needs a 'phi' grid (start:stop:steps) or a 'gbar' grid")
    samples = experiments.sweep(cfg)
    write = experiments.sweep_to_json if args.format == "json" else experiments.sweep_to_csv
    return write(samples, cfg.axis), 0


def _comparison(rep, args) -> tuple:
    write = (experiments.comparison_to_json if args.format == "json"
             else experiments.comparison_to_csv)
    return write(rep), 0 if rep.all_pass else 2


def _cmd_table1(args) -> tuple:
    return _comparison(experiments.table1_comparison(args.n, args.tolerance), args)


def _cmd_appendix(args) -> tuple:
    rep = experiments.appendix_reproduce(args.table, args.tolerance, args.convention)
    return _comparison(rep, args)


def _cmd_verify_gates(args) -> tuple:
    ns = (2, 3, 4) if args.n is None else (args.n,)
    rows = verification_sweep(ns, draws=args.draws, seed=args.seed)
    passed = [worst <= args.tolerance for _, worst in rows]
    lines = [f"{pattern} max_deviation={worst:.3e} {'PASS' if ok else 'FAIL'}\n"
             for (pattern, worst), ok in zip(rows, passed)]
    ok = all(passed)
    lines.append(f"verify-gates: {'PASS' if ok else 'FAIL'} "
                 f"({len(rows)} patterns, {args.draws} draws each, tolerance {args.tolerance:g})\n")
    return "".join(lines), 0 if ok else 2


def _cmd_peak(args) -> tuple:
    marked = "g" * args.n if args.marked is None else args.marked
    rates = None if args.gammas is None else _parse_gammas(args.gammas)
    if rates is not None:  # checked after the pattern, as in peak_search, but naming the flag
        validate_pattern(marked, args.n)
        check_rates(rates, (args.n,), "--gammas", args.convention)
    phi, rho = experiments.peak_search(args.n, marked, rates, args.convention)
    return json.dumps({"phi": phi, "rho": rho}) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand, with its handler as the ``handler`` default, and
    every flag, each checked by its ``type`` as argparse reads it."""
    ap = argparse.ArgumentParser(prog="dqsa",
                                 description="Dissipative quantum-search simulator")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = []
    for name, handler, text in (
            ("run", _cmd_run, "single search run, probability report"),
            ("sweep", _cmd_sweep, "phase or dissipation sweep, CSV/JSON samples"),
            ("table1", _cmd_table1, "compare against the bundled summary row(s)"),
            ("appendix", _cmd_appendix, "compare against a bundled reference table"),
            ("verify-gates", _cmd_verify_gates, "check oracle synthesis from couplings"),
            ("peak", _cmd_peak, "phase maximizing the marked probability")):
        parsers.append(sub.add_parser(name, help=text))
        parsers[-1].set_defaults(handler=handler)
    run, sweep, table1, appendix, verify_gates, peak = parsers

    for p in (run, sweep):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--n", type=int, help="qubit count")
        p.add_argument("--marked", help="marked basis pattern, e.g. ege")
        p.add_argument("--phi", "--coeff", dest="phi",
                       help="control phase in units of pi (the summary-table time "
                            "coefficient); start:stop:steps for sweeps")
        p.add_argument("--gammas", help="comma list of per-qubit dissipation rates")
    run.add_argument("--iterations", type=int, help="iteration count (default n-1)")

    table1.add_argument("--n", type=int, help="single size (default: all 2..9)")
    table1.add_argument("--tolerance", type=_tolerance, help="override both row tolerances")

    tables = experiments.AVAILABLE_TABLES
    appendix.add_argument("--table", type=int, required=True,
                          help=f"table id in {tables[0]}..{tables[-1]}")
    appendix.add_argument("--tolerance", type=_tolerance, default=experiments.TABLE_TOLERANCE)

    verify_gates.add_argument("--n", type=int, choices=(2, 3, 4),
                              help="single size (default: 2,3,4)")
    verify_gates.add_argument("--draws", type=_at_least(1), default=20)
    verify_gates.add_argument("--tolerance", type=_tolerance, default=1e-10)
    verify_gates.add_argument("--seed", type=_at_least(0), default=20240)

    peak.add_argument("--n", type=int, required=True, choices=range(1, MAX_QUBITS + 1),
                      metavar="N")
    peak.add_argument("--marked")
    peak.add_argument("--gammas")

    for p in (run, sweep, table1, appendix):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    for p in (appendix, peak):
        p.add_argument("--convention", choices=CONVENTIONS, default="composite",
                       help="W-gate damping convention (see README)")
    return ap


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default: sys.argv[1:]); return its exit code."""
    try:
        args = build_parser().parse_args(argv)
        text, code = args.handler(args)
        _emit(text, vars(args).get("out"))  # verify-gates and peak have no --out
        return code
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if e.code else 0
    except (DqsaError, ValueError) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 1
