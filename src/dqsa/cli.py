"""Command-line front end.

Subcommands: run, sweep, table1, appendix, verify-gates, peak.  Exit codes:
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


def load_config(path: str):
    """Parse a JSON config into a RunConfig or a SweepSpec.

    Schema: {"n": int, "marked": "ege", "phi": number | {"start","stop",
    "steps"}, "gammas": [numbers], "iterations": int, "convention": str,
    "gbar": {"start","stop","steps"}}.  A phi grid makes a phase sweep; a
    "gbar" grid (with scalar phi) makes a dissipation sweep; otherwise the
    result is a single-run config.  Missing gammas mean all zeros, except in
    a "gbar" config, where gammas are the weights of the rate scale and
    default to all ones.  A sweep config may not carry "iterations": sweeps
    always run n - 1 rounds.
    """
    return config_from_dict(_read_json(path))


def _read_json(path: str) -> dict:
    """The JSON object stored at ``path``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise MalformedConfig(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise MalformedConfig(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise MalformedConfig("config root must be a JSON object")
    return raw


def _grid_fields(obj, field: str):
    if not isinstance(obj, dict) or set(obj) - {"start", "stop", "steps"}:
        raise MalformedConfig(f"field '{field}' grid must have keys start/stop/steps")
    try:
        return obj["start"], obj["stop"], obj["steps"]
    except KeyError as e:
        raise MalformedConfig(f"field '{field}' grid is incomplete: {e}") from e


def config_from_dict(raw: dict):
    """Dict form of load_config (flags merge happens before this).  This
    checks only the schema's structure: the fields present, the grids' shape
    and which fields go together.  RunConfig and SweepSpec check every value."""
    if not isinstance(raw, dict):
        raise MalformedConfig("config root must be a JSON object")
    unknown = set(raw) - {"n", "marked", "phi", "gammas", "iterations", "convention", "gbar"}
    if unknown:
        raise MalformedConfig(f"unknown config fields: {sorted(unknown)}")
    for field in ("n", "marked", "phi"):
        if field not in raw:
            raise MalformedConfig(f"missing required field '{field}' (flag --{field} or config)")
    for field in ("phi", "iterations"):  # the classes would read a null as unset
        if field in raw and raw[field] is None:
            raise MalformedConfig(f"field '{field}' must not be null")
    gammas = raw.get("gammas", ())
    if "gammas" in raw and not (isinstance(gammas, (list, tuple)) and gammas):
        raise MalformedConfig("field 'gammas' must be a non-empty list of numbers")

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


def config_to_dict(cfg) -> dict:
    """Serialize a RunConfig or SweepSpec back to the JSON schema."""
    if isinstance(cfg, RunConfig):
        return {"n": cfg.n, "marked": cfg.marked, "phi": cfg.phi,
                "gammas": list(cfg.rates), "iterations": cfg.iterations,
                "convention": cfg.convention}
    grid = {"start": cfg.start, "stop": cfg.stop, "steps": cfg.steps}
    if cfg.axis == "phase":
        return {"n": cfg.n, "marked": cfg.marked, "phi": grid,
                "gammas": list(cfg.rates), "convention": cfg.convention}
    return {"n": cfg.n, "marked": cfg.marked, "phi": cfg.phi, "gbar": grid,
            "gammas": list(cfg.weights), "convention": cfg.convention}


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
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _merged_config(args):
    raw = _read_json(args.config) if args.config else {}
    if args.n is not None:
        raw["n"] = args.n
    if args.marked is not None:
        raw["marked"] = args.marked
    if args.phi is not None:
        raw["phi"] = _parse_phi_grid(args.phi)
    if args.gammas is not None:
        raw["gammas"] = list(_parse_gammas(args.gammas))
    if getattr(args, "iterations", None) is not None:
        raw["iterations"] = args.iterations
    return config_from_dict(raw)


def _add_common(p, iterations=True):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--marked", help="marked basis pattern, e.g. ege")
    p.add_argument("--phi", "--coeff", dest="phi",
                   help="control phase in units of pi (the summary-table time "
                        "coefficient); start:stop:steps for sweeps")
    p.add_argument("--gammas", help="comma list of per-qubit dissipation rates")
    if iterations:
        p.add_argument("--iterations", type=int, help="iteration count (default n-1)")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dqsa",
                                 description="Dissipative quantum-search simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single search run, probability report")
    _add_common(p)

    p = sub.add_parser("sweep", help="phase or dissipation sweep, CSV/JSON samples")
    _add_common(p, iterations=False)

    p = sub.add_parser("table1", help="compare against the bundled summary row(s)")
    p.add_argument("--n", type=int, help="single size (default: all 2..9)")
    p.add_argument("--tolerance", type=float, help="override both row tolerances")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("appendix", help="compare against a bundled reference table")
    p.add_argument("--table", type=int, required=True,
                   help=f"table id in {experiments.AVAILABLE_TABLES[0]}..{experiments.AVAILABLE_TABLES[-1]}")
    p.add_argument("--tolerance", type=float, default=experiments.TABLE_TOLERANCE)
    p.add_argument("--convention", choices=CONVENTIONS, default="composite",
                   help="W-gate damping convention (see README)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("verify-gates", help="check oracle synthesis from couplings")
    p.add_argument("--n", type=int, choices=(2, 3, 4), help="single size (default: 2,3,4)")
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=20240)

    p = sub.add_parser("peak", help="phase maximizing the marked probability")
    p.add_argument("--n", type=int, required=True, choices=range(1, MAX_QUBITS + 1), metavar="N")
    p.add_argument("--marked")
    p.add_argument("--gammas")
    p.add_argument("--convention", choices=CONVENTIONS, default="composite",
                   help="W-gate damping convention (see README)")

    return ap


def _cmd_run(args) -> int:
    cfg = _merged_config(args)
    if not isinstance(cfg, RunConfig):
        raise MalformedConfig("run needs a scalar 'phi' (use the sweep subcommand for grids)")
    if args.format == "csv":
        sample = [(cfg.phi, tau(cfg.phi, cfg.n), *summaries(cfg)[0])]
        _emit(experiments.sweep_to_csv(sample), args.out)
    else:
        (marked,), (row,) = reports(cfg)
        _emit(experiments.run_to_json(cfg, marked, row), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _merged_config(args)
    if isinstance(cfg, RunConfig):
        raise MalformedConfig("sweep needs a 'phi' grid (start:stop:steps) or a 'gbar' grid")
    samples = experiments.sweep(cfg)
    if args.format == "json":
        _emit(experiments.sweep_to_json(samples, cfg.axis), args.out)
    else:
        _emit(experiments.sweep_to_csv(samples, cfg.axis), args.out)
    return 0


def _comparison_exit(rep, args) -> int:
    if args.format == "json":
        _emit(experiments.comparison_to_json(rep), args.out)
    else:
        _emit(experiments.comparison_to_csv(rep), args.out)
    return 0 if rep.all_pass else 2


def _cmd_table1(args) -> int:
    ns = [args.n] if args.n is not None else None
    tolerances = () if args.tolerance is None else (args.tolerance, args.tolerance)
    return _comparison_exit(experiments.table1_comparison(ns, *tolerances), args)


def _cmd_appendix(args) -> int:
    rep = experiments.appendix_reproduce(args.table, args.tolerance, args.convention)
    return _comparison_exit(rep, args)


def _cmd_verify_gates(args) -> int:
    ns = (args.n,) if args.n else (2, 3, 4)
    rows = verification_sweep(ns, draws=args.draws, seed=args.seed)
    ok = True
    for pattern, worst in rows:
        passed = worst <= args.tolerance
        ok = ok and passed
        print(f"{pattern} max_deviation={worst:.3e} {'PASS' if passed else 'FAIL'}")
    print(f"verify-gates: {'PASS' if ok else 'FAIL'} "
          f"({len(rows)} patterns, {args.draws} draws each, tolerance {args.tolerance:g})")
    return 0 if ok else 2


def _cmd_peak(args) -> int:
    marked = "g" * args.n if args.marked is None else args.marked
    rates = () if args.gammas is None else _parse_gammas(args.gammas)
    if rates:  # checked after the pattern, as in peak_search, but naming the flag
        validate_pattern(marked, args.n)
        check_rates(rates, (args.n,), "--gammas")
    phi, rho = experiments.peak_search(args.n, marked, rates, args.convention)
    print(json.dumps({"phi": phi, "rho": rho}))
    return 0


_DISPATCH = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "appendix": _cmd_appendix,
    "verify-gates": _cmd_verify_gates,
    "peak": _cmd_peak,
}


def _check_comparison_flags(args):
    """Reject a --tolerance or --draws that would make a comparison vacuous
    (NaN, infinite or negative tolerances, and fewer than one draw), and a
    negative --seed, which the random generator cannot take."""
    if getattr(args, "tolerance", None) is not None:
        check_reals(args.tolerance, "--tolerance")
    if getattr(args, "draws", 1) < 1:
        raise ValueError(f"--draws must be >= 1, got {args.draws}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def parse_and_dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if e.code else 0
    try:
        _check_comparison_flags(args)
        return _DISPATCH[args.command](args)
    except (DqsaError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
