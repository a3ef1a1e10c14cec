"""Reproduction harness: summary-table comparison, phase and dissipation
sweeps, peak location, and comparison against the bundled reference tables.

Every multi-point computation here hands all of its runs of one register
size to the batched engine in one call (``search.summaries``, or
``search.reports`` for probability rows): a `RunConfig` for what the runs
share, and arrays for what varies.  Results come back in grid order, and
all output, written from those arrays, is deterministic: the same inputs
produce byte-identical CSV/JSON.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .basis import all_patterns, validate_pattern
from .errors import UnknownTable, UnsupportedSize
from .gates import check_convention, check_phi, check_rates, check_reals, tau, whole_number
from .search import RunConfig, reports, summaries

# Reference summary row per size: the peak phase coefficient phi_p, the peak
# ("present") success probability, and the phi=1 ("grover") probability.
SUMMARY_PHI_P = {2: 0.9425, 3: 0.6723, 4: 0.6933, 5: 0.8661,
                 6: 0.9899, 7: 0.9906, 8: 0.9906, 9: 0.995}
SUMMARY_PRESENT = {2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0,
                   6: 0.9635, 7: 0.8335, 8: 0.6503, 9: 0.4662}
SUMMARY_GROVER = {2: 1.0, 3: 0.9453, 4: 0.9613, 5: 0.9992,
                  6: 0.9635, 7: 0.8335, 8: 0.6503, 9: 0.4662}

GROVER_TOLERANCE = 5e-4
PRESENT_TOLERANCE = 1e-3
TABLE_TOLERANCE = 2e-3

AVAILABLE_TABLES = tuple(range(2, 12))

# Tables whose strong-dissipation cells are reproduced only by the
# "tabulated" gate convention; under the default composite convention they
# carry a known systematic offset (worst marked deviation < 9e-3).  See
# README "Known systematic offset".
OFFSET_TABLES = (3, 11)


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    paper: float
    computed: float
    absdiff: float
    passed: bool
    tolerance: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-cell comparison rows; a row passes iff absdiff <= its tolerance."""

    rows: tuple
    tolerance: float

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def worst(self) -> float:
        return max((r.absdiff for r in self.rows), default=0.0)


def _row(label: str, ref: float, computed: float, tolerance: float) -> ComparisonRow:
    diff = abs(computed - ref)
    return ComparisonRow(label, ref, computed, diff, diff <= tolerance, tolerance)


def table1(n: int) -> tuple:
    """(phi_p, probability at phi_p, probability at phi=1) for size n."""
    if n not in SUMMARY_PHI_P:
        raise UnsupportedSize(f"summary table covers n=2..9, got {n}")
    phi_p = SUMMARY_PHI_P[n]
    (present, *_), (grover, *_) = summaries(RunConfig(n, "e" * n, 1.0), phi=[phi_p, 1.0])
    return (phi_p, present, grover)


def table1_comparison(ns=None, present_tolerance: float = PRESENT_TOLERANCE,
                      grover_tolerance: float = GROVER_TOLERANCE) -> ComparisonReport:
    """Compare computed peak/phi=1 probabilities against the reference row."""
    rows = []
    for n in ns or sorted(SUMMARY_PHI_P):
        _, present, grover = table1(n)
        rows.append(_row(f"n={n} present", SUMMARY_PRESENT[n], present, present_tolerance))
        rows.append(_row(f"n={n} grover", SUMMARY_GROVER[n], grover, grover_tolerance))
    return ComparisonReport(tuple(rows), present_tolerance)


def peak_search(n: int, marked: str, rates=(), convention: str = "composite") -> tuple:
    """(phi, rho) maximizing the marked probability over phi in (0, 1].

    Scans a step-1e-3 grid (first-maximum wins, so plateaus resolve toward
    smaller phi), then refines with one three-point parabolic fit.
    """
    grid = [k * 1e-3 for k in range(1, 1001)]
    config = RunConfig(n, marked, 1.0, rates, convention=convention)
    rhos = [rho for rho, _, _ in summaries(config, phi=grid)]
    best = max(range(len(grid)), key=lambda i: (rhos[i], -i))
    phi0, rho0 = grid[best], rhos[best]
    if 0 < best < len(grid) - 1:
        ym, y0, yp = rhos[best - 1], rhos[best], rhos[best + 1]
        denom = ym - 2 * y0 + yp
        if denom < 0:
            phi_c = phi0 + 0.5e-3 * (ym - yp) / denom
            phi_c = min(max(phi_c, 1e-3), 1.0)
            rho_c = summaries(config, phi=[phi_c])[0][0]
            if rho_c > rho0:
                return (phi_c, rho_c)
    return (phi0, rho0)


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D sweep (see `sweep`): over phi (axis="phase", fixed rates) or
    over a uniform rate scale g (axis="dissipation", fixed phi, default 1.0,
    rates = g * weights), on a grid of ``steps`` evenly spaced points from
    ``start`` to ``stop``.  A field the axis does not use must stay unset."""

    n: int
    marked: str
    axis: str = "phase"
    start: float = 0.0
    stop: float = 1.0
    steps: int = 2
    rates: tuple = ()
    phi: float | None = None
    weights: tuple = ()
    convention: str = "composite"

    def __post_init__(self):
        if self.axis not in ("phase", "dissipation"):
            raise ValueError(f"axis must be 'phase' or 'dissipation', got {self.axis!r}")
        for name in ("phi", "weights") if self.axis == "phase" else ("rates",):
            if getattr(self, name) not in (None, ()):
                raise ValueError(f"a {self.axis} sweep does not use {name}")
        grid = "phi" if self.axis == "phase" else "gbar"
        object.__setattr__(self, "start", check_reals(self.start, f"{grid} start"))
        object.__setattr__(self, "stop", check_reals(self.stop, f"{grid} stop"))
        if whole_number(self.steps, "steps") < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.axis == "phase" and not self.start <= self.stop <= 2:
            raise ValueError(f"phase grid must lie in [0, 2], got [{self.start}, {self.stop}]")
        if self.axis == "dissipation" and not self.start <= self.stop < 4:
            raise ValueError(f"rate grid must lie in [0, 4), got [{self.start}, {self.stop}]")
        n = whole_number(self.n, "n")
        if self.axis == "phase":
            rates = check_rates(self.rates or (0.0,) * n, (n,))
            object.__setattr__(self, "rates", tuple(rates.tolist()))
        else:
            object.__setattr__(self, "phi", check_phi(1.0 if self.phi is None else self.phi))
            weights = check_reals(self.weights or (1.0,) * n, "rate weights", (n,))
            object.__setattr__(self, "weights", tuple(weights.tolist()))
        validate_pattern(self.marked, n)
        check_convention(self.convention)
        if self.axis == "dissipation":
            check_rates(self.stop * max(self.weights), name="gbar stop times weight")

    def grid(self) -> list:
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + k * step for k in range(self.steps)]


def sweep(spec: SweepSpec) -> list:
    """Samples over the spec's grid, in grid order.

    A phase sweep gives (phi, tau, marked_prob, sum_unmarked, survival) rows;
    a dissipation sweep gives (gbar, phi, tau, marked_prob, sum_unmarked,
    survival) rows, with rates gbar * weights.
    """
    grid = spec.grid()
    if spec.axis == "phase":
        config = RunConfig(spec.n, spec.marked, spec.start, spec.rates, convention=spec.convention)
        samples = summaries(config, phi=grid)
        keys = [(phi, tau(phi, spec.n)) for phi in grid]
    else:
        config = RunConfig(spec.n, spec.marked, spec.phi, convention=spec.convention)
        samples = summaries(config, rates=[[g * w for w in spec.weights] for g in grid])
        keys = [(g, spec.phi, tau(spec.phi, spec.n)) for g in grid]
    return [(*key, *sample) for key, sample in zip(keys, samples)]


def _load_table(table_id: int):
    """Parse a bundled reference table: (n, rates, phis, marked, unmarked)."""
    if table_id not in AVAILABLE_TABLES:
        raise UnknownTable(f"no reference table {table_id}; available: {AVAILABLE_TABLES}")
    text = resources.files("dqsa").joinpath(f"data/table{table_id:02d}.csv").read_text()
    meta = {}
    marked = {}
    unmarked = {}
    for line in text.splitlines():
        if line.startswith("#"):
            stripped = line[1:].strip()
            if ":" in stripped:
                k, v = stripped.split(":", 1)
                if k.strip() in ("n", "rates", "phis"):
                    meta[k.strip()] = v.strip()
        elif line and not line.startswith("pattern,"):
            pat, phi, kind, value = line.split(",")
            key = (pat, float(phi))
            if kind == "marked":
                marked[key] = float(value)
            else:
                unmarked.setdefault(key, []).append(float(value))
    n = int(meta["n"])
    rates = tuple(float(Fraction(r.strip())) for r in meta["rates"].split(","))
    phis = tuple(float(p) for p in meta["phis"].split(","))
    return n, rates, phis, marked, unmarked


def appendix_reproduce(table_id: int, tolerance: float = TABLE_TOLERANCE,
                       convention: str = "composite") -> ComparisonReport:
    """Recompute every cell of a bundled reference table and compare.

    Marked cells are compared directly.  Remaining-state cells are compared
    as multisets (both sides sorted descending, then paired), because the
    source tables do not attribute those values to specific states.
    """
    n, rates, phis, marked, unmarked = _load_table(table_id)
    cells = sorted(marked.items())
    (pattern, phi), _ = cells[0]
    indices, probs = reports(RunConfig(n, pattern, phi, rates, convention=convention),
                             phi=[p for (_, p), _ in cells], marked=[p for (p, _), _ in cells])
    rows = []
    for ((pat, phi), ref), ix, rest in zip(cells, indices.tolist(), probs.tolist()):
        prefix = f"table{table_id:02d} {pat} phi={phi:g}"
        rows.append(_row(f"{prefix} marked", ref, rest.pop(ix), tolerance))
        pairs = zip(sorted(unmarked.get((pat, phi), ()), reverse=True), sorted(rest, reverse=True))
        for k, (rv, cv) in enumerate(pairs):
            rows.append(_row(f"{prefix} unmarked[{k}]", rv, cv, tolerance))
    return ComparisonReport(tuple(rows), tolerance)


def comparison_to_csv(rep: ComparisonReport) -> str:
    lines = ["label,paper,computed,absdiff,pass"]
    for r in rep.rows:
        lines.append(f"{r.label},{r.paper!r},{r.computed!r},{r.absdiff!r},{str(r.passed).lower()}")
    return "\n".join(lines) + "\n"


def comparison_to_json(rep: ComparisonReport) -> str:
    doc = {
        "tolerance": rep.tolerance,
        "all_pass": rep.all_pass,
        "rows": [
            {"label": r.label, "paper": r.paper, "computed": r.computed,
             "absdiff": r.absdiff, "pass": r.passed}
            for r in rep.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def sweep_to_csv(samples: list, axis: str = "phase") -> str:
    """CSV emission; dissipation sweeps carry a leading gbar column."""
    if axis == "dissipation":
        lines = ["gbar,phi,tau,marked_prob,sum_unmarked,survival"]
    else:
        lines = ["phi,tau,marked_prob,sum_unmarked,survival"]
    for sample in samples:
        lines.append(",".join(repr(float(v)) for v in sample))
    return "\n".join(lines) + "\n"


def run_to_json(config: RunConfig, marked: int, row) -> str:
    """One run's report, from its marked index and probability row, as
    json.dumps(indent=2) writes it, but with the 2^n - 1 entries written as
    lines: ``indent`` would walk them in json's pure-Python encoder."""
    values, survival = row.tolist(), float(row.sum())
    head = json.dumps({"n": config.n, "marked": config.marked, "phi": config.phi,
                       "iterations": config.iterations, "gammas": list(config.rates),
                       "marked_prob": values[marked], "sum_unmarked": survival - values[marked],
                       "survival": survival}, indent=2)
    lines = [f'    "{label}": {p!r}' for label, p in zip(all_patterns(config.n), values)]
    del lines[marked]
    return head[:-2] + ',\n  "unmarked": {\n' + ",\n".join(lines) + "\n  }\n}\n"


def sweep_to_json(samples: list, axis: str = "phase") -> str:
    cols = (["gbar"] if axis == "dissipation" else []) + [
        "phi", "tau", "marked_prob", "sum_unmarked", "survival"]
    doc = [dict(zip(cols, (float(v) for v in sample))) for sample in samples]
    return json.dumps(doc, indent=2) + "\n"
