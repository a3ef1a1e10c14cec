"""Reproduction harness: summary-table comparison, phase and dissipation
sweeps, peak location, and comparison against the bundled reference tables.

Every multi-point computation here hands all of its runs of one register
size to the batched engine in one call (``search.summaries``,
``search.reports`` for probability rows, or, where only the marked
probability is read, the recurrence alone): a `RunConfig` for what the
runs share, and arrays for what varies.  Results come back in grid order, and
all output, written from those arrays, is deterministic: the same inputs
produce byte-identical CSV/JSON.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .basis import all_patterns
from .errors import DimensionMismatch, UnknownTable, UnsupportedSize
from .gates import check_rates, check_reals, shape_of, tau, whole_number
from .search import RunConfig, _marked_probabilities, reports, summaries

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


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Comparison columns, an entry per row: a row passes iff its absdiff is
    at most its tolerance, which the real-input rule checks (`check_reals`).
    A report has at least one row (ValueError), and ``paper`` and
    ``computed`` one entry per label (DimensionMismatch naming the column)."""

    labels: list
    paper: np.ndarray
    computed: np.ndarray
    tolerances: np.ndarray

    def __post_init__(self):
        rows = len(self.labels)
        if not rows:
            raise ValueError("a comparison report needs at least one row")
        for name in ("paper", "computed"):
            if (shape := shape_of(getattr(self, name), name)) != (rows,):
                raise DimensionMismatch(f"{name}: expected one entry per label, shape ({rows},), "
                                        f"got {shape}")
        tolerances = check_reals(self.tolerances, "tolerance", (rows,))
        object.__setattr__(self, "tolerances", tolerances)

    @property
    def absdiff(self) -> np.ndarray:
        return np.abs(self.computed - self.paper)

    @property
    def passed(self) -> np.ndarray:
        return self.absdiff <= self.tolerances

    @property
    def all_pass(self) -> bool:
        return bool(self.passed.all())

    def rows(self):
        """(label, paper, computed, absdiff, pass) per row, as Python values."""
        return zip(self.labels, self.paper.tolist(), self.computed.tolist(),
                   self.absdiff.tolist(), self.passed.tolist())


def table1_comparison(n=None, tolerance=None) -> ComparisonReport:
    """Computed peak/phi=1 probabilities against the reference row of size n, or
    of every size, within ``tolerance`` (None: PRESENT_/GROVER_TOLERANCE by column).
    Each size's two probabilities are read from the engine's recurrence alone
    (no 2^n state is built), at its SUMMARY_PHI_P and at phi=1."""
    if n is not None and whole_number(n, "n") not in SUMMARY_PHI_P:
        raise UnsupportedSize(f"summary table covers n=2..9, got {n}")
    ns = sorted(SUMMARY_PHI_P) if n is None else [n]
    computed = np.array([_marked_probabilities(RunConfig(m, "e" * m, 1.0),
                                               phi=[SUMMARY_PHI_P[m], 1.0]) for m in ns]).ravel()
    paper = np.array([(SUMMARY_PRESENT[m], SUMMARY_GROVER[m]) for m in ns]).ravel()
    labels = [f"n={m} {kind}" for m in ns for kind in ("present", "grover")]
    tolerances = [PRESENT_TOLERANCE, GROVER_TOLERANCE] if tolerance is None else [tolerance] * 2
    return ComparisonReport(labels, paper, computed, np.tile(tolerances, len(ns)))


def peak_search(n: int, marked: str, rates=None, convention: str = "composite") -> tuple:
    """(phi, rho) maximizing the marked probability over phi in (0, 1].

    Scans a step-1e-3 grid (first-maximum wins, so plateaus resolve toward
    smaller phi), then refines with one three-point parabolic fit.  The
    probabilities are read from the engine's recurrence alone, so no 2^n
    state is built.
    """
    grid = [k * 1e-3 for k in range(1, 1001)]
    config = RunConfig(n, marked, 1.0, rates, convention=convention)
    rhos = _marked_probabilities(config, phi=grid)
    best = int(np.argmax(rhos))
    phi0, rho0 = grid[best], rhos[best]
    if 0 < best < len(grid) - 1:
        ym, y0, yp = rhos[best - 1], rhos[best], rhos[best + 1]
        denom = ym - 2 * y0 + yp
        if denom < 0:
            phi_c = phi0 + 0.5e-3 * (ym - yp) / denom
            phi_c = min(max(phi_c, 1e-3), 1.0)
            (rho_c,) = _marked_probabilities(config, phi=[phi_c])
            if rho_c > rho0:
                return (phi_c, rho_c)
    return (phi0, rho0)


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D sweep (see `sweep`): over phi (axis="phase", fixed rates) or
    over a uniform rate scale g (axis="dissipation", fixed phi, default 1.0,
    rates = g * weights), on a grid of ``steps`` evenly spaced points from
    ``start`` to ``stop``.  A field the axis does not use must stay None.
    ``config`` is the `RunConfig` the sweep's runs share: a phase sweep's
    rates, or a dissipation sweep's phi, with n, the pattern and the
    convention, checked once, when the spec is built."""

    n: int
    marked: str
    axis: str = "phase"
    start: float = 0.0
    stop: float = 1.0
    steps: int = 2
    rates: tuple | None = None
    phi: float | None = None
    weights: tuple | None = None
    convention: str = "composite"
    config: RunConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.axis not in ("phase", "dissipation"):
            raise ValueError(f"axis must be 'phase' or 'dissipation', got {self.axis!r}")
        for name in ("phi", "weights") if self.axis == "phase" else ("rates",):
            if getattr(self, name) is not None:
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
        # the config checks n, the pattern, the rates or phi, and the convention
        phi = self.start if self.axis == "phase" else 1.0 if self.phi is None else self.phi
        config = RunConfig(self.n, self.marked, phi, self.rates, convention=self.convention)
        object.__setattr__(self, "config", config)
        if self.axis == "phase":
            object.__setattr__(self, "rates", config.rates)
        else:
            object.__setattr__(self, "phi", config.phi)
            weights = (1.0,) * config.n if self.weights is None else self.weights
            weights = check_reals(weights, "rate weights (gammas)", (config.n,))
            object.__setattr__(self, "weights", tuple(weights.tolist()))
            check_rates(self.stop * weights.max(), (), "gbar stop times weight", self.convention)


def sweep(spec: SweepSpec) -> list:
    """Samples over the spec's grid of ``steps`` points, the last exactly
    ``stop``, in grid order.

    A phase sweep gives (phi, tau, marked_prob, sum_unmarked, survival) rows;
    a dissipation sweep gives (gbar, phi, tau, marked_prob, sum_unmarked,
    survival) rows, with rates gbar * weights.
    """
    points = np.linspace(spec.start, spec.stop, spec.steps)
    grid = points.tolist()
    if spec.axis == "phase":
        samples = summaries(spec.config, phi=points)
        keys = [(phi, tau(phi, spec.n)) for phi in grid]
    else:
        samples = summaries(spec.config, rates=np.outer(points, spec.weights))
        keys = [(g, spec.phi, tau(spec.phi, spec.n)) for g in grid]
    return [(*key, *sample) for key, sample in zip(keys, samples)]


def _parse_table(table_id: int, text: str):
    """(n, rates, phis, patterns, cell_phis, paper) of reference table
    ``table_id``'s text, an entry per (pattern, phi) cell, sorted: paper
    (cells, 2^n) holds a cell's marked value, then its remaining-state values
    descending; it is (cells, 1) if the table gives none.  Each header rate is
    a fraction a/b or a whole number.  Raises ValueError naming the table if
    it is malformed."""
    head, _, body = text.partition("\npattern,phi,kind,value\n")
    meta = {k.strip(): v.strip() for k, _, v in
            (line[1:].partition(":") for line in head.splitlines() if line.startswith("#"))}
    fields = body.strip().replace("\n", ",").split(",")
    try:
        n = int(meta["n"])
        rates = tuple(int(a) / (int(b) if slash else 1) for a, slash, b in
                      (r.partition("/") for r in meta["rates"].split(",")))
        phis = tuple(float(p) for p in meta["phis"].split(","))
        pat, kinds = np.array(fields[0::4]), np.array(fields[2::4])
        phi, values = np.array(fields[1::4], dtype=float), np.array(fields[3::4], dtype=float)
        # a grid row per cell: its marked row, then its unmarked rows by value,
        # descending; a row without 4 fields leaves columns lexsort rejects
        grid = np.lexsort((-values, kinds != "marked", phi, pat)).reshape(
            -1, 2**n if "unmarked" in kinds else 1)
        if ((kinds[grid] != ["marked"] + ["unmarked"] * (grid.shape[1] - 1)).any()
                or (pat[grid] != pat[grid[:, :1]]).any() or (phi[grid] != phi[grid[:, :1]]).any()):
            raise ValueError(f"each cell needs one marked row and 0 or {2**n - 1} unmarked rows")
        if phis != tuple(cells := sorted(set(phi.tolist()))):  # np.unique imports numpy.ma
            raise ValueError(f"header phis {phis} are not the cells' {cells}")
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise ValueError(f"reference table {table_id} is malformed: {e}") from e
    return n, rates, phis, pat[grid[:, 0]].tolist(), phi[grid[:, 0]], values[grid]


def appendix_reproduce(table_id: int, tolerance: float = TABLE_TOLERANCE,
                       convention: str = "composite") -> ComparisonReport:
    """Recompute every cell of a bundled reference table and compare.

    Marked cells are compared directly.  Remaining-state cells are compared
    as multisets (both sides sorted descending, then paired), because the
    source tables do not attribute those values to specific states.
    """
    if whole_number(table_id, "table_id") not in AVAILABLE_TABLES:
        raise UnknownTable(f"no reference table {table_id}; available: {AVAILABLE_TABLES}")
    text = resources.files("dqsa").joinpath(f"data/table{table_id:02d}.csv").read_text()
    n, rates, _, patterns, phis, paper = _parse_table(table_id, text)
    indices, probs = reports(RunConfig(n, patterns[0], float(phis[0]), rates,
                                       convention=convention), phi=phis, marked=patterns)
    hits = probs[np.arange(len(probs)), indices]
    rest = np.sort(probs[np.arange(2**n) != indices[:, None]].reshape(len(probs), -1), axis=1)
    computed = np.concatenate((hits[:, None], rest[:, ::-1]), axis=1)[:, :paper.shape[1]]
    suffixes = [" marked"] + [f" unmarked[{k}]" for k in range(paper.shape[1] - 1)]
    cells = [f"table{table_id:02d} {pat} phi={phi:g}" for pat, phi in zip(patterns, phis.tolist())]
    labels = [cell + suffix for cell in cells for suffix in suffixes]
    return ComparisonReport(labels, paper.ravel(), computed.ravel(), np.full(paper.size, tolerance))


def comparison_to_csv(rep: ComparisonReport) -> str:
    lines = ["label,paper,computed,absdiff,pass"]
    lines += [f"{label},{p!r},{c!r},{d!r},{'true' if ok else 'false'}"
              for label, p, c, d, ok in rep.rows()]
    return "\n".join(lines) + "\n"


def comparison_to_json(rep: ComparisonReport) -> str:
    keys = ("label", "paper", "computed", "absdiff", "pass")
    doc = {"tolerance": float(rep.tolerances.max()), "all_pass": rep.all_pass,
           "rows": [dict(zip(keys, row)) for row in rep.rows()]}
    return json.dumps(doc, indent=2) + "\n"


def _sweep_columns(axis: str) -> list:
    """A sweep's sample columns; dissipation sweeps carry a leading gbar."""
    return (["gbar"] if axis == "dissipation" else []) + [
        "phi", "tau", "marked_prob", "sum_unmarked", "survival"]


def sweep_to_csv(samples: list, axis: str = "phase") -> str:
    """The samples as CSV rows under their header, each value the repr of
    its float, written a column at a time.  `float` stays: numpy 2 writes
    the repr of a numpy scalar as np.float64(...)."""
    columns = (map(repr, map(float, column)) for column in zip(*samples))
    return "\n".join([",".join(_sweep_columns(axis)), *map(",".join, zip(*columns))]) + "\n"


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
    cols = _sweep_columns(axis)
    doc = [dict(zip(cols, (float(v) for v in sample))) for sample in samples]
    return json.dumps(doc, indent=2) + "\n"
