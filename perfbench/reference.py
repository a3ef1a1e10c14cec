"""Independent reference for checking dqsa CLI outputs.

The engine here shares no code with the package.  It folds each qubit's
damping factor into its W gate, M_v = W_v diag(1, exp(-tau g_v / 2)), so one
search iteration is: phase on the marked amplitude, one 2x2 contraction per
qubit with M_v, phase on the all-ground amplitude, the same contractions
again, then a global phase.  Each contraction reshapes the (batch, 2^n)
state to (batch, 2^(v-1), 2, 2^(n-v)) and multiplies by M_v, so memory stays
O(batch * 2^n) at any n; no 2^n x 2^n operator is ever built.

Checkers parse one call's output text and raise CheckFailed on the first
mismatch.  Probabilities must agree with the reference within ABS_TOL, and
every reported sum_unmarked + marked_prob must equal survival within
ABS_TOL.  Strong damping can leave a survival far below ABS_TOL (down to
1e-11 at n=12 with 50 iterations), so each deviation must also stay within
REL_TOL times the reference survival; the engines agree to about 2e-14 of it.
"""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

ABS_TOL = 1e-12
REL_TOL = 1e-11

# Summary-row peak phases (Table 1), the inputs of `dqsa table1`.
TABLE1_PHI_P = {2: 0.9425, 3: 0.6723, 4: 0.6933, 5: 0.8661,
                6: 0.9899, 7: 0.9906, 8: 0.9906, 9: 0.995}


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(label: str, got, want, survival=None, tol: float = ABS_TOL):
    """Every |got - want| <= tol, and <= REL_TOL * survival when given."""
    dev = np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))
    if survival is not None:
        tol = np.minimum(tol, REL_TOL * np.asarray(survival, dtype=float))
    excess = dev - tol
    k = int(np.argmax(excess))
    _require(excess.flat[k] <= 0, f"{label}: deviation {dev.flat[k]:.3e} > "
                                  f"{np.broadcast_to(tol, dev.shape).flat[k]:.3e}")


# ---------------------------------------------------------------- engine

def w_matrix(g: float, convention: str) -> np.ndarray:
    """One-qubit damped W gate in (g, e) order, from its closed form."""
    xi = math.sqrt(16.0 - g * g) / 4.0
    if convention == "composite":
        asym, pre = g / (4.0 * xi), math.exp(-math.pi * g / (16.0 * xi))
    else:
        asym, pre = g * xi / 4.0, math.exp(-math.pi * g * xi / 16.0)
    return pre / math.sqrt(2.0) * np.array([[1.0 + asym, 1.0 / xi],
                                            [1.0 / xi, asym - 1.0]])


@lru_cache(maxsize=16)
def patterns(n: int) -> tuple:
    """All g/e patterns of n qubits in basis-index order."""
    return tuple("".join(p) for p in itertools.product("ge", repeat=n))


def index_of(pattern: str) -> int:
    return int(pattern.replace("g", "0").replace("e", "1"), 2)


def probabilities(n: int, marked: str, phis, rates, iterations: int,
                  convention: str = "composite", chunk: int = 64) -> np.ndarray:
    """|amplitude|^2 of the final state for each (phi, rates) row.

    ``phis`` has shape (B,), ``rates`` shape (B, n).  Returns (B, 2^n).
    """
    phis = np.asarray(phis, dtype=float)
    rates = np.asarray(rates, dtype=float).reshape(len(phis), n)
    out = np.empty((len(phis), 2**n))
    for lo in range(0, len(phis), chunk):
        amps = _final_amps(n, index_of(marked), phis[lo:lo + chunk],
                           rates[lo:lo + chunk], iterations, convention)
        out[lo:lo + chunk] = amps.real**2 + amps.imag**2
    return out


def _final_amps(n, ix, phis, rates, iterations, convention):
    b = len(phis)
    beta = math.pi * phis
    tau = beta / 2**n
    w = np.array([[w_matrix(g, convention) for g in row] for row in rates],
                 dtype=np.complex128).reshape(b, n, 2, 2)
    m = w.copy()
    m[..., 1] *= np.exp(-0.5 * tau[:, None] * rates)[..., None]
    phase = np.exp(1j * beta)

    # the first W layer maps |g...g> to the product of each W_v's first column
    amps = w[:, 0, :, 0]
    for v in range(1, n):
        amps = (amps[:, :, None] * w[:, v, None, :, 0]).reshape(b, -1)

    def layer(a):
        for v in range(n):
            a = np.matmul(m[:, None, v], a.reshape(b, 2**v, 2, -1))
        return a.reshape(b, -1)

    for _ in range(iterations):
        amps[:, ix] *= phase
        amps = layer(amps)
        amps[:, 0] *= phase
        amps = layer(amps)
        amps *= phase[:, None]
    return amps


# ---------------------------------------------------------------- checkers

def _csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_samples(label, n, marked, phis, rates, cols, convention="composite"):
    """cols: the marked_prob, sum_unmarked and survival columns as arrays."""
    marked_prob, sum_unmarked, survival = cols
    probs = probabilities(n, marked, phis, rates, max(1, n - 1), convention)
    ref_marked = probs[:, index_of(marked)]
    ref_survival = probs.sum(axis=1)
    _close(f"{label} marked_prob", marked_prob, ref_marked, ref_survival)
    _close(f"{label} survival", survival, ref_survival, ref_survival)
    _close(f"{label} sum_unmarked", sum_unmarked, ref_survival - ref_marked, ref_survival)
    _close(f"{label} sum_unmarked + marked_prob vs survival",
           sum_unmarked + marked_prob, survival, ref_survival)


def check_sweep_phase(text: str, p: dict):
    rows = np.array(_csv_rows(text, "phi,tau,marked_prob,sum_unmarked,survival"), dtype=float)
    n = p["n"]
    _require(rows.shape == (p["grid"][2], 5), f"sweep has shape {rows.shape}")
    phis = rows[:, 0]
    _close("sweep phi grid", phis, np.linspace(*p["grid"]))
    _close("sweep tau", rows[:, 1], phis * math.pi / 2**n, tol=1e-15)
    rates = np.broadcast_to(p["rates"], (len(phis), n))
    _check_samples("sweep", n, p["marked"], phis, rates, rows[:, 2:5].T)


def check_sweep_dissipation(text: str, p: dict):
    rows = np.array(_csv_rows(text, "gbar,phi,tau,marked_prob,sum_unmarked,survival"),
                    dtype=float)
    n, grid = p["n"], p["gbar"]
    _require(rows.shape == (grid["steps"], 6), f"sweep has shape {rows.shape}")
    gbar = rows[:, 0]
    _close("dissipation gbar grid", gbar, np.linspace(grid["start"], grid["stop"], grid["steps"]))
    _require(bool(np.all(rows[:, 1] == p["phi"])), "dissipation phi column differs from input")
    _close("dissipation tau", rows[:, 2], p["phi"] * math.pi / 2**n, tol=1e-15)
    phis = np.full(len(gbar), p["phi"])
    _check_samples("dissipation", n, p["marked"], phis, gbar[:, None] * np.ones(n),
                   rows[:, 3:6].T)


def check_run_json(text: str, p: dict):
    doc = json.loads(text)
    n, marked = p["n"], p["marked"]
    for key in ("n", "marked", "phi", "iterations"):
        _require(doc.get(key) == p[key], f"run field {key!r} is {doc.get(key)!r}")
    _require(tuple(doc.get("gammas", ())) == p["rates"], "run gammas differ from input")
    probs = probabilities(n, marked, [p["phi"]], [p["rates"]], p["iterations"])[0]
    ix = index_of(marked)
    names = patterns(n)
    unmarked = doc["unmarked"]
    _require(list(unmarked) == list(names[:ix] + names[ix + 1:]),
             "run unmarked keys are not every other pattern in index order")
    survival = probs.sum()
    _close("run unmarked", list(unmarked.values()), np.delete(probs, ix), survival)
    _close("run marked_prob", doc["marked_prob"], probs[ix], survival)
    _close("run survival", doc["survival"], survival, survival)
    _close("run sum_unmarked", doc["sum_unmarked"], survival - probs[ix], survival)
    _close("run sum_unmarked + marked_prob vs survival",
           doc["sum_unmarked"] + doc["marked_prob"], doc["survival"], survival)


def _comparison_rows(text: str) -> list:
    rows = _csv_rows(text, "label,paper,computed,absdiff,pass")
    _require(all(len(r) == 5 and r[4] == "true" for r in rows), "a comparison row failed")
    return rows


def check_table1(text: str, p: dict):
    rows = _comparison_rows(text)
    labels, want = [], []
    for n, phi_p in TABLE1_PHI_P.items():
        ix = index_of("e" * n)
        probs = probabilities(n, "e" * n, [phi_p, 1.0], np.zeros((2, n)), n - 1)
        labels += [f"n={n} present", f"n={n} grover"]
        want += [probs[0, ix], probs[1, ix]]
    _require([r[0] for r in rows] == labels, "table1 labels differ")
    _close("table1 computed", [float(r[2]) for r in rows], want)


def _load_table(table: int):
    path = Path(__file__).resolve().parent.parent / "src" / "dqsa" / "data" / f"table{table:02d}.csv"
    meta, cells = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line and not line.startswith("pattern,"):
            pattern, phi, kind, _ = line.split(",")
            counts = cells.setdefault((pattern, float(phi)), [0, 0])
            counts[kind == "unmarked"] += 1
    rates = [float(Fraction(r)) for r in meta["rates"].split(",")]
    return int(meta["n"]), rates, cells


def check_appendix(text: str, p: dict):
    """Marked cells directly; remaining-state cells as sorted multisets."""
    table, convention = p["table"], p["convention"]
    rows = _comparison_rows(text)
    n, rates, cells = _load_table(table)
    labels, want = [], []
    for (pattern, phi), (n_marked, n_unmarked) in sorted(cells.items()):
        if not n_marked:
            continue
        probs = probabilities(n, pattern, [phi], [rates], n - 1, convention)[0]
        ix = index_of(pattern)
        prefix = f"table{table:02d} {pattern} phi={phi:g}"
        labels.append(f"{prefix} marked")
        want.append(probs[ix])
        rest = sorted(np.delete(probs, ix), reverse=True)[:n_unmarked]
        labels += [f"{prefix} unmarked[{k}]" for k in range(len(rest))]
        want += rest
    _require([r[0] for r in rows] == labels, f"appendix table {table} labels differ")
    _close(f"appendix table {table} computed", [float(r[2]) for r in rows], want)


def check_verify_gates(text: str, p: dict):
    lines = text.splitlines()
    names = [pat for n in (2, 3, 4) for pat in patterns(n)]
    _require(len(lines) == len(names) + 1, f"verify-gates printed {len(lines)} lines")
    for name, line in zip(names, lines):
        pattern, dev, verdict = line.split(" ")
        _require(pattern == name and verdict == "PASS"
                 and float(dev.removeprefix("max_deviation=")) <= 1e-10,
                 f"verify-gates line {line!r}")
    _require(lines[-1].startswith(f"verify-gates: PASS ({len(names)} patterns"),
             f"verify-gates summary {lines[-1]!r}")


def check_peak(text: str, p: dict):
    """The reported phi is within one grid step of the grid maximum, and the
    reported rho is the reference probability at that phi and no lower than
    the grid maximum."""
    doc = json.loads(text)
    n, marked = p["n"], p["marked"]
    ix = index_of(marked)
    grid = np.arange(1, 1001) * 1e-3
    at_grid = probabilities(n, marked, grid, np.zeros((len(grid), n)), n - 1)[:, ix]
    phi, rho = doc["phi"], doc["rho"]
    _require(1e-3 <= phi <= 1.0, f"peak phi {phi} outside (0, 1]")
    _require(abs(phi - grid[int(np.argmax(at_grid))]) <= 1e-3 + 1e-12,
             f"peak phi {phi} is not next to the grid maximum")
    _close("peak rho", rho, probabilities(n, marked, [phi], np.zeros((1, n)), n - 1)[0, ix])
    _require(rho >= at_grid.max() - ABS_TOL, f"peak rho {rho} below the grid maximum")


CHECKS = {
    "sweep-phase": check_sweep_phase,
    "sweep-dissipation": check_sweep_dissipation,
    "run-json": check_run_json,
    "table1": check_table1,
    "appendix": check_appendix,
    "verify-gates": check_verify_gates,
    "peak": check_peak,
}


def check(call, text: str):
    """Raise CheckFailed unless ``text`` is the correct output of ``call``."""
    CHECKS[call.kind](text, call.params)
