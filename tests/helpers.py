"""Dense reference implementations used to cross-check the matrix-free path.

Everything here builds full 2^n x 2^n operators with numpy.kron and applies
them by plain matrix multiplication — deliberately the slow, obviously
correct formulation, on the oracle's entries (`oracle_gate`).  It holds
the one-run oracles `run`, `report` and `marked_amplitude_trace`, checks
gate synthesis one draw at a time, runs a search on a circuit of the
synthesized gates alone, writes the `run` report and the
reference-table rows from the per-pattern dict of `report`, parses the
reference tables into dicts line by line,
writes comparison CSV and JSON and sweep CSV one row at a time, wraps the
engine's kernels (the power table and the materialization of product terms),
counts its calls per recurrence block and per state block and plans both
for the tests that check them, draws random damped configs, gives the
exact undamped marked amplitudes of the two-level picture, runs a damped
config with one rate on every qubit on its symmetric classes of basis
states, writes a config back as the JSON schema, and builds the
environment for tests that start a child process.
"""

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

import dqsa
from dqsa import search, synthesis
from dqsa.basis import all_patterns, index_of
from dqsa.gates import damping_entries, tau, w_gate
from dqsa.search import RunConfig, reports
from dqsa.synthesis import coupling_assignment, coupling_signs, evolve

# Directory holding the ``dqsa`` package this process imported: ``src`` when
# the suite runs uninstalled, site-packages when it runs installed.
DQSA_ROOT = Path(dqsa.__file__).resolve().parents[1]
CHILD_PATH = os.pathsep.join(["/usr/bin", "/bin"])


def run(config: RunConfig) -> np.ndarray:
    """Final (unnormalized) amplitudes of the search run, shape (2^n,)."""
    return search._materialize(*search._terms(config, *search._batch(config)))[0]


def report(config: RunConfig) -> SimpleNamespace:
    """Probabilities of the final state, split marked vs remaining: the
    marked_pattern and its marked_prob, every remaining-state probability in
    index order (the dict unmarked), their sum_unmarked and the survival."""
    _, (row,) = reports(config)
    rest = dict(zip(all_patterns(config.n), row.tolist()))
    marked, survival = rest.pop(config.marked), float(row.sum())
    return SimpleNamespace(marked_pattern=config.marked, marked_prob=marked, unmarked=rest,
                           sum_unmarked=survival - marked, survival=survival)


def marked_amplitude_trace(config: RunConfig) -> list:
    """Marked-state amplitude after each iteration (length = iterations)."""
    amps = search._recurrence(config, *search._batch(config))[2]
    rounds = np.arange(1, config.iterations + 1)
    return (amps[0, 2::2] * np.exp(1j * rounds * (np.pi * config.phi))).tolist()


def oracle_gate(x: str, phi, rates) -> np.ndarray:
    """Diagonal phase oracle's entries, shaped as by `damping_entries`:
    damping on every state, extra e^{i*beta} (beta = phi*pi) on x."""
    ix, entries = index_of(x), damping_entries(len(x), phi, rates).astype(np.complex128)
    entries[..., ix] *= np.exp(1j * (np.asarray(phi, dtype=np.float64) * math.pi))
    return entries


def dense_single_qubit(n: int, qubit: int, gate2: np.ndarray) -> np.ndarray:
    """I x ... x gate2 x ... x I with gate2 in slot `qubit` (1-based)."""
    mat = np.eye(1, dtype=np.complex128)
    for v in range(1, n + 1):
        mat = np.kron(mat, gate2 if v == qubit else np.eye(2))
    return mat


def dense_walsh(n: int, rates, convention: str = "composite") -> np.ndarray:
    mat = np.eye(1, dtype=np.complex128)
    for g in rates:
        mat = np.kron(mat, w_gate(g, convention))
    return mat


def dense_diffusion(n: int, phi: float, rates, convention: str = "composite") -> np.ndarray:
    """Dense diffusion gate e^{i*beta} * W_layer * P_{g...g} * W_layer,
    beta = phi*pi."""
    w = dense_walsh(n, rates, convention)
    p = oracle_gate("g" * n, phi, rates)
    return np.exp(1j * (phi * math.pi)) * (w * p[None, :]) @ w


def dense_run(n, marked, phi, rates=None, iterations=None, convention="composite"):
    """Final state amplitudes computed with dense operators only."""
    rates = tuple(rates) if rates else (0.0,) * n
    iterations = iterations if iterations is not None else max(1, n - 1)
    step = dense_diffusion(n, phi, rates, convention) * oracle_gate(marked, phi, rates)
    state = dense_walsh(n, rates, convention)[:, 0].copy()
    for _ in range(iterations):
        state = step @ state
    return state


def symmetric_power(q: np.ndarray, m: int) -> np.ndarray:
    """The one-qubit gate ``q`` on each of m qubits, restricted to states
    that every permutation of the m qubits leaves unchanged: entry [j', j]
    takes the amplitude of one basis state with j excited to that of one with
    j' excited, sum_i C(j', i) C(m - j', j - i) q11^i q10^(j' - i)
    q01^(j - i) q00^(m - j' - j + i).  Shape (m + 1, m + 1)."""
    (q00, q01), (q10, q11) = q.tolist()
    return np.array([[sum(math.comb(jp, i) * math.comb(m - jp, j - i) * q11**i * q10**(jp - i)
                          * q01**(j - i) * q00**(m - jp - j + i)
                          for i in range(max(0, j + jp - m), min(j, jp) + 1))
                      for j in range(m + 1)] for jp in range(m + 1)])


def symmetric_run(n: int, marked: str, phi: float, g: float, k: int,
                  convention: str = "composite") -> tuple:
    """(marked_prob, sum_unmarked, survival) of a run with the rate ``g`` on
    every qubit, in the round order of `dense_run`, on one amplitude f(a, b)
    per class of basis states: a excited among the marked pattern's w
    e-qubits, b among its n - w g-qubits (Shammah et al., PRA 98, 063815
    (2018)).  A W layer acts as the symmetric powers of w_gate(g) on each
    group, the oracle's damping as the diagonal exp(-tau g (a + b) / 2) on
    its own, and the phases e^{i beta} on f(w, 0), the marked state, and on
    f(0, 0); C(w, a) C(n - w, b) basis states share f(a, b)."""
    w = marked.count("e")
    gate = w_gate(g, convention)
    left, right = symmetric_power(gate, w), symmetric_power(gate, n - w)
    excited = np.add.outer(np.arange(w + 1), np.arange(n - w + 1))
    damping = np.exp(-0.5 * tau(phi, n) * g * excited)
    phase = cmath.exp(1j * math.pi * phi)
    f = np.zeros((w + 1, n - w + 1), dtype=np.complex128)
    f[0, 0] = 1.0
    f = left @ f @ right.T
    for _ in range(k):
        f = f * damping  # the oracle: its damping, then the phase on x
        f[w, 0] *= phase
        f = (left @ f @ right.T) * damping  # the diffusion: W, the oracle on 0, W
        f[0, 0] *= phase
        f = phase * (left @ f @ right.T)
    counts = np.outer([math.comb(w, a) for a in range(w + 1)],
                      [math.comb(n - w, b) for b in range(n - w + 1)])
    marked_prob, survival = float(abs(f[w, 0]) ** 2), float(np.sum(counts * np.abs(f) ** 2))
    return marked_prob, survival - marked_prob, survival


def grover_closed_form(n: int) -> float:
    """sin^2((2k+1) asin(2^(-n/2))) with k = n-1 iterations: the undamped
    phi=1 success probability."""
    return math.sin((2 * (n - 1) + 1) * math.asin(2 ** (-n / 2))) ** 2


def two_level(n: int, phi: float, k: int) -> list:
    """Marked amplitude after each of k undamped rounds, exact at any n.

    Undamped, W is the Hadamard gate, and a round is e^{i beta} (I +
    (e^{i beta} - 1)|s><s|)(I + (e^{i beta} - 1)|x><x|), beta = phi*pi, with
    |s> the uniform state W|g...g>: Long's phase-matched Grover iteration
    (G. L. Long, PRA 64, 022307 (2001)).  It keeps the state in span{|x>,
    |s>}, so it is applied here as a 2x2 matrix in the orthonormal basis
    {|x>, |r>}, where <x|s> = 2^(-n/2) and <r|s> = sqrt(1 - 2^-n) for every
    marked pattern x.  At phi=1 the last probability is grover_closed_form.
    """
    phase = cmath.exp(1j * math.pi * phi)
    s = np.array([2 ** (-n / 2), math.sqrt(1 - 2.0**-n)])
    step = phase * (np.eye(2) + (phase - 1) * np.outer(s, s)) @ np.diag([phase, 1])
    state, amplitudes = s.astype(np.complex128), []
    for _ in range(k):
        state = step @ state
        amplitudes.append(complex(state[0]))
    return amplitudes


def defining_energies(terms: dict, rates) -> np.ndarray:
    """Diagonal energies of the couplings ``terms`` (as coupling_assignment
    returns them) on n = len(rates) qubits by their defining sum, state by
    state: E[y] = -sum_tuples J * prod z_s(y) - (i/2) * sum of excited rates,
    with z_s(y) = +1 when qubit s is excited in y, else -1.  Shape (2^n,)."""
    n = len(rates)
    out = np.empty(2**n, dtype=np.complex128)
    for y in range(2**n):
        zy = [1.0 if (y >> (n - 1 - v)) & 1 else -1.0 for v in range(n)]
        real = sum(j * math.prod(zy[s - 1] for s in tup) for tup, j in terms.items())
        imag = -0.5 * sum(r for r, z in zip(rates, zy) if z > 0)
        out[y] = complex(-real, imag)
    return out


def synthesized_energies(terms: dict, rates) -> np.ndarray:
    """The energies as verification_sweep computes them: `coupling_signs`
    times the couplings' values, then `synthesis._energies`.  Shape (2^n,)."""
    ising = coupling_signs(terms, len(rates)) @ np.array(list(terms.values()))
    return synthesis._energies(ising, np.asarray(rates, dtype=np.float64))


def draw_deviation(pattern: str, phi: float, rates, energies=defining_energies) -> float:
    """Max |U - P| of one (phi, rates) draw, with no phase fitted: the
    evolution U of the ``energies`` of the pattern's couplings against its
    oracle P.  By default the energies come from their defining sum, which
    shares no code with the sweep."""
    u = evolve(energies(coupling_assignment(len(pattern), pattern), rates), phi)
    return float(np.max(np.abs(u - oracle_gate(pattern, phi, rates))))


def per_draw_sweep(ns=(2, 3, 4), draws: int = 20, seed: int = 20240) -> list:
    """verification_sweep one draw at a time: each float is one
    getrandbits(64) of random.Random(seed), shifted to 53 bits and scaled
    by 2^-53; a draw takes phi as twice the first, then its n rates.  On the
    sweep's own `synthesized_energies` the rows can equal the sweep's bit
    for bit; the defining sum differs from them in the last bits."""
    rng = random.Random(seed)

    def uniform() -> float:
        return (rng.getrandbits(64) >> 11) * 2.0**-53

    rows = []
    for n in ns:
        for pattern in all_patterns(n):
            rows.append((pattern, max(
                draw_deviation(pattern, 2.0 * uniform(), [uniform() for _ in range(n)],
                               synthesized_energies)
                for _ in range(draws))))
    return rows


def synthesized_run(marked: str, phi: float, rates, iterations: int) -> np.ndarray:
    """Final amplitudes (2^n,) of a run on a dense circuit of synthesized
    gates only: the W layer as the Kronecker product of `compose_w(g_v)`,
    and the oracles on ``marked`` and on g...g as `evolve` of their
    couplings' `synthesized_energies`.  The run is W, then ``iterations``
    rounds of (O_x, W, O_0, W), with no phase fitted or added anywhere."""
    n, w = len(marked), np.eye(1, dtype=np.complex128)
    for g in rates:
        w = np.kron(w, synthesis.compose_w(g))
    o_x, o_0 = (evolve(synthesized_energies(coupling_assignment(n, p), rates), phi)
                for p in (marked, "g" * n))
    state = w[:, 0]
    for _ in range(iterations):
        state = w @ (o_0 * (w @ (o_x * state)))
    return state


def worst_row_vs_report(rows, spec) -> float:
    """Largest deviation of the rows of ``sweep(spec)``, on either axis, from
    standalone reports of their points."""
    worst = 0.0
    for *grid, rho, sum_unmarked, surv in rows:
        if spec.axis == "phase":
            phi, rates = grid[0], spec.rates
        else:
            phi, rates = spec.phi, tuple(grid[0] * w for w in spec.weights)
        rep = report(RunConfig(spec.n, spec.marked, phi, rates, convention=spec.convention))
        worst = max(worst, abs(rho - rep.marked_prob),
                    abs(sum_unmarked - rep.sum_unmarked), abs(surv - rep.survival))
    return worst


def config_to_dict(cfg) -> dict:
    """A RunConfig or SweepSpec as the JSON config schema that
    `dqsa.cli.config_from_dict` reads."""
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


def run_json_by_dict(config: RunConfig) -> str:
    """The `run` JSON document with the report's dict of remaining-state
    probabilities in it, dumped whole by json.dumps(indent=2)."""
    rep = report(config)
    doc = {"n": config.n, "marked": config.marked, "phi": config.phi,
           "iterations": config.iterations, "gammas": list(config.rates),
           "marked_prob": rep.marked_prob, "sum_unmarked": rep.sum_unmarked,
           "survival": rep.survival, "unmarked": rep.unmarked}
    return json.dumps(doc, indent=2) + "\n"


def sweep_csv_by_rows(samples, axis: str = "phase") -> str:
    """Sweep samples as CSV under the axis' header, written one row at a
    time, each value the repr of its Python float."""
    header = ("gbar," if axis == "dissipation" else "") + "phi,tau,marked_prob,sum_unmarked,survival"
    lines = [header] + [",".join(repr(float(v)) for v in sample) for sample in samples]
    return "\n".join(lines) + "\n"


def run_csv_by_report(config: RunConfig) -> str:
    """The `run --format csv` row from the three sums of `report`."""
    rep = report(config)
    return sweep_csv_by_rows([(config.phi, tau(config.phi, config.n), rep.marked_prob,
                               rep.sum_unmarked, rep.survival)])


def table_text(table_id: int) -> str:
    """The text of a bundled reference table."""
    return resources.files("dqsa").joinpath(f"data/table{table_id:02d}.csv").read_text()


def table_by_dict(table_id: int) -> tuple:
    """(n, rates, phis, marked, unmarked) of a bundled reference table, read
    line by line: marked maps (pattern, phi) to its value and unmarked maps
    it to the list of its remaining-state values, in file order."""
    meta = {}
    marked = {}
    unmarked = {}
    for line in table_text(table_id).splitlines():
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


def appendix_rows_by_dict(table_id: int, convention: str) -> list:
    """(label, paper, computed) per row of `appendix_reproduce`, from a
    standalone `report` of each cell: its marked probability, and the values
    of its dict of remaining-state probabilities, sorted descending."""
    n, rates, _, marked, unmarked = table_by_dict(table_id)
    rows = []
    for (pattern, phi), ref in sorted(marked.items()):
        rep = report(RunConfig(n, pattern, phi, rates, convention=convention))
        prefix = f"table{table_id:02d} {pattern} phi={phi:g}"
        rows.append((f"{prefix} marked", ref, rep.marked_prob))
        pairs = zip(sorted(unmarked.get((pattern, phi), ()), reverse=True),
                    sorted(rep.unmarked.values(), reverse=True))
        rows += [(f"{prefix} unmarked[{k}]", rv, cv) for k, (rv, cv) in enumerate(pairs)]
    return rows


def comparison_by_rows(rows, tolerance: float) -> tuple:
    """(CSV, JSON) of comparison rows (label, paper, computed, row tolerance),
    each row's absdiff and verdict worked out and written on its own, with
    ``tolerance`` as the report's."""
    lines, docs = ["label,paper,computed,absdiff,pass"], []
    for label, paper, computed, row_tolerance in rows:
        diff = abs(computed - paper)
        passed = diff <= row_tolerance
        lines.append(f"{label},{paper!r},{computed!r},{diff!r},{str(passed).lower()}")
        docs.append({"label": label, "paper": paper, "computed": computed,
                     "absdiff": diff, "pass": passed})
    doc = {"tolerance": tolerance, "all_pass": all(d["pass"] for d in docs), "rows": docs}
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2) + "\n"


@st.composite
def damped_configs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    marked = "".join(draw(st.sampled_from("ge")) for _ in range(n))
    phi = draw(st.floats(min_value=0.0, max_value=2.0))
    rates = tuple(draw(st.floats(min_value=0.0, max_value=1.5)) for _ in range(n))
    iterations = draw(st.integers(min_value=1, max_value=12))
    convention = draw(st.sampled_from(("composite", "tabulated")))
    return RunConfig(n, marked, phi, rates, iterations, convention)


def random_terms(rng: np.random.Generator, n: int, b: int = 1, t: int = 3):
    """Random sums of ``t`` product states for ``b`` runs, in the engine's
    layout and domain: complex coefficients (b, t) and real per-qubit vectors
    (n, 2, b, t), scaled so that each run's state has norm 1."""
    coeffs = rng.normal(size=(b, t)) + 1j * rng.normal(size=(b, t))
    vecs = rng.normal(size=(n, 2, b, t))
    norms = np.linalg.norm(dense_terms(coeffs, vecs), axis=1)
    return coeffs / norms[:, None], vecs


def dense_terms(coeffs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sum_t c_t u_{t,1} x ... x u_{t,n} per run, built with numpy.kron,
    shape (B, 2^n)."""
    n, _, b, t = vecs.shape
    out = np.zeros((b, 2**n), dtype=np.complex128)
    for j in range(b):
        for k in range(t):
            state = np.ones(1, dtype=np.complex128)
            for v in range(n):
                state = np.kron(state, vecs[v, :, j, k])
            out[j] += coeffs[j, k] * state
    return out


def layer_on_terms(coeffs: np.ndarray, vecs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The engine's kernels on a sum of product states: real gates ``mats``
    (n, 2, 2, B) applied to every term by the power table (its j=1 entry),
    then the terms materialized, shape (B, 2^n)."""
    table = search._powers(mats.transpose(1, 2, 0, 3), vecs.transpose(1, 3, 0, 2), 2)
    return search._materialize(coeffs, table[:, 1].transpose(2, 0, 3, 1))


@dataclass
class EngineCalls:
    """The engine's calls, in order: ``recurrence`` holds the size of every
    recurrence block it evolves (a `search._recurrence` call, which
    `search._terms` makes too),
    ``state`` the size of every state block whose amplitudes it builds (a
    `search._materialize` call), and ``dtypes`` the dtype of the vector
    table each state block was given."""

    recurrence: list = field(default_factory=list)
    state: list = field(default_factory=list)
    dtypes: list = field(default_factory=list)


def record_blocks(monkeypatch) -> EngineCalls:
    """EngineCalls that records the engine's calls from here on."""
    calls = EngineCalls()
    recurrence, materialize = search._recurrence, search._materialize

    def spy_recurrence(config, marked, phi, rates):
        calls.recurrence.append(len(phi))
        return recurrence(config, marked, phi, rates)

    def spy_materialize(coeffs, vecs):
        calls.state.append(len(coeffs))
        calls.dtypes.append(vecs.dtype)
        return materialize(coeffs, vecs)

    monkeypatch.setattr(search, "_recurrence", spy_recurrence)
    monkeypatch.setattr(search, "_materialize", spy_materialize)
    return calls


def split(points: int, width: int) -> list:
    """The sizes of the blocks of at most ``width`` that ``points`` runs
    fill, in order."""
    return [min(width, points - lo) for lo in range(0, points, width)]


def recurrence_width(n: int, iterations: int) -> int:
    """Runs per recurrence block, counted at T*(3n + 16) 16-byte units per
    run (T = 2*iterations + 1) from the engine's budget, rounded down to a
    whole number of state blocks and never less than one."""
    size = search.points_per_block(n, iterations)
    units = (2 * iterations + 1) * (3 * n + 16)
    return max(size, search.BLOCK_AMPLITUDES // units // size * size)


def planned_blocks(n: int, iterations: int, points: int) -> tuple:
    """(recurrence, state) block sizes of a batch of ``points`` runs: each
    recurrence block split into state blocks of `search.points_per_block`
    runs."""
    recurrence = split(points, recurrence_width(n, iterations))
    size = search.points_per_block(n, iterations)
    return recurrence, [part for block in recurrence for part in split(block, size)]


def child_env(path_prefix=None, **extra) -> dict:
    """Minimal environment for a child process that imports ``dqsa``.

    Only PATH and PYTHONPATH are set, and PYTHONDONTWRITEBYTECODE when the
    suite runs with it, so nothing else of the parent's environment leaks
    into the child, and a child writes no ``__pycache__`` the suite would not;
    PYTHONPATH points at DQSA_ROOT, so the child imports the same ``dqsa``
    as the suite, never another copy.  ``path_prefix`` is put in front of
    PATH; ``extra`` adds variables.
    """
    path = CHILD_PATH if path_prefix is None else os.pathsep.join([str(path_prefix), CHILD_PATH])
    kept = {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE",) if k in os.environ}
    return {"PATH": path, "PYTHONPATH": str(DQSA_ROOT), **kept, **extra}
