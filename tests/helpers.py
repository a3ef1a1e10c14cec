"""Dense reference implementations used to cross-check the matrix-free path.

Everything here builds full 2^n x 2^n operators with numpy.kron and applies
them by plain matrix multiplication — deliberately the slow, obviously
correct formulation.  It also checks gate synthesis one draw at a time,
writes the `run` report and the reference-table rows from the per-pattern
dict of `report`, wraps the engine's kernels (the power table and the
materialization of product terms) and its block split for the tests that
check them, draws random damped configs, and builds the environment for
tests that start a child process.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import dqsa
from dqsa import search
from dqsa.basis import all_patterns
from dqsa.experiments import _load_table, sweep_to_csv
from dqsa.gates import oracle_gate, tau, w_gate
from dqsa.search import RunConfig, report
from dqsa.synthesis import build_hamiltonian, coupling_assignment, evolve

# Directory holding the ``dqsa`` package this process imported: ``src`` when
# the suite runs uninstalled, site-packages when it runs installed.
DQSA_ROOT = Path(dqsa.__file__).resolve().parents[1]
CHILD_PATH = os.pathsep.join(["/usr/bin", "/bin"])


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


def grover_closed_form(n: int) -> float:
    """sin^2((2k+1) asin(2^(-n/2))) with k = n-1 iterations: the undamped
    phi=1 success probability."""
    return math.sin((2 * (n - 1) + 1) * math.asin(2 ** (-n / 2))) ** 2


def draw_deviation(pattern: str, phi: float, rates) -> float:
    """Max |U - c*P| of one (phi, rates) draw, by the scalar gate functions:
    the evolution U of the pattern's coupling Hamiltonian against its oracle
    P, aligned on the all-g entry (all-e when all-g is marked)."""
    n = len(pattern)
    u = evolve(build_hamiltonian(coupling_assignment(n, pattern), rates), phi)
    p = oracle_gate(pattern, phi, rates)
    ref = 2**n - 1 if pattern == "g" * n else 0
    c = u[ref] / p[ref]
    return float(np.max(np.abs(u - c * p)))


def per_draw_sweep(ns=(2, 3, 4), draws: int = 20, seed: int = 20240) -> list:
    """verification_sweep one draw at a time: each draw takes phi from
    uniform(0, 2), then its n rates from uniform(0, 1)."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        for pattern in all_patterns(n):
            rows.append((pattern, max(
                draw_deviation(pattern, rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0, n).tolist())
                for _ in range(draws))))
    return rows


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


def run_json_by_dict(config: RunConfig) -> str:
    """The `run` JSON document with the report's dict of remaining-state
    probabilities in it, dumped whole by json.dumps(indent=2)."""
    rep = report(config)
    doc = {"n": config.n, "marked": config.marked, "phi": config.phi,
           "iterations": config.iterations, "gammas": list(config.rates),
           "marked_prob": rep.marked_prob, "sum_unmarked": rep.sum_unmarked,
           "survival": rep.survival, "unmarked": rep.unmarked}
    return json.dumps(doc, indent=2) + "\n"


def run_csv_by_report(config: RunConfig) -> str:
    """The `run --format csv` row from the three sums of `report`."""
    rep = report(config)
    return sweep_to_csv([(config.phi, tau(config.phi, config.n), rep.marked_prob,
                          rep.sum_unmarked, rep.survival)])


def appendix_rows_by_dict(table_id: int, convention: str) -> list:
    """(label, paper, computed) per row of `appendix_reproduce`, from a
    standalone `report` of each cell: its marked probability, and the values
    of its dict of remaining-state probabilities, sorted descending."""
    n, rates, _, marked, unmarked = _load_table(table_id)
    rows = []
    for (pattern, phi), ref in sorted(marked.items()):
        rep = report(RunConfig(n, pattern, phi, rates, convention=convention))
        prefix = f"table{table_id:02d} {pattern} phi={phi:g}"
        rows.append((f"{prefix} marked", ref, rep.marked_prob))
        pairs = zip(sorted(unmarked.get((pattern, phi), ()), reverse=True),
                    sorted(rep.unmarked.values(), reverse=True))
        rows += [(f"{prefix} unmarked[{k}]", rv, cv) for k, (rv, cv) in enumerate(pairs)]
    return rows


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
    layout: coefficients (b, t) and per-qubit vectors (n, 2, t, b), scaled so
    that each run's state has norm 1."""
    coeffs = rng.normal(size=(b, t)) + 1j * rng.normal(size=(b, t))
    vecs = rng.normal(size=(n, 2, t, b)) + 1j * rng.normal(size=(n, 2, t, b))
    norms = np.linalg.norm(dense_terms(coeffs, vecs), axis=1)
    return coeffs / norms[:, None], vecs


def dense_terms(coeffs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sum_t c_t u_{t,1} x ... x u_{t,n} per run, built with numpy.kron,
    shape (B, 2^n)."""
    n, _, t, b = vecs.shape
    out = np.zeros((b, 2**n), dtype=np.complex128)
    for j in range(b):
        for k in range(t):
            state = np.ones(1, dtype=np.complex128)
            for v in range(n):
                state = np.kron(state, vecs[v, :, k, j])
            out[j] += coeffs[j, k] * state
    return out


def layer_on_terms(coeffs: np.ndarray, vecs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The engine's kernels on a sum of product states: gates ``mats``
    (n, 2, 2, B) applied to every term by the power table (its j=1 entry),
    then the terms materialized, shape (B, 2^n)."""
    table = search._powers(mats.transpose(1, 2, 0, 3), vecs.transpose(1, 2, 0, 3), 2)
    return search._materialize(coeffs, table[:, 1].transpose(2, 0, 1, 3))


def record_blocks(monkeypatch) -> list:
    """List that receives the size of every block the engine evolves."""
    sizes = []
    evolve = search._evolve

    def spy(config, marked, phi, rates, trace=None):
        sizes.append(len(phi))
        return evolve(config, marked, phi, rates, trace)

    monkeypatch.setattr(search, "_evolve", spy)
    return sizes


def child_env(path_prefix=None, **extra) -> dict:
    """Minimal environment for a child process that imports ``dqsa``.

    Only PATH and PYTHONPATH are set, so nothing else of the parent's
    environment leaks into the child; PYTHONPATH points at DQSA_ROOT, so
    the child imports the same ``dqsa`` as the suite, never another copy.
    ``path_prefix`` is put in front of PATH; ``extra`` adds variables.
    """
    path = CHILD_PATH if path_prefix is None else os.pathsep.join([str(path_prefix), CHILD_PATH])
    return {"PATH": path, "PYTHONPATH": str(DQSA_ROOT), **extra}
