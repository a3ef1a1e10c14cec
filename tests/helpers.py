"""Dense reference implementations used to cross-check the matrix-free path.

Everything here builds full 2^n x 2^n operators with numpy.kron and applies
them by plain matrix multiplication — deliberately the slow, obviously
correct formulation.  It also wraps the engine's layer kernel and its block
split for the tests that check them, and builds the environment for tests
that start a child process.
"""

import os
from pathlib import Path

import numpy as np

import dqsa
from dqsa import search
from dqsa.gates import PhasePoint, oracle_gate, w_gate
from dqsa.search import RunConfig, report

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


def dense_diffusion(n: int, phase: PhasePoint, rates, convention: str = "composite") -> np.ndarray:
    """Dense diffusion gate e^{i*beta} * W_layer * P_{g...g} * W_layer."""
    w = dense_walsh(n, rates, convention)
    p = oracle_gate("g" * n, phase, rates)
    return np.exp(1j * phase.beta) * (w * p[None, :]) @ w


def dense_run(n, marked, phi, rates=None, iterations=None, convention="composite"):
    """Final state amplitudes computed with dense operators only."""
    rates = tuple(rates) if rates else (0.0,) * n
    iterations = iterations if iterations is not None else max(1, n - 1)
    phase = PhasePoint(phi, n)
    step = dense_diffusion(n, phase, rates, convention) * oracle_gate(marked, phase, rates)
    state = dense_walsh(n, rates, convention)[:, 0].copy()
    for _ in range(iterations):
        state = step @ state
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


def engine_layer(amps: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The engine's layer: gates ``mats`` (n, 2, 2, B) on the rows of
    ``amps`` (B, 2^n), through the grouped Kronecker factors."""
    return search._apply(amps, search._factors(mats))


def record_blocks(monkeypatch) -> list:
    """List that receives the size of every block the engine evolves."""
    sizes = []
    evolve = search._evolve

    def spy(configs, trace=None):
        sizes.append(len(configs))
        return evolve(configs, trace)

    monkeypatch.setattr(search, "_evolve", spy)
    return sizes


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def child_env(path_prefix=None, **extra) -> dict:
    """Minimal environment for a child process that imports ``dqsa``.

    Only PATH and PYTHONPATH are set, so nothing else of the parent's
    environment leaks into the child; PYTHONPATH points at DQSA_ROOT, so
    the child imports the same ``dqsa`` as the suite, never another copy.
    ``path_prefix`` is put in front of PATH; ``extra`` adds variables.
    """
    path = CHILD_PATH if path_prefix is None else os.pathsep.join([str(path_prefix), CHILD_PATH])
    return {"PATH": path, "PYTHONPATH": str(DQSA_ROOT), **extra}
