"""Realizing the phase oracle from multi-qubit couplings and timed pulses.

For 2-4 qubits the diagonal oracle is synthesized from an Ising-style
Hamiltonian with sigma-z product couplings up to order n plus per-qubit
non-Hermitian damping.  The coupling assignment expands the marked-state
projector: sum_tuples J * prod(sigma_z) = theta * 2^n * |x><x|, distributed
over ordered index tuples in a canonical way (see coupling_assignment).
Evolving for time tau then reproduces the oracle exactly, which
verify_gate_realization checks numerically.  Energies and their evolutions
are (2^n,) arrays of diagonal entries in basis-index order, like the oracle
of gates.oracle_gate.

The one-qubit W gate is likewise realized as a composition of three timed
pulses (two bare sigma-z pulses around one rotated damped pulse); compose_w
reproduces the closed-form gate of gates.w_gate (composite convention).
Pulses are (2, 2) arrays in (g, e) ordering.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .basis import all_patterns, validate_pattern
from .errors import DimensionMismatch, OverdampedQubit, UnsupportedSize
from .gates import PhasePoint, oracle_gate, validate_rates, xi_factor

THETA = 1.0  # coupling energy scale in natural units


@dataclass(frozen=True, eq=False)
class CouplingConfig:
    """Couplings J keyed by ordered index tuples (1-based qubit indices)."""

    n: int
    terms: dict


def coupling_assignment(n: int, pattern: str) -> CouplingConfig:
    """Canonical couplings whose evolution realizes the oracle for `pattern`.

    The assignment distributes theta * 2^n * |x><x| over ordered tuples:
    J_s = z_s*theta; diagonal J_rr = theta/n (n=2,3) or J_rr = J_rrrr =
    theta/8 (n=4), realizing the projector's constant term through
    sigma_z^2 = 1; each ordered distinct pair carries z_s*z_j*theta/2, each
    ordered distinct triple z_s*z_j*z_k*theta/6, each ordered distinct
    quadruple the z-product times theta/24.  All other components are 0.
    Here z_v = +1 if qubit v is excited in `pattern`, else -1.
    """
    if n not in (2, 3, 4):
        raise UnsupportedSize(f"coupling synthesis supports n in {{2,3,4}}, got {n}")
    validate_pattern(pattern)
    if len(pattern) != n:
        raise DimensionMismatch(f"pattern length {len(pattern)} vs n={n}")

    z = tuple(1.0 if c == "e" else -1.0 for c in pattern)
    terms: dict = {}
    for s in range(1, n + 1):
        terms[(s,)] = z[s - 1] * THETA
    if n == 4:
        for s in range(1, n + 1):
            terms[(s, s)] = THETA / 8.0
            terms[(s, s, s, s)] = THETA / 8.0
    else:
        for s in range(1, n + 1):
            terms[(s, s)] = THETA / n
    for s, j in itertools.permutations(range(1, n + 1), 2):
        terms[(s, j)] = z[s - 1] * z[j - 1] * THETA / 2.0
    if n >= 3:
        for combo in itertools.combinations(range(1, n + 1), 3):
            val = z[combo[0] - 1] * z[combo[1] - 1] * z[combo[2] - 1] * THETA / 6.0
            for perm in itertools.permutations(combo):
                terms[perm] = val
    if n == 4:
        zprod = z[0] * z[1] * z[2] * z[3]
        for perm in itertools.permutations((1, 2, 3, 4)):
            terms[perm] = zprod * THETA / 24.0
    return CouplingConfig(n=n, terms=terms)


def build_hamiltonian(config: CouplingConfig, rates) -> np.ndarray:
    """Diagonal energies, shape (2^n,): E[y] = -sum_tuples J * prod z_s(y)
    - (i/2) * sum of excited rates, so imaginary parts (damping) are <= 0.

    Since z_s(y)^2 = 1, a tuple's product is -1 to the number of its
    odd-multiplicity qubits that are ground in y; all basis states are
    evaluated at once.
    """
    n = config.n
    rates = validate_rates(rates, n)
    shifts = np.arange(n - 1, -1, -1)
    excited = (np.arange(2**n)[:, None] >> shifts) & 1
    # bit n - s of a tuple's mask is set when qubit s occurs in it an odd
    # number of times
    masks = np.array([functools.reduce(operator.xor, (1 << (n - s) for s in tup), 0)
                      for tup in config.terms], dtype=np.int64)
    odd = (masks[:, None] >> shifts) & 1
    signs = 1 - 2 * (((1 - excited) @ odd.T) & 1)
    real = signs @ np.array(list(config.terms.values()))
    imag = -0.5 * (excited @ np.array(rates))
    return -real + 1j * imag


def evolve(energies: np.ndarray, phase: PhasePoint) -> np.ndarray:
    """Diagonal time evolution exp(-i * E[y] * tau), shape (2^n,)."""
    if len(energies) != 2**phase.n:
        raise DimensionMismatch(f"{len(energies)} energies vs phase n={phase.n}")
    return np.exp(-1j * energies * phase.tau)


def verify_gate_realization(n: int, pattern: str, phase: PhasePoint, rates) -> float:
    """Max |U - c*P| between synthesized evolution U and the oracle P.

    The alignment scalar c is fixed by matching one unmarked reference entry
    (the all-g state, or all-e when all-g is the marked state), so the
    marked entry's phase stays an untouched test quantity.
    """
    u = evolve(build_hamiltonian(coupling_assignment(n, pattern), rates), phase)
    p = oracle_gate(pattern, phase, rates)
    ref = 2**n - 1 if pattern == "g" * n else 0
    c = u[ref] / p[ref]
    return float(np.max(np.abs(u - c * p)))


def verification_sweep(ns=(2, 3, 4), draws: int = 20, seed: int = 20240, tolerance: float = 1e-10):
    """Verify every marked pattern for each n over random (phi, rates) draws.

    Returns a list of (pattern, worst deviation) rows in deterministic order;
    phi is drawn from (0, 2) and each rate from [0, 1).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        for pattern in all_patterns(n):
            worst = 0.0
            for _ in range(draws):
                phi = float(rng.uniform(0.0, 2.0))
                rates = tuple(float(r) for r in rng.uniform(0.0, 1.0, size=n))
                dev = verify_gate_realization(n, pattern, PhasePoint(phi, n), rates)
                worst = max(worst, dev)
            rows.append((pattern, worst))
    return rows


def _expm2(m: np.ndarray) -> np.ndarray:
    """exp of a 2x2 complex matrix via the trace/traceless split."""
    mu = (m[0, 0] + m[1, 1]) / 2.0
    a = m - mu * np.eye(2)
    delta = a[0, 0] * a[0, 0] + a[0, 1] * a[1, 0]  # a^2 = delta * I
    s = np.sqrt(delta + 0j)
    if abs(s) < 1e-8:
        # sinh(s)/s by series; cosh likewise
        ratio = 1.0 + delta / 6.0 + delta * delta / 120.0
        ch = 1.0 + delta / 2.0 + delta * delta / 24.0
    else:
        ratio = np.sinh(s) / s
        ch = np.cosh(s)
    return np.exp(mu) * (ch * np.eye(2) + ratio * a)


def v1_gate(duration: float) -> np.ndarray:
    """Bare sigma-z pulse exp(+i * duration * sigma_z)."""
    return np.diag([np.exp(-1j * duration), np.exp(1j * duration)]).astype(np.complex128)


def v2_gate(duration: float, g: float) -> np.ndarray:
    """Rotated damped pulse exp(-i * H * duration), H = sigma_x - i(g/2)|e><e|."""
    if g >= 4:
        raise OverdampedQubit(f"rate {g} >= 4: pulse composition undefined")
    h = np.array([[0.0, 1.0], [1.0, -0.5j * g]], dtype=np.complex128)
    return _expm2(-1j * duration * h)


def compose_w(g: float) -> np.ndarray:
    """Three-pulse realization of the W gate: e^{i pi/2} V1 V2 V1.

    Equals w_gate(g, "composite") to machine precision for 0 <= g < 4.
    """
    xi = xi_factor(g)
    v1 = v1_gate(math.pi / 4.0)
    v2 = v2_gate(math.pi / (4.0 * xi), g)
    return 1j * (v1 @ v2 @ v1)
