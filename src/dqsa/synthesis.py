"""Realizing the phase oracle from multi-qubit couplings and timed pulses.

For 2-4 qubits the diagonal oracle is synthesized from an Ising-style
Hamiltonian with sigma-z product couplings up to order n plus per-qubit
non-Hermitian damping.  The coupling assignment expands the marked-state
projector: sum_tuples J * prod(sigma_z) = theta * 2^n * |x><x|, distributed
over ordered index tuples in a canonical way (see coupling_assignment); the
couplings are a plain dict from tuple to J.  Evolving for time tau then
reproduces the oracle exactly, which verify_gate_realization checks
numerically.  Energies and their evolutions are (2^n,) arrays of diagonal
entries in basis-index order, like the oracle of gates.oracle_gate, and the
phase phi is a float, as there.

The one-qubit W gate is likewise realized as a composition of three timed
pulses (two bare sigma-z pulses around one rotated damped pulse); compose_w
reproduces the closed-form gate of gates.w_gate (composite convention).
Pulses are (2, 2) arrays in (g, e) ordering.
"""

import functools
import itertools
import math
import operator

import numpy as np

from .basis import all_patterns, validate_pattern
from .errors import DimensionMismatch, OverdampedQubit, UnsupportedSize
from .gates import check_phi, oracle_gate, validate_rates, xi_factor

THETA = 1.0  # coupling energy scale in natural units


def coupling_assignment(n: int, pattern: str) -> dict:
    """Canonical couplings whose evolution realizes the oracle for `pattern`,
    keyed by ordered tuples of 1-based qubit indices.

    The assignment distributes theta * 2^n * |x><x| over ordered tuples:
    J_s = z_s*theta; diagonal J_rr = theta/n (n=2,3) or J_rr = J_rrrr =
    theta/8 (n=4), realizing the projector's constant term through
    sigma_z^2 = 1; each ordered k-tuple of distinct qubits (k = 2..n) carries
    its z-product times theta/k!: theta/2 per pair, theta/6 per triple,
    theta/24 per quadruple.  All other components are 0.  Here z_v = +1 if
    qubit v is excited in `pattern`, else -1.
    """
    if n not in (2, 3, 4):
        raise UnsupportedSize(f"coupling synthesis supports n in {{2,3,4}}, got {n}")
    validate_pattern(pattern, n)

    z = tuple(1.0 if c == "e" else -1.0 for c in pattern)
    terms = {(s,): z[s - 1] * THETA for s in range(1, n + 1)}
    for s in range(1, n + 1):
        terms[(s, s)] = THETA / 8.0 if n == 4 else THETA / n
        if n == 4:
            terms[(s, s, s, s)] = THETA / 8.0
    for k in range(2, n + 1):
        # a z-product is exactly +-1, so scaling it by theta/k! rounds once
        scale = THETA / math.factorial(k)
        for tup, zs in zip(itertools.permutations(range(1, n + 1), k), itertools.permutations(z, k)):
            terms[tup] = math.prod(zs) * scale
    return terms


def _excited(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: entry (y, v) is 1 when qubit v+1 is excited in y."""
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def coupling_energies(terms: dict, n: int) -> np.ndarray:
    """Real diagonal energies -sum_tuples J * prod z_s(y) of the couplings
    ``terms`` on n qubits, shape (2^n,).

    Since z_s(y)^2 = 1, a tuple's product is -1 to the number of its
    odd-multiplicity qubits that are ground in y; all basis states are
    evaluated at once.  A tuple naming a qubit outside 1..n raises
    DimensionMismatch.
    """
    for tup in terms:
        if not all(1 <= s <= n for s in tup):
            raise DimensionMismatch(f"coupling {tup} names a qubit outside 1..{n}")
    shifts = np.arange(n - 1, -1, -1)
    # bit n - s of a tuple's mask is set when qubit s occurs in it an odd
    # number of times
    masks = np.array([functools.reduce(operator.xor, (1 << (n - s) for s in tup), 0)
                      for tup in terms], dtype=np.int64)
    odd = (masks[:, None] >> shifts) & 1
    signs = 1 - 2 * (((1 - _excited(n)) @ odd.T) & 1)
    return -(signs @ np.array(list(terms.values())))


def build_hamiltonian(terms: dict, rates) -> np.ndarray:
    """Diagonal energies of the couplings ``terms`` (as coupling_assignment
    returns them) on n = len(rates) qubits, shape (2^n,): E[y] = -sum_tuples
    J * prod z_s(y) - (i/2) * sum of excited rates, so imaginary parts
    (damping) are <= 0.  See coupling_energies for the real part.
    """
    rates = validate_rates(rates)
    return _damped(coupling_energies(terms, len(rates)), rates)


def _damped(couplings: np.ndarray, rates) -> np.ndarray:
    """Coupling energies plus the damping part -(i/2) * sum of excited rates."""
    return couplings + 1j * (-0.5 * (_excited(len(rates)) @ np.array(rates)))


def evolve(energies: np.ndarray, phi: float) -> np.ndarray:
    """Diagonal time evolution exp(-i * E[y] * tau), tau = phi*pi/2^n with
    2^n = len(energies), shape (2^n,)."""
    return np.exp(-1j * energies * (check_phi(phi) * math.pi / len(energies)))


def _deviation(energies: np.ndarray, pattern: str, phi: float, rates) -> float:
    """Max |U - c*P| between the evolution U of ``energies`` and the oracle
    P; see verify_gate_realization."""
    u = evolve(energies, phi)
    p = oracle_gate(pattern, phi, rates)
    ref = 2**len(pattern) - 1 if pattern == "g" * len(pattern) else 0
    c = u[ref] / p[ref]
    return float(np.max(np.abs(u - c * p)))


def verify_gate_realization(n: int, pattern: str, phi: float, rates) -> float:
    """Max |U - c*P| between synthesized evolution U and the oracle P.

    The alignment scalar c is fixed by matching one unmarked reference entry
    (the all-g state, or all-e when all-g is the marked state), so the
    marked entry's phase stays an untouched test quantity.
    """
    energies = build_hamiltonian(coupling_assignment(n, pattern), rates)
    return _deviation(energies, pattern, phi, rates)


def verification_sweep(ns=(2, 3, 4), draws: int = 20, seed: int = 20240):
    """Verify every marked pattern for each n over random (phi, rates) draws.

    Returns a list of (pattern, worst deviation) rows in deterministic order;
    phi is drawn from (0, 2) and each rate from [0, 1).  Each pattern's
    coupling energies are built once; a draw adds only its damping and
    oracle, so every row equals the worst verify_gate_realization of its
    draws.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        for pattern in all_patterns(n):
            couplings = coupling_energies(coupling_assignment(n, pattern), n)
            # each draw takes phi, then the n rates
            points = ((rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0, size=n).tolist())
                      for _ in range(draws))
            worst = max(_deviation(_damped(couplings, rates), pattern, phi, rates)
                        for phi, rates in points)
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
