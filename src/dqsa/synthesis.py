"""Realizing the phase oracle from multi-qubit couplings and timed pulses.

For 2-4 qubits the diagonal oracle is synthesized from an Ising-style
Hamiltonian with sigma-z product couplings up to order n plus per-qubit
non-Hermitian damping.  The coupling assignment expands the marked-state
projector: sum_tuples J * prod(sigma_z) = theta * 2^n * |x><x|, distributed
over ordered index tuples in a canonical way (see coupling_assignment); the
couplings are a plain dict from tuple to J.  Evolving for time tau then
reproduces the oracle exactly, which verify_gate_realization checks
numerically.  Energies, their evolutions and gates.oracle_gate are (2^n,)
arrays of diagonal entries in basis-index order, or (D, 2^n) for D draws of
phi (D,) and rates (D, n), which verification_sweep checks in blocks.

The one-qubit W gate is likewise realized as a composition of three timed
pulses (two bare sigma-z pulses around one rotated damped pulse); compose_w
reproduces the closed-form gate of gates.w_gate (composite convention).
Pulses are (2, 2) arrays in (g, e) ordering.
"""

import itertools
import math

import numpy as np

from .basis import all_patterns, bits, validate_pattern
from .errors import DimensionMismatch, UnsupportedSize
from .gates import check_phi, check_rates, oracle_gate, shape_of, tau, xi_factor
from .search import BLOCK_AMPLITUDES

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


def coupling_signs(terms, n: int) -> np.ndarray:
    """Products prod z_s(y) of the coupling tuples ``terms`` over every
    basis state y of n qubits, shape (2^n, len(terms)).

    Since z_s(y)^2 = 1, a tuple's product is -1 to the number of its
    odd-multiplicity qubits that are ground in y.  A tuple naming a qubit
    outside 1..n raises DimensionMismatch.
    """
    for tup in terms:
        if not all(1 <= s <= n for s in tup):
            raise DimensionMismatch(f"coupling {tup} names a qubit outside 1..{n}")
    # entry [t, s - 1] is 1 when qubit s occurs in tuple t an odd number of times
    odd = np.array([tup.count(s) % 2 for tup in terms for s in range(1, n + 1)], dtype=int)
    return 1 - 2 * (((1 - bits(n)) @ odd.reshape(len(terms), n).T) & 1)


def build_hamiltonian(terms: dict, rates) -> np.ndarray:
    """Diagonal energies of the couplings ``terms`` (as coupling_assignment
    returns them) on n = len(rates) qubits, shape (2^n,): E[y] = -sum_tuples
    J * prod z_s(y) - (i/2) * sum of excited rates, so imaginary parts
    (damping) are <= 0.  See coupling_signs for the real part.
    """
    rates = check_rates(rates, (len(rates),))
    return _energies(coupling_signs(terms, len(rates)) @ np.array(list(terms.values())), rates)


def _energies(ising: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """build_hamiltonian from its coupling part (2^n,), for checked rates (n,) or (D, n)."""
    excited = (bits(rates.shape[-1]) @ rates[..., None])[..., 0]  # as in gates.damping_entries
    return -ising + 1j * (-0.5 * excited)


def evolve(energies: np.ndarray, phi) -> np.ndarray:
    """Diagonal time evolution exp(-i * E[y] * tau), tau = phi*pi/2^n, of
    energies of shape (2^n,), or (D, 2^n) with phases of shape (D,)."""
    t = tau(check_phi(phi, shape_of(phi, "phi")[:1]),
            shape_of(energies, "energies")[-1].bit_length() - 1)
    return np.exp(-1j * energies * np.asarray(t)[..., None])


def _realization_errors(ising: np.ndarray, pattern: str, phi, rates: np.ndarray) -> np.ndarray:
    """verify_gate_realization of D draws, phi (D,) and float rates (D, n),
    given the coupling part of the pattern's `_energies`: shape (D,)."""
    u = evolve(_energies(ising, rates), phi)
    p = oracle_gate(pattern, phi, rates)
    ref = 2**len(pattern) - 1 if pattern == "g" * len(pattern) else 0
    c = u[:, ref] / p[:, ref]
    return np.max(np.abs(u - c[:, None] * p), axis=1)


def verify_gate_realization(n: int, pattern: str, phi: float, rates) -> float:
    """Max |U - c*P| between synthesized evolution U and the oracle P.

    The alignment scalar c is fixed by matching one unmarked reference entry
    (the all-g state, or all-e when all-g is the marked state), so the
    marked entry's phase stays an untouched test quantity.
    """
    terms = coupling_assignment(n, pattern)
    ising = coupling_signs(terms, n) @ np.array(list(terms.values()))
    return float(_realization_errors(ising, pattern, [phi], check_rates([rates], (1, n)))[0])


def verification_sweep(ns=(2, 3, 4), draws: int = 20, seed: int = 20240):
    """Verify every marked pattern for each n over random (phi, rates) draws.

    Returns a list of (pattern, worst deviation) rows in deterministic order,
    each the worst verify_gate_realization of its draws.  A draw is a row of
    rng.random: phi = 2 * its first entry, in (0, 2), and the n rates, in
    [0, 1), the rest.  Draws go in blocks of the engine's budget,
    BLOCK_AMPLITUDES entries, where a draw holds two rows of 2^n: its
    evolution U and its oracle P.  The coupling signs and magnitudes, alike
    for every pattern of n, are built once per n, and a pattern's couplings
    are the magnitudes times its signs.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        terms, size = coupling_assignment(n, "g" * n), BLOCK_AMPLITUDES // 2 ** (n + 1)
        signs, magnitudes = coupling_signs(terms, n), np.abs(list(terms.values()))
        for pattern, pattern_signs in zip(all_patterns(n), signs):
            ising = signs @ (magnitudes * pattern_signs)
            blocks = (rng.random((min(size, draws - start), n + 1))
                      for start in range(0, draws, size))
            worst = max(_realization_errors(ising, pattern, 2.0 * b[:, 0], b[:, 1:]).max()
                        for b in blocks)
            rows.append((pattern, float(worst)))
    return rows


def v1_gate(duration: float) -> np.ndarray:
    """Bare sigma-z pulse exp(+i * duration * sigma_z)."""
    return np.diag([np.exp(-1j * duration), np.exp(1j * duration)]).astype(np.complex128)


def v2_gate(duration: float, g: float) -> np.ndarray:
    """Rotated damped pulse exp(-i * H * duration), H = sigma_x - i(g/2)|e><e|.

    A = H + (ig/4) I squares to xi^2 I (gates.xi_factor), so exp(-iHt) =
    e^{-gt/4} (cos(xi t) I - i sin(xi t)/xi A), with xi > 0 for g < 4."""
    g = check_rates(g)
    xi = xi_factor(g)
    a = np.array([[0.25j * g, 1.0], [1.0, -0.25j * g]])
    return math.exp(-0.25 * g * duration) * (
        math.cos(xi * duration) * np.eye(2) - 1j * math.sin(xi * duration) / xi * a)


def compose_w(g: float) -> np.ndarray:
    """Three-pulse realization of the W gate: e^{i pi/2} V1 V2 V1.

    Equals w_gate(g, "composite") to machine precision for 0 <= g < 4.
    """
    xi = xi_factor(g)
    v1 = v1_gate(math.pi / 4.0)
    v2 = v2_gate(math.pi / (4.0 * xi), g)
    return 1j * (v1 @ v2 @ v1)
