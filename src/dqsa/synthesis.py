"""Realizing the phase oracle from multi-qubit couplings and timed pulses.

For 2-4 qubits the diagonal oracle is synthesized from an Ising-style
Hamiltonian with sigma-z product couplings up to order n plus per-qubit
non-Hermitian damping.  The coupling assignment expands the marked-state
projector: sum_tuples J * prod(sigma_z) = theta * 2^n * |x><x|, distributed
over ordered index tuples in a canonical way (see coupling_assignment); the
couplings are a plain dict from tuple to J.  Evolving for time tau then
reproduces the oracle exactly, which verification_sweep checks numerically
over random draws.  Energies, their evolutions and the oracle are (2^n,)
arrays of diagonal entries in basis-index order, or (D, 2^n) for D draws of
phi (D,) and rates (D, n), which verification_sweep checks in blocks.

The one-qubit W gate is likewise realized as a composition of three timed
pulses (two bare sigma-z pulses around one rotated damped pulse); compose_w
reproduces the closed-form gate of gates.w_gate (composite convention).
Pulses are (2, 2) arrays in (g, e) ordering.
"""

import itertools
import math
import random

import numpy as np

from .basis import all_patterns, bits, validate_pattern
from .errors import DimensionMismatch, UnsupportedSize
from .gates import (check_phi, check_rates, check_reals, damping_entries, shape_of, tau,
                    whole_number, xi_factor)
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
    if whole_number(n, "n") not in (2, 3, 4):
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
    whole_number(n, "n")
    for tup in terms:
        if not all(1 <= s <= n for s in tup):
            raise DimensionMismatch(f"coupling {tup} names a qubit outside 1..{n}")
    # entry [t, s - 1] is 1 when qubit s occurs in tuple t an odd number of times
    odd = np.array([tup.count(s) % 2 for tup in terms for s in range(1, n + 1)], dtype=int)
    return 1 - 2 * (((1 - bits(n)) @ odd.reshape(len(terms), n).T) & 1)


def _energies(ising: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Diagonal energies E[y] = -ising[y] - (i/2) * sum of excited rates, so
    imaginary parts (damping) are <= 0, for checked rates (n,) or (D, n).
    ``ising``, (2^n,) or (D, 2^n), is the coupling part sum_tuples J *
    prod z_s(y): `coupling_signs` times the couplings' values."""
    excited = (bits(rates.shape[-1]) @ rates[..., None])[..., 0]  # as in gates.damping_entries
    return -ising + 1j * (-0.5 * excited)


def evolve(energies: np.ndarray, phi) -> np.ndarray:
    """Diagonal time evolution exp(-i * E[y] * tau), tau = phi*pi/2^n, of
    energies of shape (2^n,), n >= 1, with one phase, or (D, 2^n) with
    phases of shape (D,), one per row; other phase shapes raise
    DimensionMismatch."""
    shape = shape_of(energies, "energies")
    size = (shape or (0,))[-1]
    if size < 2 or size & (size - 1):
        raise DimensionMismatch(f"energies: the last axis must hold 2^n >= 2 entries, got {size}")
    t = tau(check_phi(phi, shape[:-1]), size.bit_length() - 1)
    return np.exp(-1j * energies * np.asarray(t)[..., None])


def _realization_errors(ising: np.ndarray, marked: np.ndarray, phi,
                        rates: np.ndarray) -> np.ndarray:
    """Max |U - P| between the synthesized evolution U and the oracle P of
    D draws, phi (D,) and float rates (D, n), given each draw's marked index
    (D,) and coupling part of its pattern's `_energies`, (D, 2^n): shape
    (D,).  P is the damping entries, then e^{i*beta} on the marked entry;
    no phase is fitted, so a wrong constant term in the couplings shows."""
    u = evolve(_energies(ising, rates), phi)
    p = damping_entries(rates.shape[1], phi, rates).astype(np.complex128)
    p[np.arange(len(marked)), marked] *= np.exp(1j * (phi * math.pi))
    return np.max(np.abs(np.subtract(u, p, out=p)), axis=1)


def verification_sweep(ns=(2, 3, 4), draws: int = 20, seed: int = 20240):
    """Verify every marked pattern for each n over random (phi, rates) draws.

    Returns a list of (pattern, worst deviation) rows in deterministic order,
    each the worst `_realization_errors` of its draws.  The draws come from
    Python's generator, random.Random(seed) (MT19937), one ``rng.random()``
    per float, on the 53-bit grid k * 2^-53: a draw is n + 1 floats,
    phi = 2 * the first, in [0, 2), and the n rates, in [0, 1), the rest.
    All draws of one n, pattern by pattern, form one sequence of rows, each
    carrying its pattern's marked index and coupling part, checked in blocks
    of the engine's budget, BLOCK_AMPLITUDES entries, where a draw holds two
    rows of 2^n: its evolution U and its oracle P.  A block may span
    patterns, and the draws come in the same order whatever the block size.
    The coupling signs and magnitudes, alike for every pattern of n, are
    built once per n, and a pattern's couplings are the magnitudes times its
    signs.  ``ns`` is any iterable of ints, read once; a scalar or a string
    raises DimensionMismatch.
    """
    if whole_number(draws, "draws") < 1:  # no draw would read as a worst deviation of 0
        raise ValueError(f"draws must be >= 1, got {draws}")
    seed = whole_number(seed, "seed")  # an int: Random takes no numpy integer
    if seed < 0:  # Random seeds by |seed|: -s would draw as s
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not np.iterable(ns) or isinstance(ns, str):
        raise DimensionMismatch(f"ns: expected register sizes, got {ns!r}")
    ns = [whole_number(n, "n") for n in ns]  # each, before "g" * n
    if not ns:  # no size would read as nothing failed
        raise ValueError("ns must hold at least one register size")
    rng = random.Random(seed)
    rows = []
    for n in ns:
        terms, size = coupling_assignment(n, "g" * n), BLOCK_AMPLITUDES // 2 ** (n + 1)
        signs, magnitudes = coupling_signs(terms, n), np.abs(list(terms.values()))
        ising = np.array([signs @ (magnitudes * pattern_signs) for pattern_signs in signs])
        worst, total = np.zeros(2**n), 2**n * draws
        for start in range(0, total, size):
            count = min(size, total - start) * (n + 1)
            block = np.array([rng.random() for _ in range(count)]).reshape(-1, n + 1)
            marked = np.arange(start, start + len(block)) // draws
            errors = _realization_errors(ising[marked], marked, 2.0 * block[:, 0], block[:, 1:])
            np.maximum.at(worst, marked, errors)
        rows += zip(all_patterns(n), worst.tolist())
    return rows


def v1_gate(duration: float) -> np.ndarray:
    """Bare sigma-z pulse exp(+i * duration * sigma_z); ``duration`` follows
    the real-input rule (`check_reals`)."""
    duration = check_reals(duration, "duration")
    return np.diag([np.exp(-1j * duration), np.exp(1j * duration)]).astype(np.complex128)


def v2_gate(duration: float, g: float) -> np.ndarray:
    """Rotated damped pulse exp(-i * H * duration), H = sigma_x - i(g/2)|e><e|.

    A = H + (ig/4) I squares to xi^2 I (gates.xi_factor), so exp(-iHt) =
    e^{-gt/4} (cos(xi t) I - i sin(xi t)/xi A), with xi > 0 for g < 4.
    ``duration`` and ``g`` follow the real-input rule (`check_reals`)."""
    duration, g = check_reals(duration, "duration"), check_rates(g)
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
