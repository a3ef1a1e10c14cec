"""Basis conventions and the containers for states and gates.

Basis states are labeled by strings over {g, e} (ground/excited), one symbol
per qubit, qubit 1 first.  The integer index maps g to bit 0 and e to bit 1
with qubit 1 as the most significant bit, so "gg" is index 0 and "ee" is the
largest index.  States are kept unnormalized: norm lost to damping is the
survival probability and is never restored by renormalization.  States are
evolved only by the engine in :mod:`dqsa.search`; the containers here hold
its results and the dense gates used to cross-check it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidPattern

MAX_QUBITS = 12


def validate_pattern(pattern: str) -> str:
    """Return the pattern unchanged if it is a valid g/e string, else raise."""
    if not isinstance(pattern, str) or not 1 <= len(pattern) <= MAX_QUBITS:
        raise InvalidPattern(
            f"pattern must be a g/e string of length 1..{MAX_QUBITS}, got {pattern!r}"
        )
    if any(c not in "ge" for c in pattern):
        raise InvalidPattern(f"pattern symbols must be 'g' or 'e', got {pattern!r}")
    return pattern


def index_of(pattern: str) -> int:
    """Basis index of a g/e pattern (qubit 1 most significant, g=0/e=1)."""
    validate_pattern(pattern)
    idx = 0
    for c in pattern:
        idx = (idx << 1) | (c == "e")
    return idx


def pattern_of(index: int, n: int) -> str:
    """Inverse of index_of for an n-qubit register."""
    if not 1 <= n <= MAX_QUBITS:
        raise InvalidPattern(f"qubit count must be 1..{MAX_QUBITS}, got {n}")
    if not 0 <= index < 2**n:
        raise InvalidPattern(f"index {index} out of range for {n} qubits")
    return "".join("e" if (index >> (n - 1 - v)) & 1 else "g" for v in range(n))


def all_patterns(n: int):
    """All 2^n patterns in index (lexicographic g<e) order."""
    return [pattern_of(i, n) for i in range(2**n)]


@dataclass(frozen=True)
class StateVector:
    """n-qubit register with 2^n complex amplitudes in basis-index order."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (2**self.n,):
            raise DimensionMismatch(
                f"expected {2**self.n} amplitudes for n={self.n}, got {self.amps.shape}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())


@dataclass(frozen=True)
class DiagonalGate:
    """Diagonal gate: 2^n complex entries, |entry| <= 1 for gates built here."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (2**self.n,):
            raise DimensionMismatch(
                f"expected {2**self.n} entries for n={self.n}, got {self.entries.shape}"
            )


@dataclass(frozen=True)
class DenseGate:
    """Dense 2^n x 2^n gate; a contraction (operator norm <= 1) for the
    default gate construction."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2**self.n
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatch(
                f"expected {dim}x{dim} matrix for n={self.n}, got {self.matrix.shape}"
            )


def ground_state(n: int) -> StateVector:
    """|g...g> with unit amplitude on index 0."""
    if not 1 <= n <= MAX_QUBITS:
        raise InvalidPattern(f"qubit count must be 1..{MAX_QUBITS}, got {n}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis state."""
    return np.abs(state.amps) ** 2


def survival(state: StateVector) -> float:
    """Total probability remaining in the register (squared norm)."""
    return float(np.sum(np.abs(state.amps) ** 2))
