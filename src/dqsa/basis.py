"""Basis conventions: g/e pattern labels and their integer indices.

Basis states are labeled by strings over {g, e} (ground/excited), one symbol
per qubit, qubit 1 first.  The integer index maps g to bit 0 and e to bit 1
with qubit 1 as the most significant bit, so "gg" is index 0 and "ee" is the
largest index.  An n-qubit state is a complex array of shape (2^n,) in index
order, and a diagonal gate is its (2^n,) array of entries.  States are kept
unnormalized: norm lost to damping is the survival probability and is never
restored by renormalization.
"""

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidPattern

MAX_QUBITS = 12


def validate_pattern(pattern: str, n: int | None = None) -> str:
    """Return the pattern unchanged if it is a valid g/e string, of length n
    when n is given, else raise."""
    if not isinstance(pattern, str) or not 1 <= len(pattern) <= MAX_QUBITS:
        raise InvalidPattern(
            f"pattern must be a g/e string of length 1..{MAX_QUBITS}, got {pattern!r}"
        )
    if any(c not in "ge" for c in pattern):
        raise InvalidPattern(f"pattern symbols must be 'g' or 'e', got {pattern!r}")
    if n is not None and len(pattern) != n:
        raise DimensionMismatch(f"pattern length {len(pattern)} vs n={n}")
    return pattern


def index_of(pattern: str) -> int:
    """Basis index of a g/e pattern (qubit 1 most significant, g=0/e=1)."""
    validate_pattern(pattern)
    idx = 0
    for c in pattern:
        idx = (idx << 1) | (c == "e")
    return idx


def bits(n: int, index=None) -> np.ndarray:
    """0/1 qubit values of n-qubit basis indices (default: all 2^n), shape
    np.shape(index) + (n,): entry [..., v] is 1 when qubit v+1 is excited."""
    index = np.arange(2**n) if index is None else np.asarray(index)
    return (index[..., None] >> np.arange(n - 1, -1, -1)) & 1


def pattern_of(index: int, n: int) -> str:
    """Inverse of index_of for an n-qubit register."""
    if not 1 <= n <= MAX_QUBITS:
        raise InvalidPattern(f"qubit count must be 1..{MAX_QUBITS}, got {n}")
    if not 0 <= index < 2**n:
        raise InvalidPattern(f"index {index} out of range for {n} qubits")
    return "".join("e" if (index >> (n - 1 - v)) & 1 else "g" for v in range(n))


@lru_cache(maxsize=MAX_QUBITS)
def all_patterns(n: int) -> tuple:
    """All 2^n patterns in index (lexicographic g<e) order."""
    return tuple(pattern_of(i, n) for i in range(2**n))
