"""Basis conventions: g/e pattern labels and their integer indices.

Basis states are labeled by strings over {g, e} (ground/excited), one symbol
per qubit, qubit 1 first.  A pattern is the base-2 numeral of its integer
index, g for 0 and e for 1, qubit 1 the most significant digit: "gg" is index
0 and "ee" the largest.  Python's numeral built-ins convert, with no cache.
An n-qubit state is a complex array of shape (2^n,) in index order, and a
diagonal gate is its (2^n,) array of entries.  States are kept unnormalized:
norm lost to damping is the survival probability and is never restored by
renormalization.
"""

import itertools

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
    if not set(pattern) <= {"g", "e"}:
        raise InvalidPattern(f"pattern symbols must be 'g' or 'e', got {pattern!r}")
    if n is not None and len(pattern) != n:
        raise DimensionMismatch(f"pattern length {len(pattern)} vs n={n}")
    return pattern


def index_of(pattern: str, n: int | None = None) -> int:
    """Basis index of a g/e pattern (qubit 1 most significant, g=0/e=1),
    validated as by `validate_pattern(pattern, n)` first, since `int` would
    also read "_" and spaces."""
    return int(validate_pattern(pattern, n).replace("g", "0").replace("e", "1"), 2)


def bits(n: int, index=None) -> np.ndarray:
    """0/1 qubit values of n-qubit basis indices (default: all 2^n), shape
    np.shape(index) + (n,): entry [..., v] is 1 when qubit v+1 is excited."""
    index = np.arange(2**n) if index is None else np.asarray(index)
    return (index[..., None] >> np.arange(n - 1, -1, -1)) & 1


def all_patterns(n: int) -> tuple:
    """All 2^n patterns in index (lexicographic g<e) order."""
    if not 1 <= n <= MAX_QUBITS:
        raise InvalidPattern(f"qubit count must be 1..{MAX_QUBITS}, got {n}")
    return tuple(map("".join, itertools.product("ge", repeat=n)))
