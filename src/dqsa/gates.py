"""Gate constructors: the damped Walsh gate and the phase oracle, as arrays.

A one-qubit W gate is a (2, 2) complex array in (g, e) ordering; the W layer
on n qubits is the (n, 2, 2) array of its tensor factors, qubit 1 first.  The
oracle is diagonal, so it is its (2^n,) array of entries in basis-index
order.

All times enter through the dimensionless control phase ``phi`` = beta/pi;
the matching evolution time in natural units is ``tau`` = phi*pi/2^n.
Dissipation rates ``g_v`` are dimensionless and must stay below 4, where the
detuning factor xi = sqrt(16 - g^2)/4 becomes non-real.

Two conventions exist for how the rate enters the one-qubit W gate:

* ``"composite"`` (default): the closed form realized exactly by the
  three-pulse composition (see :func:`dqsa.synthesis.compose_w`); damping
  prefactor exp(-pi*g/(16*xi)) and diagonal asymmetry g/(4*xi).
* ``"tabulated"``: the variant consistent with the bundled strong-dissipation
  reference tables; prefactor exp(-pi*g*xi/16) and asymmetry g*xi/4, with
  the same off-diagonal 1/xi.

The two agree to O(g^2) at weak rates and differ at the percent level as g
approaches 1; see README "Known systematic offset" for measured numbers.
The composite gate is a contraction on the whole domain 0 <= g < 4; the
tabulated variant is one only up to g ~ 2.28 (well past every bundled
table's rates, which stay below 1), and amplifies beyond that.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import index_of, validate_pattern
from .errors import DimensionMismatch, NegativePhase, OverdampedQubit

CONVENTIONS = ("composite", "tabulated")


def finite_real(value, name: str) -> float:
    """``value`` as a float; bools, non-numbers, NaN and +-inf are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def whole_number(value, name: str) -> int:
    """``value`` as an int; bools and non-integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhasePoint:
    """Control phase phi (in units of pi) for an n-qubit register."""

    phi: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "phi", finite_real(self.phi, "phi"))
        if self.phi < 0:
            raise NegativePhase(f"phi must be non-negative, got {self.phi}")

    @property
    def beta(self) -> float:
        """Oracle phase in radians: beta = phi*pi."""
        return self.phi * math.pi

    @property
    def tau(self) -> float:
        """Evolution time in natural units: tau = phi*pi/2^n."""
        return self.phi * math.pi / 2**self.n


def validate_rates(rates, n: int | None = None) -> tuple[float, ...]:
    """Normalize rates to a tuple of finite non-negative floats, checking length."""
    out = tuple(finite_real(g, "dissipation rate") for g in rates)
    if any(g < 0 for g in out):
        raise ValueError(f"dissipation rates must be non-negative, got {out}")
    if n is not None and len(out) != n:
        raise DimensionMismatch(f"expected {n} rates, got {len(out)}")
    return out


def check_convention(convention: str) -> str:
    """Return ``convention`` if it is one of CONVENTIONS, else raise."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


def xi_factor(g: float) -> float:
    """Detuning factor xi = sqrt(16 - g^2)/4; requires 0 <= g < 4."""
    if g >= 4:
        raise OverdampedQubit(f"rate {g} >= 4: xi non-real, W gate undefined")
    if g < 0:
        raise ValueError(f"dissipation rate must be non-negative, got {g}")
    return math.sqrt(16.0 - g * g) / 4.0


def w_gate(g: float, convention: str = "composite") -> np.ndarray:
    """Damped Walsh gate as a 2x2 array in (g, e) ordering.

    At g=0 both conventions reduce to the Hadamard gate.
    """
    check_convention(convention)
    xi = xi_factor(g)
    if convention == "composite":
        asym = g / (4.0 * xi)
        pre = math.exp(-math.pi * g / (16.0 * xi)) / math.sqrt(2.0)
    else:
        asym = g * xi / 4.0
        pre = math.exp(-math.pi * g * xi / 16.0) / math.sqrt(2.0)
    return pre * np.array(
        [[1.0 + asym, 1.0 / xi], [1.0 / xi, -(1.0 - asym)]], dtype=np.complex128
    )


@lru_cache(maxsize=512)
def walsh_layer(n: int, rates: tuple, convention: str = "composite") -> np.ndarray:
    """W(g_1) x ... x W(g_n) as its per-qubit factors: a read-only (n, 2, 2)
    array.  ``rates`` is a tuple, the cache key."""
    mats = np.array([w_gate(g, convention) for g in validate_rates(rates, n)])
    mats.setflags(write=False)
    return mats


def damping_entries(n: int, phase: PhasePoint, rates) -> np.ndarray:
    """Per-basis-state damping factors exp(-(tau/2) * sum of excited rates),
    shape (2^n,)."""
    rates = validate_rates(rates, n)
    excited = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return np.exp(-0.5 * phase.tau * (excited @ np.asarray(rates, dtype=np.float64)))


def oracle_gate(x: str, phase: PhasePoint, rates) -> np.ndarray:
    """Diagonal phase oracle's (2^n,) entries: damping on every state, extra
    e^{i*beta} on x."""
    validate_pattern(x)
    n = len(x)
    if phase.n != n:
        raise DimensionMismatch(f"pattern length {n} vs phase n={phase.n}")
    entries = damping_entries(n, phase, rates).astype(np.complex128)
    entries[index_of(x)] *= np.exp(1j * phase.beta)
    return entries
