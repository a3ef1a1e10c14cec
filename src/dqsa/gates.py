"""Gate constructors: the damped Walsh gate and the phase oracle, as arrays.

A one-qubit W gate is a (2, 2) complex array in (g, e) ordering, and
`w_gate` of n rates is the W layer: the (n, 2, 2) array of its tensor
factors, qubit 1 first.  The oracle is diagonal, so it is its (2^n,) array
of entries in basis-index order.  Nothing here keeps state.

All times enter through the control phase ``phi`` = beta/pi, a float (see
`check_phi`); each use computes the matching evolution time in natural
units, ``tau`` = phi*pi/2^n, from its own register size.
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


def check_phi(phi) -> float:
    """``phi`` as a float; bools, non-numbers, NaN, +-inf and negative values
    are rejected."""
    phi = finite_real(phi, "phi")
    if phi < 0:
        raise NegativePhase(f"phi must be non-negative, got {phi}")
    return phi


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


def xi_factor(g):
    """Detuning factor xi = sqrt(16 - g^2)/4 of a rate or an array of rates;
    requires 0 <= g < 4."""
    g = np.asarray(g, dtype=np.float64)
    if np.any(g >= 4):
        raise OverdampedQubit(f"rate {g[g >= 4].flat[0]} >= 4: xi non-real, W gate undefined")
    if np.any(g < 0):
        raise ValueError(f"dissipation rate must be non-negative, got {g[g < 0].flat[0]}")
    return np.sqrt(16.0 - g * g) / 4.0


def w_gate(g, convention: str = "composite") -> np.ndarray:
    """Damped Walsh gate of a rate or an array of rates: shape
    ``np.shape(g) + (2, 2)``, each gate in (g, e) ordering.

    At g=0 both conventions reduce to the Hadamard gate.
    """
    check_convention(convention)
    g = np.asarray(g, dtype=np.float64)
    xi = xi_factor(g)
    if convention == "composite":
        asym = g / (4.0 * xi)
        pre = np.exp(-np.pi * g / (16.0 * xi)) / math.sqrt(2.0)
    else:
        asym = g * xi / 4.0
        pre = np.exp(-np.pi * g * xi / 16.0) / math.sqrt(2.0)
    gate = np.array([[1.0 + asym, 1.0 / xi], [1.0 / xi, -(1.0 - asym)]], dtype=np.complex128)
    return np.moveaxis(pre * gate, (0, 1), (-2, -1))


def damping_entries(n: int, phi: float, rates) -> np.ndarray:
    """Per-basis-state damping factors exp(-(tau/2) * sum of excited rates),
    tau = phi*pi/2^n, shape (2^n,)."""
    tau = check_phi(phi) * math.pi / 2**n
    rates = validate_rates(rates, n)
    excited = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return np.exp(-0.5 * tau * (excited @ np.asarray(rates, dtype=np.float64)))


def oracle_gate(x: str, phi: float, rates) -> np.ndarray:
    """Diagonal phase oracle's (2^n,) entries: damping on every state, extra
    e^{i*beta} (beta = phi*pi) on x."""
    entries = damping_entries(len(validate_pattern(x)), phi, rates).astype(np.complex128)
    entries[index_of(x)] *= np.exp(1j * (phi * math.pi))
    return entries
