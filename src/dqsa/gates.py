"""Gate constructors, the damped Walsh gate and the oracle's damping, as
arrays; and the one rule for real inputs.

A one-qubit W gate is a (2, 2) real array in (g, e) ordering, and
`w_gate` of n rates is the W layer: the (n, 2, 2) array of its tensor
factors, qubit 1 first.  The oracle is diagonal: `damping_entries` gives
its damping as the (2^n,) array of entries in basis-index order, and its
phase e^{i*beta} sits on the marked entry alone.  Nothing here keeps state.

All times enter through the control phase ``phi`` = beta/pi, an angle in
[0, 2]; `tau` gives the evolution time phi*pi/2^n in natural units.
Dissipation rates ``g_v`` are dimensionless and stay below 4, where the
detuning factor xi = sqrt(16 - g^2)/4 becomes non-real; a run's rates stay
below RATE_BOUNDS[convention].  `check_reals` is the one check of every
phase, rate, tolerance and pulse duration, scalar or array; `check_phi` and
`check_rates` name its two uses.  An input left out or None takes its
default; an empty tuple, list or array is a value, of the wrong length.

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
tabulated variant is one only below g = 2.27574 (well past every bundled
table's rates, which stay below 1), and amplifies beyond that.
"""

import math
import numbers

import numpy as np

from .basis import bits
from .errors import DimensionMismatch, NegativePhase, OverdampedQubit

CONVENTIONS = ("composite", "tabulated")
# A run's rates stay below these: the tabulated value is the g where the
# spectral norm of w_gate(g, "tabulated") reaches 1.
RATE_BOUNDS = {"composite": 4.0, "tabulated": 2.2757355160764945}


def whole_number(value, name: str) -> int:
    """``value`` as an int; bools and non-integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_reals(values, name: str, shape: tuple = (), negative=ValueError, below=math.inf):
    """``values`` as a float when ``shape`` is (), else as a contiguous
    float64 array of ``shape``, if each is an int or float (not a bool, also
    inside a list; an int only below 2**64, as numpy holds it), finite, >= 0
    (else ``negative`` is raised) and < ``below`` (else OverdampedQubit).
    A scalar and an array take the same path, through one numpy array.
    Each error message names ``name``."""
    try:
        array = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        raise DimensionMismatch(f"{name}: expected shape {shape}, got a ragged array") from None
    listed = array.ndim and not isinstance(values, np.ndarray)  # a list's bools read as numbers
    leaves = np.asarray(values, dtype=object) if listed or array.dtype.kind not in "iuf" else None
    if array.dtype.kind not in "iuf" or listed and {bool, np.bool_} & set(map(type, leaves.flat)):
        bad = next((v for v in leaves.flat if np.asarray(v).dtype.kind not in "iuf"), values)
        if type(bad) is int:  # an int numpy cannot hold: echo its size, not its digits
            raise ValueError(f"{name}: an int of {abs(bad).bit_length()} bits is too large "
                             "(numpy holds ints in [-2**63, 2**64))")
        raise ValueError(f"{name} must be an int or float, got {bad!r}")
    if array.shape != shape:
        raise DimensionMismatch(f"{name}: expected shape {shape}, got {array.shape}")
    array = np.asarray(array, dtype=np.float64, order="C")
    if array.size and not (0 <= array.min() and array.max() < below):
        for bad, error, rule in ((~np.isfinite(array), ValueError, "finite"),
                                 (array < 0, negative, "non-negative"),
                                 (array >= below, OverdampedQubit, f"below {below:g}")):
            if bad.any():
                raise error(f"{name} must be {rule}, got {array[bad].flat[0]}")
    return float(array) if not shape else array


def shape_of(values, name: str) -> tuple:
    """``np.shape(values)``; nested sequences of unequal lengths raise
    DimensionMismatch naming ``name``, as in `check_reals`."""
    try:
        return np.shape(values)
    except ValueError:
        raise DimensionMismatch(f"{name}: got a ragged array") from None


def check_phi(phi, shape: tuple = ()):
    """Phases by the real-input rule (see `check_reals`); a negative one
    raises NegativePhase, and one above 2 ValueError."""
    phi = check_reals(phi, "phi", shape, NegativePhase)
    if (top := float(np.max(phi, initial=0.0))) > 2:
        raise ValueError(f"phi must lie in [0, 2], got {top!r}")
    return phi


def check_rates(rates, shape: tuple = (), name: str = "rates", convention: str = "composite"):
    """Dissipation rates by the real-input rule (see `check_reals`); a rate
    >= RATE_BOUNDS[``convention``] raises OverdampedQubit: 4, the bound of
    every gate, or 2.27574 for a tabulated run, whose gate amplifies past it."""
    return check_reals(rates, name, shape, below=RATE_BOUNDS[convention])


def tau(phi, n: int):
    """Evolution time phi*pi/2^n of phase(s) ``phi`` on n qubits."""
    return phi * math.pi / 2**n


def check_convention(convention: str) -> str:
    """Return ``convention`` if it is one of CONVENTIONS, else raise."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


def xi_factor(g):
    """Detuning factor xi = sqrt(16 - g^2)/4 of a rate or an array of rates;
    requires 0 <= g < 4."""
    g = check_rates(g, shape_of(g, "rates"))
    return np.sqrt(16.0 - g * g) / 4.0


def w_gate(g, convention: str = "composite") -> np.ndarray:
    """Damped Walsh gate of a rate or an array of rates: real, of shape
    ``np.shape(g) + (2, 2)``, each gate in (g, e) ordering.

    At g=0 both conventions reduce to the Hadamard gate.
    """
    check_convention(convention)
    xi = xi_factor(g)
    g = np.asarray(g, dtype=np.float64)
    if convention == "composite":
        asym = g / (4.0 * xi)
        pre = np.exp(-np.pi * g / (16.0 * xi)) / math.sqrt(2.0)
    else:
        asym = g * xi / 4.0
        pre = np.exp(-np.pi * g * xi / 16.0) / math.sqrt(2.0)
    gate = np.array([[1.0 + asym, 1.0 / xi], [1.0 / xi, -(1.0 - asym)]])
    return np.moveaxis(pre * gate, (0, 1), (-2, -1))


def damping_entries(n: int, phi, rates) -> np.ndarray:
    """Per-basis-state damping factors exp(-(tau/2) * sum of excited rates),
    tau = phi*pi/2^n, n >= 1: shape (2^n,), or (D, 2^n) for phi (D,) and rates (D, n)."""
    if whole_number(n, "n") < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = check_phi(phi, shape_of(phi, "phi")[:1])
    excited = bits(n) @ check_rates(rates, np.shape(phi) + (n,))[..., None]  # one product per row
    return np.exp(-0.5 * np.asarray(tau(phi, n))[..., None] * excited[..., 0])
