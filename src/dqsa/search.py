"""The search iteration, evolved by one batched engine.

A run's state is a complex array of shape (2^n,) in basis-index order, and
its W layer the (n, 2, 2) array of per-qubit factors from
`gates.walsh_layer`.

One run prepares |g...g>, applies the W layer once, then `iterations` rounds
of (oracle, diffusion).  The oracle's damping diagonal is the tensor product
of per-qubit diag(1, d_v), d_v = exp(-tau*g_v/2), so it folds into the W
layer that follows it.  A round is then: the phase e^{i*beta} on the marked
amplitude, the layer of M_v = W_v*diag(1, d_v) over all qubits, the same
phase on amplitude 0 (where every d_v is 1), the M_v layer again, and the
global phase e^{i*beta}.

A layer is applied as ceil(n/GROUP) matrix products, one per group of up to
GROUP = 3 consecutive qubits: each contracts the group with the Kronecker
product of its k gates, at 2^k multiply-adds per amplitude, and rotates the
group to the end of the index (the shuffle algorithm of Fernandes, Plateau &
Stewart, J. ACM 45 (1998) 381).  A run costs 2*iterations + 1 layers.

Runs of one register size and iteration count evolve together as a block of
shape (B, 2^n), one row per run, each with its own factors, so each matrix
product covers every point of the block at once.  Output is byte-identical
from run to run, and a sweep row agrees with a standalone `report` of its
point to 1e-15 (bitwise on the x86-64 machine this was measured on, but
that is not promised).
"""

from dataclasses import dataclass

import numpy as np

from .basis import all_patterns, index_of, validate_pattern
from .errors import DimensionMismatch
from .gates import PhasePoint, check_convention, validate_rates, walsh_layer, whole_number

# Amplitudes per block, each run's group factors counted too (see
# points_per_block): 46 points at n=9, 7 at n=12.  GROUP is the number of
# qubits per factor.  Evolution alone on a 2-core x86-64 VM, median of 11
# round-robin runs: a 1000-point n=9 sweep took 0.23 / 0.21 / 0.23 / 0.33 s
# with GROUP=3 at 2^13 / 2^14 / 2^15 / 2^16, and 40 single n=12 runs with
# 11-50 iterations took 0.25-0.27 s (the former 2x2 sweeps took 1.24 s and
# 1.29 s).  2^14 and 2^15 were level across repeats; 2^15 is kept.  GROUP=2
# took 0.34 s and 0.37 s.  GROUP=4 and 5 took 0.26 s on the sweep and
# 0.26-0.29 s on the n=12 runs, but there OpenBLAS ran the gemms on both
# cores (process CPU time twice the wall time); with GROUP=3 it ran them in
# one thread.
BLOCK_AMPLITUDES = 2**15
GROUP = 3


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one search run.

    ``iterations`` defaults to n - 1, the count that recovers the standard
    Grover success probabilities at phi=1 with no dissipation.
    """

    n: int
    marked: str
    phi: float
    rates: tuple = ()
    iterations: int | None = None
    convention: str = "composite"

    def __post_init__(self):
        validate_pattern(self.marked)
        if len(self.marked) != whole_number(self.n, "n"):
            raise DimensionMismatch(
                f"marked pattern length {len(self.marked)} vs n={self.n}"
            )
        object.__setattr__(self, "rates", validate_rates(self.rates or (0.0,) * self.n, self.n))
        object.__setattr__(self, "phi", self.phase.phi)
        if self.iterations is None:
            object.__setattr__(self, "iterations", max(1, self.n - 1))
        if whole_number(self.iterations, "iterations") < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        check_convention(self.convention)

    @property
    def phase(self) -> PhasePoint:
        return PhasePoint(self.phi, self.n)


@dataclass(frozen=True)
class ProbabilityReport:
    """Marked probability, every remaining-state probability (in index
    order), and the total survival probability."""

    marked_pattern: str
    marked_prob: float
    unmarked: dict
    survival: float

    @property
    def sum_unmarked(self) -> float:
        return self.survival - self.marked_prob


def points_per_block(n: int) -> int:
    """Runs per engine block at register size n.

    The budget counts each run's 2^n amplitudes and the 4^k entries of each
    of its group factors, so a block of small registers does not carry
    factors far larger than its states.
    """
    factors = sum(4 ** min(GROUP, n - lo) for lo in range(0, n, GROUP))
    return max(1, BLOCK_AMPLITUDES // (2**n + factors))


def _factors(mats: np.ndarray) -> list:
    """Transposed Kronecker factor of each qubit group, per run.

    ``mats`` holds one 2x2 gate per qubit and run, shape (n, 2, 2, B).  The
    group of qubits v..v+k-1 (k <= GROUP) gets a factor of shape
    (B, 2^k, 2^k) holding (M_v x ... x M_{v+k-1})^T, the transpose that
    `_apply` multiplies by.
    """
    gates = mats.transpose(0, 3, 2, 1)
    out = []
    for lo in range(0, len(gates), GROUP):
        f = gates[lo]
        for g in gates[lo + 1:lo + GROUP]:
            d = 2 * f.shape[1]
            f = (f[:, :, None, :, None] * g[:, None, :, None, :]).reshape(-1, d, d)
        out.append(np.ascontiguousarray(f))
    return out


def _apply(amps: np.ndarray, factors: list) -> np.ndarray:
    """Apply a layer to every row of ``amps`` (shape (B, 2^n)); new array.

    Each matmul contracts the leading group of qubits with its factor and
    rotates that group to the end, so after the last group the qubits are
    back in order.
    """
    b = len(amps)
    for f in factors:
        amps = (amps.reshape(b, f.shape[1], -1).transpose(0, 2, 1) @ f).reshape(b, -1)
    return amps


def _evolve(configs, trace=None) -> np.ndarray:
    """Final (unnormalized) amplitudes of a block of runs, shape (B, 2^n).

    The runs must share n and the iteration count.  When ``trace`` is a
    list, the marked amplitudes (shape (B,)) are appended after each round.
    """
    n, iterations = configs[0].n, configs[0].iterations
    if any(c.n != n or c.iterations != iterations for c in configs):
        raise DimensionMismatch("a block needs one register size and one iteration count")
    w = np.stack([walsh_layer(n, c.rates, c.convention) for c in configs], axis=-1)
    beta = np.array([c.phase.beta for c in configs])
    rates = np.array([c.rates for c in configs]).T
    m = w.copy()
    m[:, :, 1] *= np.exp(-0.5 * (beta / 2**n) * rates)[:, None]
    w, m = _factors(w), _factors(m)
    phase = np.exp(1j * beta)
    marked = (range(len(configs)), [index_of(c.marked) for c in configs])

    amps = np.zeros((len(configs), 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    amps = _apply(amps, w)
    # Phases are applied out of place: numpy multiplies a one-element array
    # in place with scalar arithmetic, which rounds complex products unlike
    # its vector loop, so a one-point block would differ from a wider one.
    for _ in range(iterations):
        amps[marked] = amps[marked] * phase
        amps = _apply(amps, m)
        amps[:, 0] = amps[:, 0] * phase
        amps = _apply(amps, m) * phase[:, None]
        if trace is not None:
            trace.append(amps[marked])
    return amps


def _blocks(configs):
    """Yield (runs, probabilities) per block; probabilities is (B, 2^n)."""
    configs = list(configs)
    if configs:
        size = points_per_block(configs[0].n)
        for lo in range(0, len(configs), size):
            block = configs[lo:lo + size]
            yield block, np.abs(_evolve(block)) ** 2


def summaries(configs) -> list:
    """(marked_prob, sum_unmarked, survival) per run, in order.

    The runs must share n and the iteration count; no per-pattern dict is
    built.
    """
    out = []
    for block, probs in _blocks(configs):
        marked = probs[range(len(block)), [index_of(c.marked) for c in block]]
        survival = probs.sum(axis=1)
        out += zip(marked.tolist(), (survival - marked).tolist(), survival.tolist())
    return out


def reports(configs) -> list:
    """Probability report per run, in order; the runs must share n and the
    iteration count."""
    out = []
    for block, probs in _blocks(configs):
        labels = all_patterns(block[0].n)
        for config, values, survival in zip(block, probs.tolist(), probs.sum(axis=1).tolist()):
            ix = index_of(config.marked)
            unmarked = {labels[i]: p for i, p in enumerate(values) if i != ix}
            out.append(ProbabilityReport(config.marked, values[ix], unmarked, survival))
    return out


def run(config: RunConfig) -> np.ndarray:
    """Final (unnormalized) amplitudes of the search run, shape (2^n,)."""
    return _evolve([config])[0]


def report(config: RunConfig) -> ProbabilityReport:
    """Probabilities of the final state, split marked vs remaining."""
    return reports([config])[0]


def marked_amplitude_trace(config: RunConfig) -> list:
    """Marked-state amplitude after each iteration (length = iterations)."""
    trace = []
    _evolve([config], trace)
    return [complex(a[0]) for a in trace]
