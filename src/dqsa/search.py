"""The search iteration, evolved by one batched engine.

One run prepares |g...g>, applies the W layer once, then `iterations` rounds
of (oracle, diffusion).  The oracle's damping diagonal is the tensor product
of per-qubit diag(1, d_v), d_v = exp(-tau*g_v/2), so it folds into the W
layer that follows it.  A round is then: the phase e^{i*beta} on the marked
amplitude, n single-qubit sweeps with M_v = W_v*diag(1, d_v), the same phase
on amplitude 0 (where every d_v is 1), n more M_v sweeps, and the global
phase e^{i*beta}.  A run costs O(iterations * n * 2^n).

Runs of one register size and iteration count evolve together as a block of
shape (2^n, B), the batch on the last axis, so each 2x2 update covers every
point of the block at once.  Output is byte-identical from run to run, and a
sweep row agrees with a standalone `report` of its point to 1e-15 (bitwise
on the x86-64 machine this was measured on, but that is not promised).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import MAX_QUBITS, StateVector, index_of, pattern_of, validate_pattern
from .errors import DimensionMismatch
from .gates import PhasePoint, validate_rates, walsh_layer, whole_number

# Amplitudes per block: 64 points at n=9, 8 at n=12.  A 1000-point n=9 sweep
# on a 2-core x86-64 VM (median of 8 round-robin runs; peak RSS of a fresh
# process) took 1.04 s / 30 MiB with 2^12, 0.79 s / 31 MiB with 2^13, 0.64 s
# / 32 MiB with 2^14, 0.65 s / 34 MiB with 2^15, 0.86 s / 38 MiB with 2^16
# and 1.88 s / 75 MiB as one block, whose temporaries do not fit in cache.
# 2^15 was chosen over 2^14 because n=12 blocks of 4 points ran a third slower
# per point than blocks of 8.
BLOCK_AMPLITUDES = 2**15


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


@lru_cache(maxsize=512)
def _layer(n: int, rates: tuple, convention: str) -> np.ndarray:
    """The W layer's factors as one read-only (n, 2, 2) array."""
    mats = np.array(walsh_layer(n, rates, convention).mats)
    mats.setflags(write=False)
    return mats


@lru_cache(maxsize=MAX_QUBITS)
def _labels(n: int) -> tuple:
    """Pattern of every basis index of an n-qubit register, in index order."""
    return tuple(pattern_of(i, n) for i in range(2**n))


def _sweep(amps: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Contract mats[v] (shape (2, 2, B)) over qubit v+1 of every column.

    Both halves are copied out before the arithmetic: on the strided views
    numpy's inner loop covers only 2^(n-v-1) * B elements, which made single
    n=12 runs 20% slower.
    """
    b = amps.shape[1]
    for v, m in enumerate(mats):
        x = amps.reshape(2**v, 2, -1, b)
        x0, x1 = x[:, 0].copy(), x[:, 1].copy()
        amps = np.empty_like(x)
        amps[:, 0] = m[0, 0] * x0 + m[0, 1] * x1
        amps[:, 1] = m[1, 0] * x0 + m[1, 1] * x1
    return amps.reshape(-1, b)


def _evolve(configs, trace=None) -> np.ndarray:
    """Final (unnormalized) amplitudes of a block of runs, shape (2^n, B).

    The runs must share n and the iteration count.  When ``trace`` is a
    list, the marked amplitudes (shape (B,)) are appended after each round.
    """
    n, iterations = configs[0].n, configs[0].iterations
    if any(c.n != n or c.iterations != iterations for c in configs):
        raise DimensionMismatch("a block needs one register size and one iteration count")
    w = np.stack([_layer(n, c.rates, c.convention) for c in configs], axis=-1)
    beta = np.array([c.phase.beta for c in configs])
    rates = np.array([c.rates for c in configs]).T
    m = w.copy()
    m[:, :, 1] *= np.exp(-0.5 * (beta / 2**n) * rates)[:, None]
    phase = np.exp(1j * beta)
    marked = ([index_of(c.marked) for c in configs], range(len(configs)))

    amps = np.zeros((2**n, len(configs)), dtype=np.complex128)
    amps[0] = 1.0
    amps = _sweep(amps, w)
    # Phases are applied out of place: numpy multiplies a one-element array
    # in place with scalar arithmetic, which rounds complex products unlike
    # its vector loop, so a one-point block would differ from a wider one.
    for _ in range(iterations):
        amps[marked] = amps[marked] * phase
        amps = _sweep(amps, m)
        amps[0] = amps[0] * phase
        amps = _sweep(amps, m) * phase
        if trace is not None:
            trace.append(amps[marked])
    return amps


def _blocks(configs):
    """Yield (runs, probabilities) per block; probabilities is (B, 2^n)."""
    configs = list(configs)
    if configs:
        size = max(1, BLOCK_AMPLITUDES >> configs[0].n)
        for lo in range(0, len(configs), size):
            block = configs[lo:lo + size]
            amps = np.ascontiguousarray(_evolve(block).T)
            yield block, np.abs(amps) ** 2


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
        labels = _labels(block[0].n)
        for config, values, survival in zip(block, probs.tolist(), probs.sum(axis=1).tolist()):
            ix = index_of(config.marked)
            unmarked = {labels[i]: p for i, p in enumerate(values) if i != ix}
            out.append(ProbabilityReport(config.marked, values[ix], unmarked, survival))
    return out


def run(config: RunConfig) -> StateVector:
    """Final (unnormalized) state of the search run."""
    return StateVector(config.n, _evolve([config])[:, 0])


def report(config: RunConfig) -> ProbabilityReport:
    """Probabilities of the final state, split marked vs remaining."""
    return reports([config])[0]


def marked_amplitude_trace(config: RunConfig) -> list:
    """Marked-state amplitude after each iteration (length = iterations)."""
    trace = []
    _evolve([config], trace)
    return [complex(a[0]) for a in trace]
