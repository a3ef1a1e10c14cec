"""Simulator of a dissipative dynamical quantum search algorithm, plus
gate-synthesis verification and reproduction experiments.  A run of k rounds
evolves 2k + 1 product terms and builds its 2^n amplitudes once; the marked
probability alone (`table1`, `peak`) builds none.

The names here are the ones README documents; import the rest from their
own modules."""

from .errors import (
    DimensionMismatch,
    DqsaError,
    InvalidPattern,
    MalformedConfig,
    NegativePhase,
    OverdampedQubit,
    UnknownTable,
    UnsupportedSize,
)
from .gates import w_gate
from .search import RunConfig, reports, summaries
from .synthesis import compose_w, evolve, v1_gate, v2_gate, verification_sweep
from .experiments import SweepSpec, sweep

__version__ = "0.1.0"
