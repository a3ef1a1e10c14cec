"""Dense state-vector simulator for a dissipative dynamical quantum search
algorithm, plus gate-synthesis verification and reproduction experiments.

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
