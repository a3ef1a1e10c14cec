"""Dense state-vector simulator for a dissipative dynamical quantum search
algorithm, plus gate-synthesis verification and reproduction experiments."""

from .basis import all_patterns, index_of, pattern_of
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
from .gates import (
    CONVENTIONS,
    PhasePoint,
    oracle_gate,
    w_gate,
    xi_factor,
)
from .search import (
    ProbabilityReport,
    RunConfig,
    marked_amplitude_trace,
    report,
    reports,
    run,
    summaries,
)
from .synthesis import (
    build_hamiltonian,
    compose_w,
    coupling_assignment,
    evolve,
    v1_gate,
    v2_gate,
    verification_sweep,
    verify_gate_realization,
)
from .experiments import (
    ComparisonReport,
    SweepSpec,
    appendix_reproduce,
    peak_search,
    sweep,
    table1,
    table1_comparison,
)

__version__ = "0.1.0"
