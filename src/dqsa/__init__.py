"""Dense state-vector simulator for a dissipative dynamical quantum search
algorithm, plus gate-synthesis verification and reproduction experiments."""

from .basis import (
    DenseGate,
    DiagonalGate,
    StateVector,
    all_patterns,
    ground_state,
    index_of,
    pattern_of,
    probabilities,
    survival,
)
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
    beta,
    diffusion_gate,
    oracle_gate,
    w_gate,
    walsh_layer,
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
    CouplingConfig,
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
    dissipation_sweep,
    peak_search,
    phase_sweep,
    table1,
    table1_comparison,
)

__version__ = "0.1.0"
