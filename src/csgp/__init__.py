"""Coalition structure generation via BILP/QUBO/Ising transforms, classical
solvers, and a gate-exact QAOA state-vector simulator."""

from .errors import (
    ConfigError,
    CsgError,
    InfeasibleError,
    InvalidStructureError,
    ParseError,
    ResourceLimitError,
    SchemaError,
)
from .game import (
    DISTRIBUTION_KINDS,
    CoalitionGame,
    CoalitionStructure,
    DistributionSpec,
    cs_value,
    generate_game,
    load_game,
    n_coalitions,
    save_game,
)
from .transform import (
    BilpInstance,
    DecodedSolution,
    IsingInstance,
    QuboInstance,
    build_bilp,
    build_qubo,
    coupling_counts,
    decode_solution,
    default_penalty,
    qubo_energy,
    qubo_to_ising,
)
from .solvers import (
    AnnealSchedule,
    SolveReport,
    default_schedule,
    solve,
    solve_dp,
    solve_enum,
    solve_qaoa,
    solve_qubo_exhaustive,
    solve_qubo_sa,
)
from .qaoa import (
    CircuitDescription,
    OptimizerConfig,
    QaoaParams,
    QaoaResult,
    assignment_string,
    build_circuit,
    energy_table,
    optimize,
    sample,
    scan_layers,
    simulate,
)
from .analysis import ComplexityRow, complexity_table, gate_count, sparsity_bounds, write_complexity_csv

__version__ = "0.1.0"
