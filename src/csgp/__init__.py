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
    coalition_members,
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
    coupling_matrix,
    decode_solution,
    default_penalty,
    encode_structure,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
)
from .solvers import (
    AnnealSchedule,
    SolveReport,
    default_schedule,
    partitions,
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
    assignment_index,
    assignment_string,
    build_circuit,
    energy_table,
    expectation,
    gate_count,
    optimize,
    sample,
    scan_layers,
    simulate,
)
from .analysis import ComplexityRow, complexity_table, sparsity_bounds, write_complexity_csv

__version__ = "0.1.0"
