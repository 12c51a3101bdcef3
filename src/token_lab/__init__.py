"""token-lab: design and analysis of token-exchange protocols for anonymous
service-exchange communities.

Agents trade one indivisible token per service.  The library computes the
invariant token-holding distribution of a protocol (supply + threshold
strategy), the marginal utilities that decide whether agents comply,
equilibrium classifications and parameter intervals, efficiency bounds, the
designer's bisection search, and a seeded finite-population simulator that
checks the steady-state predictions empirically.
"""

from .errors import (
    DegenerateState,
    InfeasibleAllocation,
    InvalidSupply,
    NoConvergence,
    NoEquilibriumFound,
    NoRoot,
    TokenLabError,
)
from .population import (
    PopulationParams,
    PopulationStrategy,
    Protocol,
    SteadyState,
    invariant_distribution,
    one_step_update,
)
from .values import (
    CoefficientTriple,
    MarginalProfile,
    coefficients,
    solve_marginals,
    solve_values,
    value_iteration_oracle,
)
from .equilibrium import (
    EquilibriumClass,
    EquilibriumReport,
    InterleavingTable,
    ParameterInterval,
    beta_interval,
    check_equilibrium,
    interval_interleaving,
    mixed_equilibrium_weight,
    r_interval,
)
from .design import (
    DesignResult,
    ProtocolChoice,
    SearchResult,
    ThresholdBounds,
    bisection_design,
    classification_sweep,
    efficiency,
    efficiency_bounds,
    exhaustive_scan,
    fixed_threshold_sweep,
    optimal_efficiency_sweep,
    optimal_protocol_search,
    threshold_bounds,
)
from .simulate import (
    DeviationEstimate,
    SimConfig,
    SimReport,
    compliance_value,
    deviation_payoff_estimate,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "TokenLabError",
    "InvalidSupply",
    "DegenerateState",
    "NoConvergence",
    "NoRoot",
    "NoEquilibriumFound",
    "InfeasibleAllocation",
    "PopulationParams",
    "PopulationStrategy",
    "Protocol",
    "SteadyState",
    "invariant_distribution",
    "one_step_update",
    "CoefficientTriple",
    "MarginalProfile",
    "coefficients",
    "solve_marginals",
    "solve_values",
    "value_iteration_oracle",
    "EquilibriumClass",
    "EquilibriumReport",
    "ParameterInterval",
    "InterleavingTable",
    "check_equilibrium",
    "beta_interval",
    "r_interval",
    "interval_interleaving",
    "mixed_equilibrium_weight",
    "ThresholdBounds",
    "DesignResult",
    "ProtocolChoice",
    "SearchResult",
    "efficiency",
    "efficiency_bounds",
    "threshold_bounds",
    "bisection_design",
    "exhaustive_scan",
    "optimal_protocol_search",
    "classification_sweep",
    "optimal_efficiency_sweep",
    "fixed_threshold_sweep",
    "SimConfig",
    "SimReport",
    "DeviationEstimate",
    "run_simulation",
    "deviation_payoff_estimate",
    "compliance_value",
]
