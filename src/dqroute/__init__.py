"""Dynamic-routing game engine: deterministic queuing on acyclic networks with
edge priorities, equilibrium solvers, extensive-form oracles and boundedness
experiments."""

__version__ = "0.1.0"

from .netcore import (
    Agent,
    Edge,
    ExtendedNetwork,
    GraphStats,
    InflowSchedule,
    Network,
    UnitNetwork,
    build_extended,
    leftmost_min_cut,
    normalize_to_unit,
    sp_decompose,
    validate_and_stats,
)
from .dynamics import EXIT, Configuration, RoutingTrace, action_set, run_paths, step
from .bestresponse import (
    EarliestArrivalTable,
    QueueCounters,
    best_response_path,
    brute_force_best_response,
    dominates,
    earliest_arrival_table,
)
from .equilibrium import (
    BatchDecomposition,
    CheckOptions,
    PropertyReport,
    batch_decompose,
    check_properties,
    enumerate_all_ne,
    iterative_dominating_profile,
    verify_ne,
)
from .spe import (
    HistoryNode,
    HistoryTree,
    SigmaStar,
    StrategyOracle,
    exhaustive_histories,
    induced_paths,
    ne_based_spe,
    one_deviation_audit,
    root_history,
    sigma_star,
)
from .analysis import (
    BoundReport,
    OccupancyTrace,
    degree_ratio_monitor,
    queue_bound_experiment,
    route_entry_order,
    spe_bound_experiment,
)
from .scenario import (
    LoadedScenario,
    Scenario,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)
