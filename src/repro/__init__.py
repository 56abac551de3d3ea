"""repro — a full reproduction of the SCREAM distributed STDMA scheduler.

Reproduces G. Brar, D. Blough, P. Santi, "The SCREAM Approach for Efficient
Distributed Scheduling with Physical Interference in Wireless Mesh Networks"
(ICDCS 2008): the SCREAM carrier-sensing OR primitive, leader election, the
PDD and FDD distributed schedulers, the centralized GreedyPhysical baseline,
and every substrate the evaluation depends on — SINR physics, mesh
topologies, gateway routing, a packet-level simulator, a Mica2 mote model,
and the timing/clock-skew analysis.

Quickstart::

    from repro import (
        grid_network, planned_gateways, build_routing_forest,
        uniform_node_demand, aggregate_demand, forest_link_set,
        ProtocolConfig, fdd_on_network, improvement_over_linear,
    )

    net = grid_network(8, 8, density_per_km2=2500)
    gws = planned_gateways(8, 8, 4)
    forest = build_routing_forest(net.comm_adj, gws, rng=1)
    demand = uniform_node_demand(net.n_nodes, rng=..., gateways=gws)
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    result = fdd_on_network(net, links, ProtocolConfig())
    print(result.schedule.summary())

See DESIGN.md for the full system inventory (§4 indexes the experiment
harnesses; measured tables live under benchmarks/results/).
"""

from repro.phy import (
    RadioConfig,
    RateTable,
    LogDistancePathLoss,
    PhysicalInterferenceModel,
)
from repro.topology import (
    Network,
    grid_network,
    uniform_network,
    SquareRegion,
    interference_diameter,
)
from repro.routing import (
    planned_gateways,
    random_gateways,
    build_routing_forest,
    RoutingForest,
    uniform_node_demand,
    aggregate_demand,
)
from repro.scheduling import (
    LinkSet,
    forest_link_set,
    Schedule,
    Slot,
    greedy_physical,
    greedy_rate,
    standalone_rates,
    linear_schedule,
    improvement_over_linear,
    verify_schedule,
)
from repro.core import (
    NodeState,
    StepTally,
    ProtocolConfig,
    FaultConfig,
    FastRuntime,
    ProtocolResult,
    run_pdd,
    run_fdd,
    run_afdd,
    run_arbitrary_link_set,
    TimingModel,
    ControlPlaneModel,
    ControlLedger,
)
from repro.core.pdd import pdd_on_network
from repro.core.fdd import fdd_on_network
from repro.core.afdd import afdd_on_network
from repro.simulation import PacketRuntime
from repro.traffic import (
    PoissonArrivals,
    ParetoOnOff,
    FlowConfig,
    FlowWorkload,
    KneeTracker,
    StaticCap,
    Backpressure,
    RegionalControllers,
    make_controller,
    LinkQueues,
    EpochConfig,
    TrafficTrace,
    ScheduleCache,
    patch_schedule,
    run_epochs,
    serialized_scheduler,
    centralized_scheduler,
    distributed_scheduler,
    rate_aware_scheduler,
    RateAnnotator,
    ShardPlan,
    partition_links,
    plan_for_network,
    run_epochs_sharded,
    sharded_centralized_factory,
    sharded_distributed_factory,
    StabilityMetrics,
    summarize_trace,
    stability_sweep,
    stability_knee,
)
from repro.mote import ScreamExperiment, run_detection_error_sweep, monitor_rssi_trace

__version__ = "1.0.0"

__all__ = [
    # phy
    "RadioConfig",
    "RateTable",
    "LogDistancePathLoss",
    "PhysicalInterferenceModel",
    # topology
    "Network",
    "grid_network",
    "uniform_network",
    "SquareRegion",
    "interference_diameter",
    # routing
    "planned_gateways",
    "random_gateways",
    "build_routing_forest",
    "RoutingForest",
    "uniform_node_demand",
    "aggregate_demand",
    # scheduling
    "LinkSet",
    "forest_link_set",
    "Schedule",
    "Slot",
    "greedy_physical",
    "greedy_rate",
    "standalone_rates",
    "linear_schedule",
    "improvement_over_linear",
    "verify_schedule",
    # core protocols
    "NodeState",
    "StepTally",
    "ProtocolConfig",
    "FaultConfig",
    "FastRuntime",
    "PacketRuntime",
    "ProtocolResult",
    "run_pdd",
    "run_fdd",
    "run_afdd",
    "run_arbitrary_link_set",
    "pdd_on_network",
    "fdd_on_network",
    "afdd_on_network",
    "TimingModel",
    "ControlPlaneModel",
    "ControlLedger",
    # traffic
    "PoissonArrivals",
    "ParetoOnOff",
    "FlowConfig",
    "FlowWorkload",
    "KneeTracker",
    "StaticCap",
    "Backpressure",
    "RegionalControllers",
    "make_controller",
    "LinkQueues",
    "EpochConfig",
    "TrafficTrace",
    "ScheduleCache",
    "patch_schedule",
    "run_epochs",
    "serialized_scheduler",
    "centralized_scheduler",
    "distributed_scheduler",
    "rate_aware_scheduler",
    "RateAnnotator",
    "ShardPlan",
    "partition_links",
    "plan_for_network",
    "run_epochs_sharded",
    "sharded_centralized_factory",
    "sharded_distributed_factory",
    "StabilityMetrics",
    "summarize_trace",
    "stability_sweep",
    "stability_knee",
    # mote
    "ScreamExperiment",
    "run_detection_error_sweep",
    "monitor_rssi_trace",
    "__version__",
]
