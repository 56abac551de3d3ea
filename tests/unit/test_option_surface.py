"""The run surface, spelled out: a new knob is a visible diff here.

Every independently settable value of the engines and experiment harnesses
doubles the configurations the differential suites must span.  Whether a
knob is turned is the knob census's question: ``tools/reach.py --knobs``
fails on a defaulted keyword or field that every entry point binds to one
value and that has no reason to stay in ``tools/reach_allow.txt``.  This
file pins the names, so that a keyword only tests would set cannot return
unseen.
"""

import dataclasses
import inspect

import pytest

from repro.core.afdd import afdd_on_network, run_afdd
from repro.core.controlplane import ControlLedger
from repro.core.fdd import fdd_on_network, run_fdd
from repro.core.pdd import pdd_on_network, run_pdd
from repro.core.protocol import run_by_theorem4, run_on_network, run_protocol
from repro.experiments.admission import admission_point, build_controller
from repro.experiments.common import (
    ExperimentProfile,
    epoch_config,
    grid_mesh,
    paper_fdd,
    poisson_arrivals,
    sweep,
    uniform_scenario,
)
from repro.experiments.exec_time import collect_tallies, skew_tolerance
from repro.experiments.mote_detection import mote_rssi_experiment
from repro.experiments.theory import impossibility_demo
from repro.obs import ObsConfig
from repro.obs.metrics import MetricsRegistry, StreamingHistogram
from repro.phy.gain import distance_matrix, gain_matrix, received_power_matrix
from repro.phy.radio import RateTable
from repro.phy.truth import peel_slot
from repro.scheduling.greedy_physical import first_fit_pack, repair
from repro.scheduling.links import forest_link_set
from repro.traffic import (
    Backpressure,
    EpochConfig,
    FlowConfig,
    KneeTracker,
    centralized_scheduler,
    distributed_scheduler,
    is_borderline,
    make_controller,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
    sharded_distributed_factory,
    stability_sweep,
)
from repro.traffic.admission import flow_delay_percentile
from repro.traffic.epoch import epoch_loop
from repro.traffic.incremental import patch_schedule
from repro.traffic.queues import LinkQueues

CONFIG_FIELDS = {
    EpochConfig: (
        "epoch_slots",
        "n_epochs",
        "demand_cap",
        "divergence_factor",
        "reschedule_policy",
        "rate_table",
        "retain_records",
    ),
    ObsConfig: ("level", "jsonl_path", "run_name", "config"),
    FlowConfig: ("session_rate", "elastic_rate", "max_size_factor"),
    # What differs between FULL, QUICK and the benchmark profile, or what
    # the runner's --seed / --obs / --obs-jsonl override; every other sweep
    # constant lives in the one experiment module that reads it.
    ExperimentProfile: (
        "name",
        "densities",
        "repetitions",
        "pdd_probabilities",
        "mote_screams",
        "mote_smbytes",
        "exec_time_sweep",
        "skew_sweep_s",
        "id_scaling_sizes",
        "traffic_lambdas",
        "traffic_epochs",
        "traffic_epoch_slots",
        "sharded_grids",
        "sharded_lambdas",
        "sharded_epochs",
        "admission_controllers",
        "admission_load_factors",
        "admission_epochs",
        "controlplane_lambda",
        "multirate_lambdas",
        "multirate_epochs",
        "controlplane_scale_factors",
        "scale_grid_sides",
        "scale_dense_max_nodes",
        "scale_epoch_slots",
        "obs_level",
        "obs_jsonl",
        "seed",
    ),
}

KEYWORDS = {
    run_epochs: (
        "links",
        "generator",
        "scheduler",
        "config",
        "model",
        "on_epoch",
        "control",
        "obs",
    ),
    run_epochs_sharded: (
        "plan",
        "generator",
        "scheduler_factory",
        "model",
        "config",
        "max_workers",
        "on_epoch",
        "control",
        "obs",
        "executor",
    ),
    epoch_loop: (
        "links",
        "generator",
        "stage",
        "cfg",
        "ledger",
        "sinrs",
        "on_epoch",
        "obs",
        "engine",
        "plan",
    ),
    LinkQueues.__init__: ("self", "links"),
    # Borderline points are always majority-resolved over CONFIRM_SEEDS
    # seeds, inside the BORDERLINE_HYSTERESIS band.
    stability_sweep: ("rates", "run_at"),
    is_borderline: ("trace",),
    # Admission controllers: the AIMD / backpressure constants are module
    # constants; the tracker's window is set by examples/admission_control.py.
    KneeTracker.__init__: ("self", "window"),
    Backpressure.__init__: ("self",),
    make_controller: ("name", "cap"),
    # One exact verify-and-repair: greedy_physical on a truncated matrix and
    # the sharded engine's reconciliation; the re-pack is the first-fit
    # packer, the judge whichever incidence the model has.
    repair: ("slots", "links", "model", "order"),
    peel_slot: ("incidence", "senders", "receivers", "beta"),
    first_fit_pack: ("links", "model", "demanded", "demand"),
    # The protocol entry points: every run keeps its round log, and the
    # observer is run_protocol's alone (the state-machine trace).
    run_protocol: ("links", "runtime", "config", "select_active", "rng", "observer"),
    run_by_theorem4: ("links", "runtime", "config", "refresh_screams"),
    run_on_network: ("network", "links", "runner", "config", "faults", "rng", "model"),
    run_fdd: ("links", "runtime", "config", "rng"),
    run_afdd: ("links", "runtime", "config", "rng"),
    run_pdd: ("links", "runtime", "config", "rng"),
    fdd_on_network: ("network", "links", "config", "faults", "rng", "model"),
    afdd_on_network: ("network", "links", "config", "faults", "rng", "model"),
    pdd_on_network: ("network", "links", "config", "faults", "rng", "model"),
    # One membership-rate rule: the grant at a member's min(data, ACK) SINR.
    RateTable.grant: ("self", "sinr"),
    # One patch entry point; ScheduleCache passes the run's memo as sinrs.
    patch_schedule: ("cached", "links", "model", "max_length", "table", "sinrs"),
    # One filtered reader pair; unfiltered, the run's totals.
    ControlLedger.messages: ("self", "layer", "message_class"),
    ControlLedger.seconds: ("self", "layer", "message_class"),
    # The dense gain builders store float64 only.
    distance_matrix: ("positions",),
    gain_matrix: ("positions", "model"),
    received_power_matrix: ("positions", "tx_power_mw", "model"),
    # Experiment harnesses and the adapters they call.
    collect_tallies: ("profile", "density"),
    skew_tolerance: ("tally",),
    mote_rssi_experiment: ("profile",),
    impossibility_demo: (),
    uniform_scenario: ("density_per_km2", "rep", "seed"),
    build_controller: ("name", "n_sources"),
    # The closed-loop harness of E7-E12.
    grid_mesh: ("profile", "rows", "cols", "key"),
    poisson_arrivals: ("profile", "network", "gateways", "rate", "seed_index", "key"),
    paper_fdd: ("profile", "network"),
    epoch_config: ("profile", "n_epochs", "fields"),
    sweep: ("rates", "run_at"),
    admission_point: (
        "profile",
        "network",
        "links",
        "controller_name",
        "rate",
        "control",
        "obs",
    ),
    distributed_scheduler: ("network", "protocol", "config", "seed"),
    sharded_distributed_factory: ("network", "protocol", "config", "seed"),
    centralized_scheduler: ("model", "overhead_seconds"),
    sharded_centralized_factory: (),
    forest_link_set: ("forest", "link_demand"),
    flow_delay_percentile: ("session", "queues"),
    MetricsRegistry.__init__: ("self",),
    StreamingHistogram.__init__: ("self",),
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_are_exactly_these(config):
    names = tuple(f.name for f in dataclasses.fields(config))
    assert names == CONFIG_FIELDS[config]


@pytest.mark.parametrize("function", KEYWORDS, ids=lambda f: f.__qualname__)
def test_keywords_are_exactly_these(function):
    assert tuple(inspect.signature(function).parameters) == KEYWORDS[function]
