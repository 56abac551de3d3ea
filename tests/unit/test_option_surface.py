"""The run surface, spelled out: a new knob is a visible diff here.

Every independently settable value of the engines and experiment harnesses
doubles the configurations the differential suites must span.  A field or
defaulted keyword that appears below needs a caller outside ``tests/`` that
sets it to a second value (ROADMAP item 3c lists who pins each one that
stayed); the experiment-harness signatures are pinned too, so a keyword
only tests would set cannot return unseen.
"""

import dataclasses
import inspect

import pytest

from repro.experiments.admission import build_controller
from repro.experiments.common import ExperimentProfile, uniform_scenario
from repro.experiments.exec_time import collect_tallies, skew_tolerance
from repro.experiments.mote_detection import mote_rssi_experiment
from repro.experiments.theory import impossibility_demo
from repro.obs import ObsConfig
from repro.obs.metrics import MetricsRegistry, StreamingHistogram
from repro.phy.gain import distance_matrix, gain_matrix, received_power_matrix
from repro.scheduling.links import forest_link_set
from repro.traffic import (
    EpochConfig,
    FlowConfig,
    centralized_scheduler,
    distributed_scheduler,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
    sharded_distributed_factory,
)
from repro.traffic.admission import flow_delay_percentile
from repro.traffic.epoch import epoch_loop
from repro.traffic.queues import LinkQueues

CONFIG_FIELDS = {
    EpochConfig: (
        "epoch_slots",
        "n_epochs",
        "slot_seconds",
        "demand_cap",
        "divergence_factor",
        "reschedule_policy",
        "drift_threshold",
        "rate_table",
        "retain_records",
    ),
    ObsConfig: ("level", "jsonl_path", "run_name", "config"),
    FlowConfig: (
        "session_rate",
        "mean_size",
        "size_alpha",
        "cbr_fraction",
        "cbr_rate",
        "elastic_rate",
        "burst_slots",
        "max_size_factor",
    ),
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
        "rate_model",
        "on_epoch",
        "obs",
        "engine",
        "plan",
    ),
    LinkQueues.__init__: ("self", "links"),
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
