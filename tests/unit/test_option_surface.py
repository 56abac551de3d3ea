"""The run surface, spelled out: a new knob is a visible diff here.

Every independently settable value of the epoch engines doubles the
configurations the differential suites must span.  A field or keyword that
appears below needs a caller outside ``tests/`` that sets it to a second
value (ROADMAP item 3c lists who pins each one that stayed).
"""

import dataclasses
import inspect

import pytest

from repro.obs import ObsConfig
from repro.traffic import EpochConfig, FlowConfig, run_epochs, run_epochs_sharded
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
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_are_exactly_these(config):
    names = tuple(f.name for f in dataclasses.fields(config))
    assert names == CONFIG_FIELDS[config]


@pytest.mark.parametrize("function", KEYWORDS, ids=lambda f: f.__qualname__)
def test_keywords_are_exactly_these(function):
    assert tuple(inspect.signature(function).parameters) == KEYWORDS[function]
