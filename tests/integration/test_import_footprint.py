"""What a fresh interpreter loads on the way to a sparse pipeline or a protocol run.

Every run pays for its imports before it computes anything.  Nothing
under ``src/`` imports scipy: hop distances, every protocol run and the
confidence intervals of ``mean_ci`` are numpy only (scipy is the oracle of
some tests, nothing more).  These checks run in a subprocess — the test
process itself has long since imported everything — and assert on
``sys.modules``, not on a clock; one runs an experiment with scipy
unimportable.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("scipy", "networkx", "hypothesis")

IMPORTS = "import repro, repro.experiments.common, repro.experiments.sharded\n"

# The ledger's sparse_10k set-up (bench/workloads.py::_setup_sparse) at 20x20.
SPARSE_SETUP = """
import numpy as np
from repro import forest_link_set, grid_network, planned_gateways
from repro.phy.sparse import interference_radius_m, sparse_gain_model
from repro.phy.spatial import GridIndex
from repro.routing.forest import build_routing_forest_csr
from repro.topology.commgraph import communication_csr

network = grid_network(20, 20, density_per_km2=1000.0)
radio = network.radio
cutoff = interference_radius_m(network.tx_power_mw, network.propagation, radio)
index = GridIndex(network.positions, cell_size=cutoff)
sparse = sparse_gain_model(
    network.positions, network.tx_power_mw, network.propagation, radio,
    cutoff_m=cutoff, far_field="packing", index=index,
)
model = sparse.interference_model(radio)
indptr, indices = communication_csr(
    sparse.power, radio.noise_mw, radio.beta, budget_mw=sparse.floor_mw
)
forest = build_routing_forest_csr(indptr, indices, planned_gateways(20, 20, 4), rng=7)
links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
assert links.n_links == network.n_nodes - 4
"""

REPORT = """
import sys
print(sorted({name.split(".")[0] for name in sys.modules} & set(%r)))
""" % (HEAVY,)


def loaded_after(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_library_loads_no_scipy():
    assert loaded_after(IMPORTS) == "[]"


def test_sparse_setup_loads_no_scipy():
    assert loaded_after(IMPORTS + SPARSE_SETUP) == "[]"


# Hop distances, one FDD run on the 8x8 grid, and backbone_protocol (the
# sharded engine's K >= ID(GS) sizing) on 12x12.
PROTOCOL_PATH = """
import numpy as np
from repro import (
    ProtocolConfig, aggregate_demand, build_routing_forest, fdd_on_network,
    forest_link_set, grid_network, planned_gateways, uniform_node_demand,
)
from repro.experiments.sharded import backbone_protocol
from repro.topology.diameter import hop_distance_matrix

assert hop_distance_matrix(np.eye(2, dtype=bool)[::-1])[0, 1] == 1
net = grid_network(8, 8, density_per_km2=2500)
gateways = planned_gateways(8, 8, 4)
forest = build_routing_forest(net.comm_adj, gateways, rng=1)
rng = np.random.default_rng(1)
demand = uniform_node_demand(net.n_nodes, rng=rng, gateways=gateways)
links = forest_link_set(forest, aggregate_demand(forest, demand))
assert fdd_on_network(net, links, ProtocolConfig()).schedule.satisfies_demand()
assert backbone_protocol(grid_network(12, 12)).k >= 1
"""


def test_protocol_path_loads_no_scipy():
    assert loaded_after(IMPORTS + PROTOCOL_PATH) == "[]"


def test_mean_ci_of_two_samples_loads_no_scipy():
    script = IMPORTS + (
        "from repro.analysis.stats import mean_ci\n"
        "assert mean_ci([1.0, 2.0]).half_width > 0\n"
    )
    assert loaded_after(script) == "[]"


# `python -m repro.experiments exec-time --profile quick`, with `import scipy`
# (and so every `from scipy import ...`) raising ImportError.
WITHOUT_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None
sys.argv = ["repro.experiments", "exec-time", "--profile", "quick"]
runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)
"""


def test_experiment_tables_run_with_scipy_unimportable():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "±" in done.stdout
