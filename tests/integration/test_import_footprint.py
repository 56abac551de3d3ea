"""What a fresh interpreter loads on the way to a ready sparse pipeline.

Every run pays for its imports before it computes anything: scipy alone
costs ~0.6 s and ~60 MiB, and only ``hop_distance_matrix``
(``scipy.sparse.csgraph``) and ``mean_ci`` (``scipy.stats``) use it, so both
import it at call time.  These checks run in a subprocess — the test
process itself has long since imported everything — and assert on
``sys.modules``, not on a clock.
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


def test_scipy_arrives_with_the_first_hop_distance_matrix():
    script = IMPORTS + (
        "import numpy as np\n"
        "from repro.topology.diameter import hop_distance_matrix\n"
        "assert hop_distance_matrix(np.eye(2, dtype=bool)[::-1])[0, 1] == 1\n"
    )
    assert loaded_after(script) == "['scipy']"
