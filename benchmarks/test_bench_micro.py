"""Micro-benchmarks of the hot paths.

These are the operations whose cost dominates any large-scale use of the
library: SINR feasibility tests, incremental slot bookkeeping, SCREAM
floods, leader elections, the centralized scheduler, and full protocol runs.
"""

import importlib
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.core.pdd import run_pdd
from repro.core.scream import scream_flood
from repro.experiments.common import PAPER_PROTOCOL, grid_scenario
from repro.phy.sinr import sinr_for_links
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.sparse import (
    SparsePowerMatrix,
    build_sparse_power,
    interference_radius_m,
    sparse_gain_model,
)
from repro.phy.spatial import GridIndex
from repro.routing import build_routing_forest, planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.links import forest_link_set
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from repro.util.rng import spawn
from tests.conftest import SlotState, serial_pack


@pytest.fixture(scope="module")
def scenario():
    return grid_scenario(2500.0, rep=0, seed=13)


@pytest.mark.benchmark(group="micro")
def test_feasibility_check(benchmark, scenario):
    model = scenario.network.model
    links = scenario.links
    senders = links.heads[:8]
    receivers = links.tails[:8]
    benchmark(model.is_feasible, senders, receivers)


@pytest.mark.benchmark(group="micro")
def test_handshake_mask(benchmark, scenario):
    model = scenario.network.model
    links = scenario.links
    benchmark(model.handshake_mask, links.heads[:12], links.tails[:12])


@pytest.mark.benchmark(group="micro")
def test_slotstate_try_add_sequence(benchmark, scenario):
    model = scenario.network.model
    links = scenario.links

    def build_slot():
        state = SlotState(model)
        for k in range(links.n_links):
            state.try_add(int(links.heads[k]), int(links.tails[k]))
        return len(state)

    benchmark(build_slot)


@pytest.mark.benchmark(group="micro")
def test_scream_flood_64(benchmark, scenario):
    adj = scenario.network.sens_adj
    inputs = np.zeros(adj.shape[0], dtype=bool)
    inputs[0] = True
    benchmark(scream_flood, adj, inputs, 5)


@pytest.mark.benchmark(group="micro")
def test_leader_election_64(benchmark, scenario):
    runtime = FastRuntime.for_network(scenario.network, PAPER_PROTOCOL)
    participating = np.ones(scenario.network.n_nodes, dtype=bool)
    benchmark(runtime.leader_elect, participating)


@pytest.mark.benchmark(group="micro")
def test_greedy_physical_64(benchmark, scenario):
    benchmark(greedy_physical, scenario.links, scenario.network.model)


@pytest.mark.benchmark(group="micro")
def test_sparse_sinr_kernel_agreement_and_speedup():
    """The sparse scatter-add SINR kernel: exact-enough and genuinely faster.

    On a 64x64 grid (4096 nodes): (1) at ``cutoff=inf`` the value-dense
    sparse matrix reproduces the dense kernel *bit for bit* (same summation
    order by construction); (2) at the default finite cutoff the scatter-add
    fast path agrees with the reference mesh evaluated on the densified
    sparse matrix to float64 round-off (only the summation order differs);
    (3) on a full forest's worth of concurrent links the sparse kernel beats
    the dense ``O(L^2)`` mesh by >= 5x wall-clock — the per-slot win the E13
    sweep compounds across a whole schedule.
    """
    network = grid_network(64, 64, density_per_km2=1000.0)
    gateways = planned_gateways(64, 64, 16)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(17, "mk"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    snd, rcv = links.heads, links.tails
    noise = network.radio.noise_mw
    dense_power = network.power

    sgm_inf = sparse_gain_model(
        network.positions,
        network.tx_power_mw,
        network.propagation,
        network.radio,
        cutoff_m=float("inf"),
    )
    exact = sinr_for_links(dense_power, snd, rcv, noise)
    assert np.array_equal(sinr_for_links(sgm_inf.power, snd, rcv, noise), exact)

    sgm = sparse_gain_model(
        network.positions, network.tx_power_mw, network.propagation, network.radio
    )
    assert sgm.power.nnz < network.n_nodes**2 // 10
    fast = sinr_for_links(sgm.power, snd, rcv, noise, budget_mw=sgm.floor_mw)
    mesh = sinr_for_links(sgm.power.toarray(), snd, rcv, noise, budget_mw=sgm.floor_mw)
    np.testing.assert_allclose(fast, mesh, rtol=1e-9)

    def best_of(fn, repeats=5):
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        return min(walls)

    dense_wall = best_of(lambda: sinr_for_links(dense_power, snd, rcv, noise))
    sparse_wall = best_of(
        lambda: sinr_for_links(sgm.power, snd, rcv, noise, budget_mw=sgm.floor_mw)
    )
    speedup = dense_wall / max(sparse_wall, 1e-9)
    assert speedup >= 5.0, (
        f"sparse SINR kernel should be >= 5x faster than the dense mesh on "
        f"{snd.size} concurrent links at 4096 nodes, measured {speedup:.1f}x "
        f"(dense {dense_wall * 1e3:.1f} ms vs sparse {sparse_wall * 1e3:.1f} ms)"
    )


def _sparse_forest(side):
    """The E13 pipeline on a ``side`` x ``side`` grid: default (carrier-sense)
    cutoff and floor, demand 1 on every forest link."""
    network = grid_network(side, side, density_per_km2=1000.0)
    radio = network.radio
    sgm = sparse_gain_model(
        network.positions, network.tx_power_mw, network.propagation, radio
    )
    indptr, indices = communication_csr(
        sgm.power, radio.noise_mw, radio.beta, budget_mw=sgm.floor_mw
    )
    gateways = planned_gateways(side, side, (side // 10) ** 2)
    forest = build_routing_forest_csr(indptr, indices, gateways, rng=spawn(17, "mk"))
    links = forest_link_set(forest, np.ones(network.n_nodes, dtype=np.int64))
    return links, sgm.interference_model(radio)


@pytest.mark.benchmark(group="micro")
def test_sparse_packing_reads_rows_not_keys(monkeypatch):
    """The sparse pack path is key-search free — as a count, not a ratio.

    On a 50x50 grid (2500 nodes, the E13 pipeline at the default cutoff and
    floor, demand 1 on every forest link) every ``SparsePowerMatrix``
    indexing call is counted through a patched ``__getitem__``.  Packing
    the whole forest may make exactly the reads of its batched standalone
    screens, one per ``first_fit_pack`` call (the packing and each repair
    round's re-pack): ``SlotArena.first_fit`` answers everything else
    from the candidates' CSR rows (one ``rows`` gather per pass, the signal
    entries picked out of it) and the slot tables, so it adds **zero** —
    and so does verifying on this truncated matrix, which works from
    positions, not from stored powers.  The count repeats exactly on any
    host, unlike a wall-clock ratio; and the packing must be the one the
    dense arena produces on the densified matrix (compared on the
    recipe-free twin of the matrix, whose schedule is emitted as packed).
    """
    links, model = _sparse_forest(50)
    power, radio, floor = model.power, model.radio, model.budget_mw

    reads = []
    key_search = SparsePowerMatrix.__getitem__

    def counted(self, key):
        reads.append(1)
        return key_search(self, key)

    with monkeypatch.context() as patch:
        patch.setattr(SparsePowerMatrix, "__getitem__", counted)
        feasible_alone(model, links.heads, links.tails)
        screen_reads = len(reads)
        assert screen_reads > 0  # the counter is live
        del reads[:]
        schedule = greedy_physical(links, model)
        assert len(reads) == screen_reads * (1 + schedule.truth.repair_rounds)

    assert links.n_links == power.n - 25
    assert schedule.satisfies_demand()
    assert schedule.truth.repaired_tx > 0  # the repair ran inside the count
    bare = SparsePowerMatrix(power.n, power.keys, power.entries()[2])
    packed = greedy_physical(links, PhysicalInterferenceModel(bare, radio, floor))
    dense_model = PhysicalInterferenceModel(power.toarray(), radio, floor)
    dense_schedule = greedy_physical(links, dense_model)
    assert [slot.links for slot in packed.slots] == [
        slot.links for slot in dense_schedule.slots
    ]


@pytest.mark.benchmark(group="micro")
def test_sparse_packing_admits_waves_not_links(monkeypatch):
    """The sparse packer pays per *wave*, not per link — as a count.

    On a 60x60 grid (3600 nodes, several carrier-sense neighbourhoods
    across) every admission pass — one ``SlotArena.first_fit`` call — is
    counted with the candidates it tests, repair rounds included.  Links
    whose neighbourhoods are disjoint share a pass, and the default order
    on this truncated model (decreasing hashed ID) scatters neighbours
    across the order, so there are at most a tenth as many passes as
    candidates (measured: 257 passes for 4278 candidates; the raster
    ``"id"`` order takes 1127 for 4605).  A silent fall-back to one
    candidate per pass, or to the raster order, fails here on any host,
    where a timer would flap.  On the 20x20 smoke mesh one
    neighbourhood spans the deployment and a wave is barely wider than a
    link, so there only the schedule is pinned, as it is on the 60x60: equal
    to the one-link-at-a-time loop's (``tests/conftest.py::serial_pack``).
    """
    packer = importlib.import_module("repro.scheduling.greedy_physical")
    for side in (20, 60):
        links, model = _sparse_forest(side)
        passes = []
        first_fit = SlotArena.first_fit

        def counted(self, senders, receivers, need):
            passes.append(len(senders))
            return first_fit(self, senders, receivers, need)

        with monkeypatch.context() as patch:
            patch.setattr(SlotArena, "first_fit", counted)
            schedule = greedy_physical(links, model)
        with monkeypatch.context() as patch:
            patch.setattr(packer, "first_fit_pack", serial_pack)
            serial = greedy_physical(links, model)
        assert [slot.links for slot in schedule.slots] == [
            slot.links for slot in serial.slots
        ]
        assert sum(passes) == links.n_links + schedule.truth.repaired_tx
        if side == 60:
            assert 10 * len(passes) <= sum(passes), (len(passes), sum(passes))


@pytest.mark.benchmark(group="micro")
def test_power_harvest_examines_half_the_stencil_in_bounded_memory():
    """The near-field harvest, guarded by counts: candidates and bytes.

    On the ``sparse_10k`` deployment (100x100 grid, carrier-sense cutoff,
    one index cell per cutoff): (1) the half-plane join plan tests each
    unordered stencil pair once, so it examines at most 0.6x the candidate
    pairs of the full-stencil cell loop it replaced (every node against
    every node of its 3x3 cell block; ~2.2 M) — yet stores exactly the
    pairs within the cutoff; (2) ``build_sparse_power`` peaks, by
    ``tracemalloc``, below 3x the bytes of the matrix it returns:
    candidates are expanded a chunk at a time and the harvested pairs are
    freed before the key sort.
    """
    network = grid_network(100, 100, density_per_km2=1000.0)
    positions = network.positions
    cutoff = interference_radius_m(network.tx_power_mw, network.propagation, network.radio)
    index = GridIndex(positions, cell_size=cutoff)

    _, b_lo, b_hi = index._partner_runs(cutoff)
    examined = int((b_hi - b_lo).sum())
    # Nodes per cell, padded by an empty ring so the 3x3 box sum never wraps.
    cells = np.floor(positions / cutoff).astype(np.intp) + 1
    per_cell = np.zeros(tuple(cells.max(axis=0) + 2), dtype=np.int64)
    np.add.at(per_cell, tuple(cells.T), 1)
    block = sum(
        np.roll(per_cell, (dx, dy), axis=(0, 1)) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
    )
    stencil_examined = int((per_cell * block).sum())
    assert examined <= 0.6 * stencil_examined, (examined, stencil_examined)

    tracemalloc.start()
    try:
        power = build_sparse_power(
            network.positions, network.tx_power_mw, network.propagation, cutoff, index=index
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = power._keys.nbytes + power._vals.nbytes + power._cols.nbytes
    assert peak <= 3 * stored, f"peak {peak / 2**20:.1f} MiB vs stored {stored / 2**20:.1f} MiB"
    n = power.n
    expected = []
    for lo in range(0, n, 256):  # brute force, a row block at a time
        deltas = positions[lo : lo + 256, None, :] - positions[None, :, :]
        near = np.sqrt((deltas**2).sum(axis=2)) <= cutoff
        expected.append(np.flatnonzero(near.ravel()) + lo * n)
    assert np.array_equal(power._keys, np.concatenate(expected))


@pytest.mark.benchmark(group="protocols")
def test_fdd_full_run_64(benchmark, scenario):
    def run():
        runtime = FastRuntime.for_network(scenario.network, PAPER_PROTOCOL)
        return run_fdd(scenario.links, runtime, PAPER_PROTOCOL, rng=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.terminated


@pytest.mark.benchmark(group="protocols")
def test_fdd_resolves_per_admission_not_per_step(scenario):
    """Truncated-K FDD's simulation cost follows admissions, not steps — as
    a count.

    The paper's FDD tries ~one link per construction step and almost every
    step admits nobody; the fault-free runtime resolves a whole run of such
    steps in one batched kernel call.  A round may therefore cost one call
    per admission plus the O(log pool) calls in which the look-ahead chunk
    doubles — never one per step.  K=1 does not reach this grid's
    interference diameter (2), so the run has no closed form and takes the
    chunked resolver.  Counted on ``ProtocolResult``, so the guard repeats
    exactly on any host; the air-time tally is untouched (the differential
    suites pin it against the per-step reference).
    """
    config = replace(PAPER_PROTOCOL, k=1)
    runtime = FastRuntime.for_network(scenario.network, config)
    assert runtime.theorem4_model is None
    result = run_fdd(scenario.links, runtime, config, rng=1)
    assert result.terminated
    admissions = sum(
        len(r.members) - len(r.controllers) for r in result.round_records
    )
    pool = int((scenario.links.demand > 0).sum())
    doublings = 1 + int(np.ceil(np.log2(pool)))
    rounds = result.schedule_length
    assert result.resolve_calls <= admissions + rounds * doublings
    assert result.trials_evaluated >= result.tally.steps
    # ~a pool's worth of steps per round, a handful of calls per round.
    assert result.tally.steps >= 10 * rounds
    assert result.resolve_calls <= 4 * rounds


@pytest.mark.benchmark(group="protocols")
def test_saturated_fdd_resolves_nothing(scenario):
    """Saturated, fault-free FDD is Theorem 4's closed form: one first-fit
    pack, no construction step resolved — while the tally still books
    every step the protocol spends on air."""
    runtime = FastRuntime.for_network(scenario.network, PAPER_PROTOCOL)
    result = run_fdd(scenario.links, runtime, PAPER_PROTOCOL, rng=1)
    assert result.terminated
    assert result.resolve_calls == result.trials_evaluated == 0
    assert result.tally.steps >= 10 * result.schedule_length
    assert result.tally.handshakes == result.tally.steps


@pytest.mark.benchmark(group="protocols")
def test_pdd_full_run_64(benchmark, scenario):
    config = PAPER_PROTOCOL.with_p(0.2)

    def run():
        runtime = FastRuntime.for_network(scenario.network, config)
        return run_pdd(scenario.links, runtime, config, rng=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.terminated


@pytest.mark.benchmark(group="traffic")
def _sessions_mesh():
    """Links, model and rate table of the perf ledger's ``sessions_patch_8x8``."""
    from repro import RateTable

    network = grid_network(8, 8, density_per_km2=1000.0)
    forest = build_routing_forest(
        network.comm_adj, planned_gateways(8, 8, 4), rng=spawn(20080617, "forest")
    )
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return links, network.model, RateTable.geometric(network.radio.beta)


def _run_sessions(links, model, table, packer, n_epochs, on_record):
    """That workload's closed loop — flow sessions, ``packer`` in a
    patch-policy ``ScheduleCache``, priced control, multi-rate serving —
    calling ``on_record`` after every epoch; returns the cache."""
    from repro import (
        ControlPlaneModel,
        EpochConfig,
        FlowConfig,
        FlowWorkload,
        ScheduleCache,
        make_controller,
        run_epochs,
    )

    workload = FlowWorkload(
        links,
        FlowConfig.for_offered_rate(0.0145, links.n_links, 300),
        controller=make_controller("knee-tracker"),
        seed=spawn(7, "sessions"),
    )
    cache = ScheduleCache(
        packer, policy="patch", model=model, epoch_slots=300, rate_table=table
    )

    def on_epoch(record, queues):
        workload.observe(record, queues)
        on_record(record)

    run_epochs(
        links,
        workload,
        cache,
        EpochConfig(
            epoch_slots=300, n_epochs=n_epochs, reschedule_policy="patch", rate_table=table
        ),
        model=model,
        on_epoch=on_epoch,
        control=ControlPlaneModel.default_priced(),
    )
    return cache


def test_rate_path_evaluates_schedules_not_slots(monkeypatch):
    """A rate-aware epoch costs SINR kernel calls per *schedule pass*, not
    per slot — as a count, not a wall clock.

    The perf ledger's ``sessions_patch_8x8`` pipeline (8x8 mesh, flow
    sessions, ``greedy_rate`` in a patch-policy ``ScheduleCache``, priced
    control, multi-rate serving), 1 + 11 epochs, with every call the
    interference oracle makes into ``repro.phy.sinr`` counted.  One *pass*
    is one ``sinr_for_link_sets`` call (both sub-slots of every slot).  An
    epoch served from a patch may make at most the cached-rate read and the
    pass-3 capacity re-read (2 passes) — a deficit link's grants come from
    its admission pass, the standalone SINRs come with the run's memo, and
    the serving annotation reads slots pass 3 has read — and **no**
    per-slot ``sinr_for_links`` call is made at all.  (Evaluating slot by slot the same epochs made ~820
    ``link_sinrs`` pairs each.)  A hit makes
    none: the annotator remembers the round it replays.  A recompute makes
    no per-slot call either: ``greedy_rate`` judges each admission with one
    what-if batch and builds each *distinct* slot once — at most one per
    link, however long the schedule.  A patch builds one ``SlotArena``.
    """
    from repro import rate_aware_scheduler
    from repro.phy import interference
    from repro.traffic import incremental

    # (The package re-exports the function under the module's own name.)
    greedy_rate_module = sys.modules["repro.scheduling.greedy_rate"]

    links, model, table = _sessions_mesh()

    calls = {"sets": 0, "per_slot": 0, "built": 0, "arenas": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        interference, "sinr_for_link_sets", counting(interference.sinr_for_link_sets, "sets")
    )
    monkeypatch.setattr(
        interference, "sinr_for_links", counting(interference.sinr_for_links, "per_slot")
    )
    monkeypatch.setattr(incremental, "SlotArena", counting(SlotArena, "arenas"))
    patch = incremental._patch
    patches = []

    def patching(*args, **kwargs):
        arenas = calls["arenas"]
        patched = patch(*args, **kwargs)
        patches.append(calls["arenas"] - arenas)
        return patched

    monkeypatch.setattr(incremental, "_patch", patching)
    monkeypatch.setattr(
        greedy_rate_module, "_build_slot", counting(greedy_rate_module._build_slot, "built")
    )

    packs = []
    base = rate_aware_scheduler(model, table)

    def packer(demand_links, epoch):
        built = calls["built"]
        planned = base(demand_links, epoch)
        packs.append((calls["built"] - built, planned.schedule.length))
        return planned

    epochs = []
    cache = _run_sessions(
        links, model, table, packer, 12, lambda record: epochs.append((record, dict(calls)))
    )

    before = dict.fromkeys(calls, 0)
    reused = 0
    for record, after in epochs:
        spent = {key: after[key] - before[key] for key in calls}
        before = after
        assert spent["per_slot"] == 0
        if record.cache_hit or record.patched:
            reused += 1
            assert spent["sets"] <= 2
        if record.cache_hit:
            assert spent["sets"] == 0
    assert reused >= 6 and cache.stats.patches >= 4
    assert len(patches) >= cache.stats.patches
    assert set(patches) == {1}  # arenas built per patch

    assert packs
    for built, length in packs:
        assert built <= links.n_links
        assert length >= 3 * built  # replication is live: most slots are copies


def test_a_run_evaluates_each_distinct_slot_once(monkeypatch):
    """A patch costs what changed, not what exists, and a run evaluates
    each distinct slot once — as counts, not a wall clock.

    On the same ``sessions_patch_8x8`` pipeline, 1 + 19 epochs, with every
    arena call a patch makes logged and every slot handed to the SINR
    kernel (``_slot_sinrs_flat``) recorded:

    * pass 1 re-seeds the kept slots with one ``SlotArena.seed`` call —
      no ``open_slot`` and no per-member ``add`` before the first admission
      test; fresh slots are seeded too, and a deficit link is admitted into
      all its slots by one ``add``;
    * no what-if list reaches the kernel: a deficit link's grants come from
      its admission pass (``SlotArena.admit_sinrs``), so every slot the
      kernel sees is one the cache held or handed out;
    * the patch cache and the rate annotator read one memo, so no slot
      reaches the kernel twice in the run, no one-member slot reaches it
      at all, and an epoch answered by a cache hit evaluates nothing.
    """
    from repro import rate_aware_scheduler
    from repro.traffic import incremental

    links, model, table = _sessions_mesh()
    log: list = []
    handed: list = []

    def logged(name):
        method = getattr(SlotArena, name)

        def call(arena, *args):
            log.append((name, args))
            return method(arena, *args)

        monkeypatch.setattr(SlotArena, name, call)

    for name in ("seed", "open_slot", "add", "admit_sinrs"):
        logged(name)
    flat = PhysicalInterferenceModel._slot_sinrs_flat

    def recording(self, heads, tails, slots):
        handed.extend(tuple(slot) for slot in slots)
        kernel_calls.append(len(slots))
        return flat(self, heads, tails, slots)

    kernel_calls: list = []
    monkeypatch.setattr(PhysicalInterferenceModel, "_slot_sinrs_flat", recording)

    patch = incremental._patch
    patches = []
    schedules: set = set()  # every slot of every schedule cached or handed out

    def patching(cached, links, model, max_length, table, sinrs):
        del log[:]
        patched = patch(cached, links, model, max_length, table, sinrs)
        for schedule in (cached, patched):
            schedules.update(() if schedule is None else (tuple(s.links) for s in schedule.slots))
        patches.append(list(log))
        return patched

    monkeypatch.setattr(incremental, "_patch", patching)
    base = rate_aware_scheduler(model, table)

    def packer(demand_links, epoch):
        planned = base(demand_links, epoch)
        schedules.update(tuple(s.links) for s in planned.schedule.slots)
        return planned

    epochs = []
    _run_sessions(
        links, model, table, packer, 20, lambda record: epochs.append((record, len(handed)))
    )

    assert len(patches) >= 8
    for calls in patches:
        names = [name for name, _ in calls]
        assert "open_slot" not in names
        first_test = names.index("admit_sinrs") if "admit_sinrs" in names else len(names)
        assert names[:first_test] == ["seed"]
        assert names.count("add") <= names.count("admit_sinrs")
    assert handed and len(handed) == len(set(handed))
    assert set(handed) <= schedules
    # A one-member slot is its link's standalone SINR, which the memo
    # holds: 18 kernel calls (25 calls and 50 one-member slots before).
    assert min(map(len, handed)) > 1
    assert len(kernel_calls) == 18

    before = 0
    hits = 0
    for record, after in epochs:
        if record.cache_hit:
            hits += 1
            assert after == before
        before = after
    assert hits >= 1


def test_serve_plays_schedules_not_slots(monkeypatch):
    """Serving an epoch costs calls per *forest level*, not per slot — as a
    count, not a wall clock.

    On the same ``sessions_patch_8x8`` pipeline, every ``LinkQueues.play``
    call of the loop is first replayed on two copies of its queues, over the
    epoch as it is (300 slots) and over one ten times as long, with every
    Python and C function call underneath counted by ``sys.setprofile``.
    The counts must be equal — the round is expanded and served in whole-
    array passes, so a longer epoch is longer arrays — and bounded by a
    constant per forest level.  (Slot by slot, the same epochs made ~300
    ``serve_slot`` calls each, ~3 000 on the long epoch.)
    """
    import copy

    from repro import rate_aware_scheduler
    from repro.core.controlplane import forest_depths
    from repro.traffic.queues import LinkQueues

    links, model, table = _sessions_mesh()
    play = LinkQueues.play

    def calls_under(*args):
        count = 0

        def profiler(frame, event, arg):
            nonlocal count
            count += event in ("call", "c_call")

        sys.setprofile(profiler)
        try:
            served = play(*args)
        finally:
            sys.setprofile(None)
        return count, served

    counts = []

    def counting(queues, members, ends, start, epoch_slots, overhead_slots, rates):
        short, served_short = calls_under(
            copy.deepcopy(queues), members, ends, start, epoch_slots, overhead_slots, rates
        )
        long, served_long = calls_under(
            copy.deepcopy(queues), members, ends, start, 10 * epoch_slots, overhead_slots, rates
        )
        served = play(queues, members, ends, start, epoch_slots, overhead_slots, rates)
        assert served == served_short <= served_long
        counts.append((short, long, len(ends)))
        return served

    monkeypatch.setattr(LinkQueues, "play", counting)
    _run_sessions(links, model, table, rate_aware_scheduler(model, table), 12, lambda record: None)

    depth = int(forest_depths(links).max())
    assert len(counts) >= 10 and max(n_slots for _, _, n_slots in counts) >= 100
    for short, long, _ in counts:
        assert short == long
        assert short <= 80 + 100 * depth  # measured: 63 + 87 per level
