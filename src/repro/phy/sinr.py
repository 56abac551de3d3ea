"""Vectorized SINR computation for sets of concurrently transmitting links.

The core operation of the whole system: given the received-power matrix and a
set of concurrent transmissions, compute each receiver's SINR.  Everything —
the centralized scheduler, the distributed handshakes, the schedule verifier —
funnels through :func:`sinr_for_links`, or through :func:`sinr_for_link_sets`,
which evaluates many independent sets (a whole schedule, a batch of what-if
handshakes) in one pass and equals it row by row, bit for bit.
"""

from __future__ import annotations

import numpy as np


def _sparse_fast(power) -> bool:
    """Route to the scatter-add kernels? True only for genuinely sparse
    matrices — a value-dense (``cutoff=inf``) sparse matrix must go through
    the exact mesh path so its floating-point summation *order*, not just
    its values, reproduces the dense pipeline bit-for-bit."""
    return bool(getattr(power, "is_sparse_power", False)) and not power.value_dense


def _checked_budget(power, budget_mw) -> np.ndarray | None:
    """``budget_mw`` as a float array with one entry per node, or ``None``.

    Entries must be non-negative; that invariant is enforced where budgets
    are built (PhysicalInterferenceModel.__post_init__), not re-scanned
    here — the kernels sit inside every handshake.
    """
    if budget_mw is None:
        return None
    budget = np.asarray(budget_mw, dtype=float)
    if budget.ndim != 1 or budget.shape[0] != power.shape[0]:
        raise ValueError(
            f"budget_mw must have one entry per node ({power.shape[0]},), "
            f"got shape {budget.shape}"
        )
    return budget


def sinr_for_links(
    power: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
    noise_mw: float,
    budget_mw: np.ndarray | None = None,
) -> np.ndarray:
    """SINR at each receiver for concurrent transmissions ``senders[k] -> receivers[k]``.

    Parameters
    ----------
    power:
        ``(n, n)`` received-power matrix (mW); ``power[i, j]`` is what node
        ``j`` receives from node ``i``.
    senders, receivers:
        Equal-length integer index arrays describing the concurrent
        transmissions of one sub-slot.  All listed senders transmit
        simultaneously; interference at receiver ``k`` is the sum of the
        powers received from every *other* sender.
    noise_mw:
        Background noise power ``N``.
    budget_mw:
        Optional ``(n,)`` per-node *far-field interference budget* (mW),
        added to the noise term at each receiving node: link ``k`` sees
        ``N + budget_mw[receivers[k]]`` instead of ``N``.  This is the
        margin-budgeted feasibility entry point of the sharded epoch engine
        (:mod:`repro.traffic.sharded`): interference from transmitters
        *outside* the local scheduling problem is budgeted as extra noise
        rather than recomputed globally (cf. arXiv:1104.5200's decomposition
        of SINR scheduling into near-field sets plus a far-field budget).
        ``None`` means no budget anywhere.

    Returns
    -------
    numpy.ndarray
        SINR (linear ratio) per link, same length as ``senders``.  A
        receiver that is itself transmitting in the sub-slot (appears among
        ``senders``) is deaf — half-duplex radios cannot receive while
        transmitting — and gets SINR 0.
    """
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    if snd.shape != rcv.shape or snd.ndim != 1:
        raise ValueError("senders and receivers must be equal-length 1-D arrays")
    if snd.size == 0:
        return np.empty(0, dtype=float)
    if noise_mw <= 0:
        raise ValueError(f"noise_mw must be positive, got {noise_mw}")
    budget = _checked_budget(power, budget_mw)
    noise = noise_mw if budget is None else noise_mw + budget[rcv]

    if _sparse_fast(power):
        # Near-field path: total power landing on each receiver is a
        # scatter-add over the senders' stored (near) entries —
        # O(sum of sender neighborhoods) instead of the L x L mesh.
        # Only taken for genuinely sparse matrices: the value-dense
        # (cutoff=inf) case keeps the mesh below so its pairwise summation
        # order — hence every bit of the result — matches the dense model.
        signal = np.asarray(power[snd, rcv], dtype=float)
        interference = power.column_sums(snd)[rcv] - signal
        sinr = signal / (noise + interference)
        transmitting = np.zeros(power.shape[0], dtype=bool)
        transmitting[snd] = True
        sinr[transmitting[rcv]] = 0.0
        return sinr

    # incident[i, k]: power received at receiver of link k from sender of link i.
    incident = power[np.ix_(snd, rcv)]
    signal = np.diagonal(incident).astype(float, copy=True)
    interference = incident.sum(axis=0) - signal
    sinr = signal / (noise + interference)
    # Half-duplex: a receiver that also transmits is deaf.  A scratch mask
    # over the node axis beats np.isin's sort-based path on the small
    # per-slot index arrays this function sees millions of times.
    transmitting = np.zeros(power.shape[0], dtype=bool)
    transmitting[snd] = True
    sinr[transmitting[rcv]] = 0.0
    return sinr


def mesh_sinrs(power, tx, rx, on, noise) -> np.ndarray:
    """One gather of :func:`sinr_for_link_sets`: ``(S, L)`` index arrays and
    an ``on`` mask in, ``(S, L)`` SINRs out, the ``(S, L, L)`` mesh in
    between.  ``noise`` is a scalar or an ``(S, L)`` array (budgeted).
    Unvalidated and unbounded — the entry for callers that have already
    done both (:meth:`PhysicalInterferenceModel.handshake_trials`)."""
    on_air = on[:, :, None]
    # incident[t, i, k]: power at link k's receiver from link i's
    # transmitter, an exact 0.0 for transmitters that are padding.
    incident = power[tx[:, :, None], rx[:, None, :]] * on_air
    signal = np.asarray(power[tx, rx], dtype=float)
    sinr = signal / (noise + (incident.sum(axis=1) - signal))
    # Half-duplex: a receiver that transmits in its own set is deaf.
    deaf = ((tx[:, :, None] == rx[:, None, :]) & on_air).any(axis=1)
    return np.where(on & ~deaf, sinr, 0.0)


#: Most elements one ``(sets, L, L)`` gather of :func:`sinr_for_link_sets`
#: may hold (8 MiB of float64); batches that need more are cut along the
#: set axis.  The spatial harvest, the exact-model kernel and the fast
#: runtime's trial batches size their chunks from it too.
GATHER_ELEMENTS = 1 << 20


def sinr_for_link_sets(
    power: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
    valid: np.ndarray,
    noise_mw: float,
    budget_mw: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`sinr_for_links` over many independent link sets in one pass.

    ``senders`` / ``receivers`` / ``valid`` are ``(S, L)`` arrays; row ``t``
    lists one concurrent link set (one sub-slot of one slot), padded to the
    common width with ``valid[t] == False`` entries anywhere in the row
    (their indices may be anything in range).  Sets never interfere with
    each other.  Row ``t`` of the result equals
    ``sinr_for_links(power, senders[t, valid[t]], receivers[t, valid[t]],
    noise_mw, budget_mw)`` **bit for bit**, not merely to rounding: the
    ``(S, L, L)`` gather is reduced over its sender axis row after row —
    the order in which :func:`sinr_for_links` sums its ``(L, L)`` mesh —
    and a padding row contributes an exact ``0.0``, which leaves every
    partial sum unchanged.  Padding entries (and deaf receivers, as
    always) report SINR ``0.0``.

    The gather is bounded: sets are evaluated at most
    ``GATHER_ELEMENTS // L**2`` at a time (a single set wider than that is
    gathered alone, exactly the mesh :func:`sinr_for_links` would build),
    so a whole schedule can be handed in whatever its length.  A genuinely
    sparse :class:`~repro.phy.sparse.SparsePowerMatrix` keeps the per-set
    scatter-add kernel, whose summation order the mesh cannot reproduce.
    """
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    live = np.asarray(valid, dtype=bool)
    if snd.ndim != 2 or snd.shape != rcv.shape or snd.shape != live.shape:
        raise ValueError("senders, receivers and valid must share one (S, L) shape")
    if noise_mw <= 0:
        raise ValueError(f"noise_mw must be positive, got {noise_mw}")
    budget = _checked_budget(power, budget_mw)
    n_sets, width = snd.shape
    if snd.size == 0:
        return np.zeros(snd.shape, dtype=float)

    if _sparse_fast(power):
        sinr = np.zeros(snd.shape, dtype=float)
        for t in range(n_sets):
            on = live[t]
            sinr[t, on] = sinr_for_links(power, snd[t, on], rcv[t, on], noise_mw, budget)
        return sinr

    step = max(1, GATHER_ELEMENTS // (width * width))
    return np.concatenate(
        [
            mesh_sinrs(
                power,
                snd[lo : lo + step],
                rcv[lo : lo + step],
                live[lo : lo + step],
                noise_mw if budget is None else noise_mw + budget[rcv[lo : lo + step]],
            )
            for lo in range(0, n_sets, step)
        ]
    )


def carrier_sense_power(
    power: np.ndarray, transmitters: np.ndarray, n_nodes: int
) -> np.ndarray:
    """Total received power (mW) at every node given a set of transmitters.

    Transmitting nodes hear their own signal (entry left at the matrix's
    diagonal value); callers mask transmitters out when modelling half-duplex
    radios.  Powers *add* across concurrent transmitters — this additivity is
    exactly why the SCREAM primitive is collision-resilient.
    """
    tx = np.asarray(transmitters, dtype=np.intp)
    if tx.size == 0:
        return np.zeros(n_nodes, dtype=float)
    if _sparse_fast(power):
        return power.column_sums(tx)
    return power[tx, :].sum(axis=0)
