"""Radio configuration: transmit powers, noise floor, decode and CS thresholds.

The paper assumes no transmit power control (each node uses a fixed level,
possibly different per node — "heterogeneous power" in the unplanned
scenario) and a carrier-sensing range at least as large as the communication
range.  :class:`RadioConfig` gathers these per-network constants and derived
quantities in one immutable value object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.units import dbm_to_mw
from repro.util.validation import check_positive


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer constants for one network.

    Attributes
    ----------
    beta:
        SINR decode threshold (linear ratio).  The paper's constant ``β``.
    noise_mw:
        Background noise power ``N`` in milliwatts.
    cs_gamma:
        Ratio ``r_CS / r_c`` between carrier-sense range and communication
        range.  Carrier sensing detects strictly weaker signals than decoding;
        with path-loss exponent ``alpha`` a range ratio ``γ`` corresponds to a
        detection threshold ``γ^(-alpha)`` below the decode threshold.  The
        paper's impossibility/diameter analysis uses ``γ = 1``; its 64-node
        experiments use an interference diameter of 5 which corresponds to
        ``γ ≈ 3`` on the 8x8 grid.
    alpha:
        Path-loss exponent used to convert ``cs_gamma`` into a power
        threshold ratio (must match the propagation model's exponent).
    """

    beta: float = 10.0  # 10 dB decode threshold.
    noise_mw: float = dbm_to_mw(-90.0)
    cs_gamma: float = 3.0
    alpha: float = 3.0

    def __post_init__(self) -> None:
        check_positive("beta", self.beta)
        check_positive("noise_mw", self.noise_mw)
        check_positive("cs_gamma", self.cs_gamma)
        check_positive("alpha", self.alpha)
        if self.beta <= 1.0:
            raise ValueError(
                "beta must exceed 1 (0 dB): sub-unity thresholds would let a "
                f"radio decode two concurrent frames at once, got {self.beta}"
            )
        if self.cs_gamma < 1.0:
            raise ValueError(
                "cs_gamma must be >= 1 (carrier-sense range cannot be smaller "
                f"than communication range), got {self.cs_gamma}"
            )

    @property
    def decode_power_mw(self) -> float:
        """Minimum received power that decodes with zero interference."""
        return self.beta * self.noise_mw

    @property
    def cs_threshold_mw(self) -> float:
        """Carrier-sense detection threshold in mW.

        A node detects channel activity when total received power exceeds
        this.  Derived from the decode threshold and ``cs_gamma`` through the
        path-loss law: a signal decodable at range ``r`` is detectable at
        range ``γ·r``.
        """
        return self.decode_power_mw / (self.cs_gamma**self.alpha)


#: :meth:`RateTable.geometric`'s ladder: tiers, and the SINR and rate
#: factors from one tier to the next.
GEOMETRIC_TIERS = 3
GEOMETRIC_SINR_STEP = 2.0
GEOMETRIC_RATE_STEP = 2.0


@dataclass(frozen=True)
class RateTable:
    """Monotone SINR-threshold -> packets-per-slot MCS tiers, with hysteresis.

    The paper's scheduler treats a link as binary — it clears ``β`` or it
    doesn't — but a real radio selects a modulation/coding scheme from the
    SINR it actually achieves, and a link well above threshold carries
    several packets in the slot a marginal link needs for one (SiNE's
    adaptive-MCS plan is the implementation template; Zhou et al.'s
    throughput-maximizing scheduling under physical interference is the
    theory).  A :class:`RateTable` is the whole contract:

    * ``thresholds[i]`` — minimum SINR (linear ratio) of tier ``i``,
      strictly increasing; ``thresholds[0]`` plays the role of ``β``.
    * ``rates[i]`` — packets per slot the tier carries, positive integers,
      monotone non-decreasing.
    * ``hysteresis`` — multiplicative margin (>= 1) a link must clear
      *above* a tier's raw threshold before :meth:`select` upgrades into
      it; downgrades happen as soon as the raw threshold is lost.  The
      asymmetry is what keeps a link whose SINR sits on a tier edge from
      flapping between tiers on noise (see the property tests).

    The **degenerate** single-tier table ``degenerate(beta)`` — threshold
    ``β``, rate 1 — reproduces the bool feasibility contract exactly:
    every scheduled link serves one packet per slot, whatever its SINR
    headroom.  The differential suite pins engines run under it
    bit-identical to the table-less seed behaviour.

    SINR below ``thresholds[0]`` maps to tier ``-1`` (no decode, rate 0)
    in the stateless lookups; serving paths that already established slot
    membership clamp to tier 0 instead — the membership contract
    guarantees the base MCS (see :meth:`grant`).
    """

    thresholds: np.ndarray
    rates: np.ndarray
    hysteresis: float = 1.0

    def __post_init__(self) -> None:
        thresholds = np.asarray(self.thresholds, dtype=float)
        rates = np.asarray(self.rates, dtype=np.int64)
        if thresholds.ndim != 1 or thresholds.size == 0:
            raise ValueError("thresholds must be a non-empty 1-D array")
        if thresholds.shape != rates.shape:
            raise ValueError("thresholds and rates must share one shape")
        if np.any(thresholds <= 0):
            raise ValueError("SINR thresholds must be positive")
        if np.any(np.diff(thresholds) <= 0):
            raise ValueError("SINR thresholds must be strictly increasing")
        if np.any(rates <= 0):
            raise ValueError("tier rates must be positive (packets per slot)")
        if np.any(np.diff(rates) < 0):
            raise ValueError("tier rates must be monotone non-decreasing")
        check_positive("hysteresis", self.hysteresis)
        if self.hysteresis < 1.0:
            raise ValueError(
                f"hysteresis must be >= 1 (a sub-unity margin would upgrade "
                f"below the tier's own threshold), got {self.hysteresis}"
            )
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "rates", rates)

    @classmethod
    def degenerate(cls, beta: float) -> "RateTable":
        """The single-tier table reproducing the bool ``SINR >= β`` contract."""
        return cls(thresholds=np.array([beta]), rates=np.array([1]))

    @classmethod
    def geometric(cls, beta: float, hysteresis: float = 1.0) -> "RateTable":
        """Geometric MCS ladder: :data:`GEOMETRIC_TIERS` tiers, thresholds
        ``β·GEOMETRIC_SINR_STEP^i``, rates ``GEOMETRIC_RATE_STEP^i``.

        Tiers at ``β, 2β, 4β`` carrying 1, 2, 4 packets per slot: the 3
        dB-per-doubling ladder of coding-rate steps, calibrated to the
        paper's 8x8 grid where standalone link margins reach ~2-3x ``β``;
        the x4-per-tier (6 dB, constellation-doubling) ladder would never
        engage there.  Callers model a specific radio by passing its own
        thresholds to the constructor instead.
        """
        exponents = np.arange(GEOMETRIC_TIERS)
        return cls(
            thresholds=beta * GEOMETRIC_SINR_STEP**exponents,
            rates=np.round(GEOMETRIC_RATE_STEP**exponents).astype(np.int64),
            hysteresis=hysteresis,
        )

    @property
    def n_tiers(self) -> int:
        return int(self.thresholds.shape[0])

    def tier_for(self, sinr: np.ndarray) -> np.ndarray:
        """Stateless tier per SINR value: highest tier whose threshold is
        cleared, ``-1`` below tier 0 (no decode).

        Vectorized as a single ``searchsorted`` over the (sorted)
        threshold array — the lookup rides the per-link SINR array the
        feasibility paths already compute.
        """
        values = np.asarray(sinr, dtype=float)
        return np.searchsorted(self.thresholds, values, side="right") - 1

    def rate_for(self, sinr: np.ndarray) -> np.ndarray:
        """Stateless achievable rate per SINR value (0 below tier 0)."""
        tiers = self.tier_for(sinr)
        rates = np.where(tiers >= 0, self.rates[np.maximum(tiers, 0)], 0)
        return rates.astype(np.int64)

    def grant(self, sinr: np.ndarray) -> np.ndarray:
        """Packets per slot of a slot *member* at each SINR value.

        A member's SINR is the *weaker* of its two sub-slots —
        ``min(data SINR, ACK SINR)`` — since a faster modulation is useless
        if the ACK cannot keep up.  Its tier is floored at 0: slot
        membership was established by the scheduling contract (``SINR >=
        β``, possibly under a *different* budget than the evaluating
        oracle carries — reconciled overflow slots and boundary links can
        sit below ``β`` there), and the seed semantics serve one packet
        regardless, so the base tier is the floor.  The degenerate table
        therefore grants every member rate 1 — the bit-identity anchor of
        the differential suite.  Equals :meth:`rate_for` floored at the
        lowest tier's rate.
        """
        return self.rates[np.maximum(self.tier_for(sinr), 0)]

    def select(self, sinr: np.ndarray, prev_tier: np.ndarray) -> np.ndarray:
        """Hysteresis-aware tier (re)selection.

        ``prev_tier[k] < 0`` means no prior selection for entry ``k``: the
        stateless :meth:`tier_for` answer is used.  Otherwise upgrades
        from ``prev_tier`` stop at the highest tier whose threshold is
        cleared with the full ``hysteresis`` margin (never exceeding the
        raw-threshold tier, never dropping below ``prev``), while
        downgrades snap straight to the stateless tier — losing a tier's
        raw threshold demotes immediately, reclaiming it requires margin.
        With ``hysteresis == 1`` this degenerates to :meth:`tier_for`.

        For a *fixed* SINR the map is idempotent — ``select(s,
        select(s, t)) == select(s, t)`` — so a link whose SINR sits inside
        one band can never oscillate between tiers (property-tested).
        """
        values = np.asarray(sinr, dtype=float)
        prev = np.asarray(prev_tier, dtype=np.int64)
        if values.shape != prev.shape:
            raise ValueError("sinr and prev_tier must share one shape")
        raw = self.tier_for(values)
        if self.hysteresis == 1.0:
            return raw.astype(np.int64)
        margin = (
            np.searchsorted(self.thresholds * self.hysteresis, values, side="right")
            - 1
        )
        # Upgrade: at most the margin-cleared tier, at least where we were.
        upgraded = np.minimum(raw, np.maximum(margin, prev))
        return np.where((prev >= 0) & (raw > prev), upgraded, raw).astype(np.int64)


#: Transmit power of every node of a planned deployment, and the range
#: an unplanned deployment's per-node powers are drawn from, in dBm.
TX_POWER_DBM = 12.0
TX_POWER_RANGE_DBM = (10.0, 14.0)


def uniform_tx_power(n: int) -> np.ndarray:
    """Homogeneous transmit power vector (mW) for ``n`` nodes, each at
    :data:`TX_POWER_DBM`."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return np.full(n, dbm_to_mw(TX_POWER_DBM), dtype=float)


def heterogeneous_tx_power(n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-node transmit powers drawn uniformly (in dBm) from
    :data:`TX_POWER_RANGE_DBM`.

    Models the paper's "unplanned deployment with heterogeneous transmission
    power".  Powers are fixed for the lifetime of the network (the paper
    assumes no power control).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return dbm_to_mw(rng.uniform(*TX_POWER_RANGE_DBM, size=n))
