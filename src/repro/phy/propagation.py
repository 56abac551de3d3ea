"""Radio propagation models.

The paper's simulations use a log-distance ("log-normal propagation model"
in the paper's wording) path-loss model with exponent 3; the analysis assumes
any *deterministic* path model.  :class:`LogDistancePathLoss` is that
model; :class:`PropagationModel` is what the gain builders require of one:

* ``gain(distances)`` — the dimensionless channel power gain (received
  power = transmit power x gain).  Gains are capped at the reference gain (a
  receiver never collects more power than at the reference distance; this
  also regularizes the d -> 0 singularity of the pure power law);
* ``range_for_snr(tx, noise, beta)`` — its inverse at an SNR, which sizes
  deployments and the sparse backend's cutoff from the same law.

A ``reference_loss_db`` term models the fixed loss at the reference distance
(antenna and first-meter loss; ~40 dB at 2.4 GHz with unity-gain antennas),
so transmit powers and ranges take realistic values: 15 dBm, alpha = 3,
-90 dBm noise and a 10 dB SINR threshold give a ~68 m communication range.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.util.validation import check_non_negative, check_positive


@runtime_checkable
class PropagationModel(Protocol):
    """A distance law: pairwise distances to channel power gains, and back."""

    def gain(self, distances: np.ndarray) -> np.ndarray:
        """Return dimensionless power gain for each pairwise distance (m)."""
        ...

    def range_for_snr(self, tx_power_mw: float, noise_mw: float, beta: float) -> float:
        """Distance (m) at which the SNR (no interference) drops to ``beta``."""
        ...


class LogDistancePathLoss:
    """Deterministic log-distance path loss.

    ``gain(d) = g0 * (d0 / d) ** alpha`` for ``d >= d0`` (clamped to ``g0``
    below the reference distance ``d0``), with
    ``g0 = 10 ** (-reference_loss_db / 10)``.

    Parameters
    ----------
    alpha:
        Path-loss exponent.  The paper's experiments use 3; its
        approximation-bound analysis requires ``alpha > 2``.
    reference_distance:
        Distance ``d0`` (meters) of the reference measurement point.
    reference_loss_db:
        Path loss at ``d0`` in dB (default 40, typical for 2.4 GHz at 1 m).
    """

    def __init__(
        self,
        alpha: float = 3.0,
        reference_distance: float = 1.0,
        reference_loss_db: float = 40.0,
    ):
        self.alpha = check_positive("alpha", alpha)
        self.reference_distance = check_positive(
            "reference_distance", reference_distance
        )
        self.reference_loss_db = check_non_negative("reference_loss_db", reference_loss_db)
        self._reference_gain = 10.0 ** (-self.reference_loss_db / 10.0)

    def gain(self, distances: np.ndarray) -> np.ndarray:
        d = np.asarray(distances, dtype=float)
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        ratio = np.where(d > self.reference_distance, d, self.reference_distance)
        return self._reference_gain * (self.reference_distance / ratio) ** self.alpha

    def range_for_snr(self, tx_power_mw: float, noise_mw: float, beta: float) -> float:
        """Distance at which SNR (no interference) drops to ``beta``.

        Inverts ``tx * gain(r) / noise = beta``; used to size deployment
        regions so grids stay connected.
        """
        check_positive("tx_power_mw", tx_power_mw)
        check_positive("noise_mw", noise_mw)
        check_positive("beta", beta)
        ratio = self._reference_gain * tx_power_mw / (noise_mw * beta)
        if ratio <= 1.0:
            return 0.0
        return self.reference_distance * ratio ** (1.0 / self.alpha)
