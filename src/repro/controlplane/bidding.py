"""Bidding strategies for spot-backed capacity.

A :class:`BiddingStrategy` answers one question per (cloud, job) pair:
*at what price should the control plane bid for spot capacity here —
or should it stay on demand?*  Returning ``None`` declines spot for
this placement; returning a price enrolls the lease's nodes at that
bid.  All strategies are pure functions of observable market state, so
scheduling stays deterministic.

The shipped strategy, :class:`OnDemandClip`, bids a fixed fraction of
the on-demand price (the textbook "never pay more than on-demand"
strategy; a clip below 1.0 leaves headroom so a spot hour is always
cheaper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional


class BiddingStrategy(ABC):
    """Chooses a bid price for backing one job's nodes at one cloud."""

    @abstractmethod
    def bid(self, market, cloud, job) -> Optional[float]:
        """The bid (hourly price) to enroll at, or None to decline.

        ``market`` is the cloud's :class:`~repro.cloud.spot.SpotMarket`,
        ``cloud`` its :class:`~repro.cloud.provider.Cloud`, and ``job``
        the :class:`~repro.controlplane.jobs.Job` being placed.
        """

    @staticmethod
    def _admissible(bid: float, market) -> Optional[float]:
        """A bid below the current price would be rejected outright —
        decline instead of raising."""
        return bid if bid >= market.current_price else None


@dataclass
class OnDemandClip(BiddingStrategy):
    """Bid ``fraction`` of the cloud's on-demand price."""

    fraction: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def bid(self, market, cloud, job) -> Optional[float]:
        return self._admissible(
            self.fraction * cloud.pricing.on_demand_hourly, market)

