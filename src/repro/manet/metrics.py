"""Broadcast performance metrics (Sect. III-A of the paper).

The four standard metrics, with the exact conventions used to match the
paper's Fig. 6 axes (see DESIGN.md §4):

* **coverage** — number of devices, excluding the source, that received
  the broadcast message;
* **energy** — the sum of the transmission powers of *all* data frames in
  raw dBm (the only reading consistent with the paper's negative-valued
  energy axis);
* **forwardings** — number of devices that retransmitted after receiving
  (the source's seed transmission is not a forwarding);
* **broadcast_time** — time between the source's transmission and the last
  first-reception.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["BroadcastMetrics", "aggregate_metrics", "broadcast_metrics"]


@dataclass(frozen=True)
class BroadcastMetrics:
    """Outcome of one simulated dissemination."""

    #: Devices (excl. source) that received the message.
    coverage: float
    #: Sum of data-frame TX powers, raw dBm.
    energy_dbm: float
    #: Retransmissions (excl. the source's seed frame).
    forwardings: float
    #: Last first-reception minus source send time, s (0 if nobody heard).
    broadcast_time_s: float
    #: Number of nodes in the network (for coverage ratios).
    n_nodes: int = 0

    @property
    def coverage_ratio(self) -> float:
        """Coverage as a fraction of the non-source population."""
        if self.n_nodes <= 1:
            return 0.0
        return self.coverage / (self.n_nodes - 1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """(coverage, energy, forwardings, broadcast_time)."""
        return (
            self.coverage,
            self.energy_dbm,
            self.forwardings,
            self.broadcast_time_s,
        )

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"coverage={self.coverage:.1f}/{max(self.n_nodes - 1, 0)} "
            f"energy={self.energy_dbm:.1f}dBm "
            f"forwardings={self.forwardings:.1f} "
            f"bt={self.broadcast_time_s:.3f}s"
        )


def broadcast_metrics(
    first_rx,
    source: int,
    n_frames: int,
    energy_dbm: float,
    warmup_s: float,
    n_nodes: int,
) -> BroadcastMetrics:
    """The four metrics of one run, from its end-of-run readout.

    ``first_rx`` holds each node's first-reception time (NaN = never),
    ``n_frames`` the data frames put on the air (the source's seed frame
    included) and ``energy_dbm`` their summed TX power.  The one
    reduction every simulator front-end and both event cores share.
    """
    first_rx = np.asarray(first_rx, dtype=float)
    received_non_source = ~np.isnan(first_rx)
    received_non_source[source] = False
    coverage = int(np.count_nonzero(received_non_source))
    if coverage > 0:
        # Last first-reception among receivers: the mask selects exactly
        # the non-NaN entries (excluding the source), so a plain max
        # equals the nanmax over the masked array.
        broadcast_time = float(np.max(first_rx[received_non_source])) - warmup_s
    else:
        broadcast_time = 0.0
    return BroadcastMetrics(
        coverage=float(coverage),
        energy_dbm=float(energy_dbm),
        forwardings=float(max(n_frames - 1, 0)),
        broadcast_time_s=float(broadcast_time),
        n_nodes=n_nodes,
    )


def aggregate_metrics(samples: list[BroadcastMetrics]) -> BroadcastMetrics:
    """Average a list of per-network metrics (the paper's 10-network mean).

    ``n_nodes`` must agree across samples (they are the same scenario at
    different seeds); it is carried through unchanged.
    """
    if not samples:
        raise ValueError("cannot aggregate an empty metrics list")
    n_nodes = {m.n_nodes for m in samples}
    if len(n_nodes) != 1:
        raise ValueError(f"mixed n_nodes in aggregation: {sorted(n_nodes)}")
    means = {
        f.name: float(np.mean([getattr(m, f.name) for m in samples]))
        for f in fields(BroadcastMetrics)
        if f.name != "n_nodes"
    }
    return BroadcastMetrics(n_nodes=n_nodes.pop(), **means)
