"""The typed transfer spine: one facade over the flow scheduler.

Twelve modules across six layers (hypervisor migration, shrinker, cloud
propagation and contextualization, sky federation / checkpoint /
migration API, MapReduce shuffle, ViNe TCP, pattern capture) move bulk
bytes.  Historically each reached into
:class:`~repro.network.flows.FlowScheduler` with its own tag / metadata
conventions; :class:`Transport` consolidates them behind **typed
transfer classes**:

===============  =========================================================
class            carries
===============  =========================================================
``MIGRATION``    pre-copy rounds, cluster checkpoints and restores
``SHUFFLE``      MapReduce input fetches and map->reduce shuffle
``PROPAGATION``  VM image unicast / broadcast-chain / cross-cloud replicas
``CONTROL``      contextualization messages, migration-API auth handshakes
``DATA``         application traffic (TCP payloads, workload patterns)
===============  =========================================================

A typed transfer is a plain scheduler flow whose metadata carries its
class, so it is shared out by the same max-min allocation as any other
flow.  The Transport taps the scheduler to keep per-class byte and
transfer totals and, when a :class:`~repro.metrics.MetricsRecorder` is
installed, a ``transport.throughput{class=...}`` histogram.  Observers
of individual completions tap the scheduler itself and read the class
with :meth:`Transport.classify`.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..metrics import recorder_of
from ..obs.trace import tracer_of
from .flows import Flow, FlowRecord, FlowScheduler


class TransferClass(enum.Enum):
    """What a bulk transfer is *for* (the taxonomy above)."""

    MIGRATION = "migration"
    SHUFFLE = "shuffle"
    PROPAGATION = "propagation"
    CONTROL = "control"
    DATA = "data"

    # Members are singletons, so identity hashing agrees with Enum
    # equality and skips the Python-level ``Enum.__hash__`` on every
    # per-class tally in ``Transport._observe``.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


class Transport:
    """Typed transfer facade over one :class:`FlowScheduler`.

    There is normally one Transport per scheduler, obtained with
    :meth:`Transport.of`; constructors across the stack accept either a
    scheduler or a Transport and normalize through it, so the whole
    simulation shares one set of per-class totals.
    """

    def __init__(self, scheduler: FlowScheduler):
        self.scheduler = scheduler
        self.sim = scheduler.sim
        self.bytes_by_class: Dict[TransferClass, float] = {
            cls: 0.0 for cls in TransferClass
        }
        self.transfers_by_class: Dict[TransferClass, int] = {
            cls: 0 for cls in TransferClass
        }
        # Memoized per-class throughput instruments, keyed by the
        # recorder they were resolved against (it can be swapped).
        self._hist_cache = (None, {})
        scheduler.taps.append(self._observe)

    @classmethod
    def of(cls, obj) -> "Transport":
        """Normalize a scheduler-or-transport to the shared Transport.

        The first call on a scheduler creates its Transport and caches
        it on the scheduler, so every layer resolves to the same
        instance (one set of per-class totals).
        """
        if isinstance(obj, Transport):
            return obj
        transport = getattr(obj, "_default_transport", None)
        if transport is None:
            transport = cls(obj)
            obj._default_transport = transport
        return transport

    # -- starting transfers --------------------------------------------------

    def start(self, transfer_class: TransferClass, src: str, dst: str,
              size: float, rate_cap: Optional[float] = None,
              tag: Optional[str] = None, span=None, **meta) -> Flow:
        """Start a typed transfer; returns the underlying :class:`Flow`
        (wait on ``flow.done``).

        ``span`` is an optional parent :class:`~repro.obs.Span`: with a
        tracer installed, the transfer gets a child span covering its
        whole network time, ended (status ``cancelled`` on cancellation)
        when the flow completes."""
        meta.setdefault("transfer_class", transfer_class)
        flow = self.scheduler.start_flow(
            src, dst, size, rate_cap=rate_cap,
            tag=tag if tag is not None else transfer_class.value,
            **meta,
        )
        tracer = tracer_of(self.sim)
        if tracer.enabled:
            xfer = tracer.start(
                f"xfer:{transfer_class.value}", parent=span,
                track=None if span is not None and span.track is not None
                else f"net:{transfer_class.value}",
                src=src, dst=dst, bytes=size,
            )
            xfer.end_on(flow.done)
        return flow

    def migration(self, src: str, dst: str, size: float, **kwargs) -> Flow:
        """Pre-copy round / checkpoint / restore traffic."""
        return self.start(TransferClass.MIGRATION, src, dst, size, **kwargs)

    def shuffle(self, src: str, dst: str, size: float, **kwargs) -> Flow:
        """MapReduce input fetch and map->reduce shuffle traffic."""
        return self.start(TransferClass.SHUFFLE, src, dst, size, **kwargs)

    def propagation(self, src: str, dst: str, size: float, **kwargs) -> Flow:
        """VM image distribution and cross-cloud replication traffic."""
        return self.start(TransferClass.PROPAGATION, src, dst, size, **kwargs)

    def control(self, src: str, dst: str, size: float, **kwargs) -> Flow:
        """Small control-plane messages (contextualization, auth)."""
        return self.start(TransferClass.CONTROL, src, dst, size, **kwargs)

    def data(self, src: str, dst: str, size: float, **kwargs) -> Flow:
        """Application payload traffic."""
        return self.start(TransferClass.DATA, src, dst, size, **kwargs)

    # -- observation ---------------------------------------------------------

    @staticmethod
    def classify(record: FlowRecord) -> TransferClass:
        """Transfer class of a flow record (``DATA`` for a raw flow
        started outside :meth:`start`)."""
        cls = record.meta.get("transfer_class")
        if isinstance(cls, TransferClass):
            return cls
        return TransferClass.DATA

    def _observe(self, record: FlowRecord) -> None:
        cls = self.classify(record)
        self.bytes_by_class[cls] += record.size
        self.transfers_by_class[cls] += 1
        # Per-class achieved throughput (bytes per simulated second).
        rec = recorder_of(self.sim)
        if rec is not None:
            duration = record.finished_at - record.started_at
            if duration > 0 and record.size > 0:
                cached_rec, hists = self._hist_cache
                if cached_rec is not rec:
                    hists = {}
                    self._hist_cache = (rec, hists)
                hist = hists.get(cls)
                if hist is None:
                    hist = hists[cls] = rec.histogram(
                        "transport.throughput",
                        labels={"class": cls.value},
                    )
                hist.observe(record.size / duration)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-class totals, JSON-ready."""
        return {
            cls.value: {
                "bytes": self.bytes_by_class[cls],
                "transfers": self.transfers_by_class[cls],
            }
            for cls in TransferClass
        }

    def __repr__(self):
        total = sum(self.transfers_by_class.values())
        return f"<Transport transfers={total} over {self.scheduler!r}>"
