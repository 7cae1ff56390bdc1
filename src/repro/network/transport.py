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

Each class has a :class:`ClassPolicy` — an optional per-transfer rate
cap, an optional *aggregate* ceiling over all concurrent transfers of
the class (a :class:`~repro.network.flows.SharedCap` virtual link), and
a priority used as the weighted max-min share.  The defaults are all
no-ops, so a policy-free Transport is numerically identical to raw
``start_flow`` calls.

Every completed transfer is delivered to the Transport's tap registry as
a structured :class:`TransferRecord` (attribute-compatible with
:class:`~repro.network.flows.FlowRecord`, plus the class), and per-class
byte/transfer counters can be streamed into a
:class:`~repro.metrics.MetricsRecorder` via :meth:`Transport.bind_metrics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs.trace import tracer_of
from .flows import Flow, FlowRecord, FlowScheduler, SharedCap


class TransferClass(enum.Enum):
    """What a bulk transfer is *for* (the taxonomy above)."""

    MIGRATION = "migration"
    SHUFFLE = "shuffle"
    PROPAGATION = "propagation"
    CONTROL = "control"
    DATA = "data"

    def __str__(self):
        return self.value


@dataclass
class ClassPolicy:
    """Per-class transfer knobs.  All defaults are no-ops.

    Parameters
    ----------
    rate_cap:
        Cap applied to each individual transfer of the class (combined
        with any per-call cap by taking the minimum).
    aggregate_cap:
        Ceiling on the *summed* rate of all concurrent transfers of the
        class, enforced as a shared virtual link in the max-min
        allocation (e.g. "migrations may never use more than 30% of the
        WAN").
    priority:
        Weighted max-min share at contended links; 1.0 is plain fair
        sharing, 2.0 gets twice the bandwidth of a weight-1.0 flow at a
        shared bottleneck.
    """

    rate_cap: Optional[float] = None
    aggregate_cap: Optional[float] = None
    priority: float = 1.0


class TransferRecord:
    """Structured summary of a completed transfer, delivered to taps.

    Attribute-compatible with :class:`FlowRecord` (``src``, ``dst``,
    ``size``, ``started_at``, ``finished_at``, ``tag``, ``meta``,
    ``duration``), plus ``transfer_class``.
    """

    __slots__ = ("transfer_class", "src", "dst", "size", "started_at",
                 "finished_at", "tag", "meta")

    def __init__(self, transfer_class: TransferClass, record: FlowRecord):
        self.transfer_class = transfer_class
        self.src = record.src
        self.dst = record.dst
        self.size = record.size
        self.started_at = record.started_at
        self.finished_at = record.finished_at
        self.tag = record.tag
        self.meta = record.meta

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def __repr__(self):
        return (f"<TransferRecord {self.transfer_class.value} "
                f"{self.src}->{self.dst} {self.size:.3g}B {self.tag}>")


class Transport:
    """Typed transfer facade over one :class:`FlowScheduler`.

    There is normally one Transport per scheduler, obtained with
    :meth:`Transport.of`; constructors across the stack accept either a
    scheduler or a Transport and normalize through it, so the whole
    simulation shares one tap registry and one set of class policies.
    """

    def __init__(self, scheduler: FlowScheduler,
                 policies: Optional[Dict[TransferClass, ClassPolicy]] = None):
        self.scheduler = scheduler
        self.sim = scheduler.sim
        self.policies: Dict[TransferClass, ClassPolicy] = {
            cls: ClassPolicy() for cls in TransferClass
        }
        if policies:
            self.policies.update(policies)
        self._shared_caps: Dict[TransferClass, SharedCap] = {}
        #: Callbacks invoked with a :class:`TransferRecord` on completion.
        self.taps: List[Callable[[TransferRecord], None]] = []
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
        instance (one tap registry, one policy table).
        """
        if isinstance(obj, Transport):
            return obj
        transport = getattr(obj, "_default_transport", None)
        if transport is None:
            transport = cls(obj)
            obj._default_transport = transport
        return transport

    # -- policy --------------------------------------------------------------

    def set_policy(self, transfer_class: TransferClass,
                   policy: ClassPolicy) -> None:
        """Replace the policy for a class.

        Rate caps and priorities apply to transfers started after this
        call; a changed ``aggregate_cap`` re-rates the class's in-flight
        transfers immediately (the shared virtual link is resized and
        the scheduler notified, like a WAN capacity change)."""
        self.policies[transfer_class] = policy
        cap = self._shared_caps.get(transfer_class)
        if cap is not None and policy.aggregate_cap is not None:
            cap.bandwidth = float(policy.aggregate_cap)
            self.scheduler.links_changed([cap])

    def _class_cap(self, transfer_class: TransferClass,
                   aggregate_cap: float) -> SharedCap:
        cap = self._shared_caps.get(transfer_class)
        if cap is None:
            cap = SharedCap(f"class:{transfer_class.value}", aggregate_cap)
            self._shared_caps[transfer_class] = cap
        return cap

    # -- starting transfers --------------------------------------------------

    def start(self, transfer_class: TransferClass, src: str, dst: str,
              size: float, rate_cap: Optional[float] = None,
              tag: Optional[str] = None, priority: Optional[float] = None,
              span=None, **meta) -> Flow:
        """Start a typed transfer; returns the underlying :class:`Flow`
        (wait on ``flow.done``).

        ``span`` is an optional parent :class:`~repro.obs.Span`: with a
        tracer installed, the transfer gets a child span covering its
        whole network time, ended (status ``cancelled`` on cancellation)
        when the flow completes."""
        policy = self.policies[transfer_class]
        caps = [c for c in (rate_cap, policy.rate_cap) if c is not None]
        effective_cap = min(caps) if caps else None
        shared = ()
        if policy.aggregate_cap is not None:
            shared = (self._class_cap(transfer_class, policy.aggregate_cap),)
        meta.setdefault("transfer_class", transfer_class)
        flow = self.scheduler.start_flow(
            src, dst, size,
            rate_cap=effective_cap,
            tag=tag if tag is not None else transfer_class.value,
            weight=priority if priority is not None else policy.priority,
            shared_caps=shared,
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
        # Per-class achieved throughput for the watchtower's SLO floors.
        # The recorder is discovered through the simulator (attribute
        # lookup, None when no recorder is installed) rather than an
        # import: repro.metrics imports this package at module level.
        rec = getattr(self.sim, "_metrics", None)
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
        if self.taps:
            transfer = TransferRecord(cls, record)
            for tap in self.taps:
                tap(transfer)

    def bind_metrics(self, metrics, prefix: str = "transport") -> None:
        """Stream per-class counters into a
        :class:`~repro.metrics.MetricsRecorder`: each completion appends
        the cumulative class byte count to ``<prefix>.<class>.bytes``
        and the transfer count to ``<prefix>.<class>.transfers``."""
        def tap(transfer: TransferRecord) -> None:
            name = f"{prefix}.{transfer.transfer_class.value}"
            metrics.record(f"{name}.bytes",
                           self.bytes_by_class[transfer.transfer_class])
            metrics.record(f"{name}.transfers",
                           self.transfers_by_class[transfer.transfer_class])

        self.taps.append(tap)

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
