"""Iterative pre-copy live migration (the KVM-style baseline).

The engine implements the classic Clark et al. algorithm the paper
builds on:

1. **Round 0** transfers every memory page (and, for WAN migrations
   without shared storage, the disk image first) while the guest keeps
   running and dirtying pages.
2. **Iterative rounds** retransmit the pages dirtied during the previous
   round, until the estimated stop-and-copy time drops below the
   downtime target, the dirty set stops shrinking, or a round budget is
   exhausted (guests can dirty faster than the WAN drains).
3. **Stop-and-copy** pauses the guest, sends the final dirty set plus
   CPU state, and resumes it on the destination host.  The pause length
   is the migration's *downtime*.

How page payloads turn into wire bytes is delegated to a
:class:`PageCodec`.  The baseline :class:`RawCodec` sends every page in
full; Shrinker's deduplicating codec lives in :mod:`repro.shrinker` and
plugs into this same engine, so baseline and Shrinker migrations differ
*only* in the codec — exactly the comparison the paper's evaluation
makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol

import numpy as np

from ..metrics import recorder_of
from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..obs.trace import tracer_of
from ..simkernel import Process, Simulator
from .host import CapacityError, PhysicalHost
from .memory import sorted_unique
from .vm import VirtualMachine, VMState


class MigrationError(Exception):
    """Migration could not start or complete."""


@dataclass
class TransferEncoding:
    """How a batch of pages went on the wire."""

    pages: int  #: pages in the batch
    full_pages: int  #: sent as complete page payloads
    digest_pages: int  #: replaced by content digests (dedup hits)
    wire_bytes: float  #: bytes actually crossing the network
    payload_bytes: float  #: logical bytes represented (pages * page_size)


class PageCodec(Protocol):
    """Strategy converting page fingerprints into wire bytes."""

    page_size: int

    def encode(self, fingerprints: np.ndarray) -> TransferEncoding:
        """Encode a batch for transfer (may update destination state)."""
        ...  # pragma: no cover


class RawCodec:
    """Baseline: every page crosses the wire in full.

    ``header_bytes`` models the per-page metadata (guest frame number,
    flags) that any migration protocol sends.
    """

    def __init__(self, page_size: int, header_bytes: int = 8):
        self.page_size = page_size
        self.header_bytes = header_bytes

    def encode(self, fingerprints: np.ndarray) -> TransferEncoding:
        n = len(fingerprints)
        return TransferEncoding(
            pages=n,
            full_pages=n,
            digest_pages=0,
            wire_bytes=float(n) * (self.page_size + self.header_bytes),
            payload_bytes=float(n) * self.page_size,
        )


@dataclass
class MigrationConfig:
    """Tunables of the pre-copy loop."""

    #: Target downtime: stop-and-copy begins once the remaining dirty
    #: state is estimated to transfer within this budget.
    max_downtime: float = 0.3
    #: Hard bound on iterative rounds (guest may out-dirty the link).
    max_rounds: int = 30
    #: Optional cap on migration bandwidth (bytes/s).
    rate_cap: Optional[float] = None
    #: Move the disk image too (required across clouds with no shared FS).
    migrate_storage: bool = False
    #: Seconds to activate the guest at the destination after the final
    #: round (device re-attach; network fix-up is modeled by ViNe).
    activation_delay: float = 0.01


@dataclass
class MigrationStats:
    """Everything the Shrinker evaluation reports about one migration."""

    vm_name: str
    src_site: str
    dst_site: str
    rounds: int = 0
    pages_sent: int = 0
    full_pages: int = 0
    digest_pages: int = 0
    payload_bytes: float = 0.0
    wire_bytes: float = 0.0
    disk_wire_bytes: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    downtime: float = 0.0
    round_log: List[TransferEncoding] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total migration time."""
        return self.finished_at - self.started_at

    @property
    def dedup_ratio(self) -> float:
        """Fraction of logical memory bytes *not* sent thanks to content
        addressing.  Slightly negative for the raw baseline (per-page
        headers make the wire marginally larger than the payload)."""
        if self.payload_bytes == 0:
            return 0.0
        return 1.0 - self.wire_bytes / self.payload_bytes


class LiveMigrator:
    """Runs pre-copy migrations of single VMs over the flow network."""

    def __init__(self, sim: Simulator, scheduler: FlowScheduler,
                 codec_factory=None):
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        #: ``codec_factory(vm, dst_site) -> PageCodec``; defaults to raw.
        self.codec_factory = codec_factory or (
            lambda vm, dst_site: RawCodec(vm.memory.page_size)
        )

    def migrate(self, vm: VirtualMachine, dst_host: PhysicalHost,
                config: Optional[MigrationConfig] = None,
                span=None) -> Process:
        """Start migrating ``vm`` to ``dst_host``; yield the returned
        process to obtain its :class:`MigrationStats`.  ``span`` is an
        optional parent :class:`~repro.obs.Span` for the migration's
        trace (per-phase child spans are created under it)."""
        config = config or MigrationConfig()
        if vm.host is None:
            raise MigrationError(f"{vm.name!r} is not running anywhere")
        if vm.state not in (VMState.RUNNING, VMState.PAUSED):
            raise MigrationError(
                f"{vm.name!r} is {vm.state.value}; cannot migrate"
            )
        if dst_host is vm.host:
            raise MigrationError(f"{vm.name!r} is already on {dst_host.name!r}")
        if not dst_host.fits(vm):
            raise MigrationError(
                f"{vm.name!r} does not fit on destination {dst_host.name!r}"
            )
        return self.sim.process(
            self._migrate(vm, dst_host, config, span),
            name=f"migrate-{vm.name}",
        )

    # -- engine ----------------------------------------------------------

    def _dedup_lookup(self, codec, n_items: int, parent, tracer):
        """Charge the round-trip of the batched digest query against the
        destination's content registry (Shrinker sends hashes first and
        the destination answers which contents it needs).  Opt-in via
        ``codec.lookup_rtt``; the default of zero keeps the classic
        lookup-free model."""
        rtt = getattr(codec, "lookup_rtt", 0.0)
        if not rtt or n_items <= 0:
            return
        span = tracer.start("dedup-lookup", parent=parent,
                            phase="dedup-lookup", items=int(n_items))
        yield self.sim.timeout(rtt)
        span.end()

    def _transfer(self, wire_bytes: float, src: str, dst: str,
                  config: MigrationConfig, phase: str, vm: VirtualMachine,
                  codec=None, payload_bytes: float = 0.0, span=None):
        # A codec that hashes pages (Shrinker) can only *feed* the wire
        # as fast as it processes payload; on fast links this caps the
        # flow below link speed — why the paper's measured time saving
        # (~20%) trails its bandwidth saving (30-40%).
        rate_cap = config.rate_cap
        processing = getattr(codec, "processing_rate", None)
        if processing and payload_bytes > 0 and wire_bytes > 0:
            feed_rate = wire_bytes * processing / payload_bytes
            rate_cap = feed_rate if rate_cap is None else min(rate_cap,
                                                              feed_rate)
        return self.transport.migration(
            src, dst, wire_bytes, rate_cap=rate_cap,
            vm=vm.name, phase=phase, span=span,
        ).done

    def _migrate(self, vm: VirtualMachine, dst_host: PhysicalHost,
                 config: MigrationConfig, parent_span=None):
        src_site = vm.host.site
        dst_site = dst_host.site
        codec = self.codec_factory(vm, dst_site)
        stats = MigrationStats(vm.name, src_site, dst_site,
                               started_at=self.sim.now)
        tracer = tracer_of(self.sim)
        mspan = tracer.start(f"migrate:{vm.name}", parent=parent_span,
                             track=f"migrate:{vm.name}", vm=vm.name,
                             src=src_site, dst=dst_site)
        was_paused = vm.state is VMState.PAUSED
        if not was_paused:
            vm.state = VMState.MIGRATING

        # -- storage pre-copy (WAN migrations have no shared FS) ---------
        migrating_disk = config.migrate_storage and vm.disk is not None
        if migrating_disk:
            vm.disk.read_and_clear_dirty()  # start block tracking fresh
            blocks = vm.disk.blocks()
            sspan = tracer.start("storage-precopy", parent=mspan,
                                 phase="storage", blocks=len(blocks))
            yield from self._dedup_lookup(codec, len(blocks), sspan, tracer)
            enc = codec.encode(blocks)
            stats.disk_wire_bytes = enc.wire_bytes
            yield self._transfer(enc.wire_bytes, src_site, dst_site,
                                 config, "storage", vm, codec=codec,
                                 payload_bytes=enc.payload_bytes,
                                 span=sspan)
            sspan.end()

        # -- iterative memory pre-copy -----------------------------------
        vm.memory.clear_dirty()
        to_send = np.arange(vm.memory.n_pages)
        bandwidth_estimate = None
        while True:
            rspan = tracer.start(f"precopy-round-{stats.rounds + 1}",
                                 parent=mspan, phase="precopy",
                                 pages=len(to_send))
            yield from self._dedup_lookup(codec, len(to_send), rspan,
                                          tracer)
            fps = vm.memory.pages[to_send]
            enc = codec.encode(fps)
            stats.round_log.append(enc)
            stats.rounds += 1
            stats.pages_sent += enc.pages
            stats.full_pages += enc.full_pages
            stats.digest_pages += enc.digest_pages
            stats.payload_bytes += enc.payload_bytes
            stats.wire_bytes += enc.wire_bytes
            round_start = self.sim.now
            yield self._transfer(enc.wire_bytes, src_site, dst_site,
                                 config, "precopy", vm, codec=codec,
                                 payload_bytes=enc.payload_bytes,
                                 span=rspan)
            elapsed = self.sim.now - round_start
            if elapsed > 0 and enc.wire_bytes > 0:
                bandwidth_estimate = enc.wire_bytes / elapsed

            dirty = vm.memory.read_and_clear_dirty()
            rspan.set(wire_bytes=enc.wire_bytes,
                      dirty_after=len(dirty)).end()
            if len(dirty) == 0:
                pending_dirty = dirty
                break
            remaining_bytes = (len(dirty) * vm.memory.page_size
                               + vm.cpu_state_bytes)
            if bandwidth_estimate:
                eta = remaining_bytes / bandwidth_estimate
                if eta <= config.max_downtime:
                    pending_dirty = dirty
                    break
            if stats.rounds >= config.max_rounds:
                pending_dirty = dirty
                break
            to_send = dirty

        # -- stop-and-copy -------------------------------------------------
        vm.pause()
        pause_at = self.sim.now
        scspan = tracer.start("stop-and-copy", parent=mspan,
                              phase="stopcopy")
        # The dirty set that triggered the stop decision plus anything
        # written since (the guest ran on until this instant).
        final_dirty = sorted_unique(np.concatenate(
            (pending_dirty, vm.memory.read_and_clear_dirty())))
        # Disk blocks written during the migration flush with the final
        # round (QEMU-style iterative block migration, one catch-up pass).
        dirty_disk_wire = 0.0
        if migrating_disk:
            dirty_blocks = vm.disk.read_and_clear_dirty()
            if len(dirty_blocks):
                disk_enc = codec.encode(dirty_blocks)
                dirty_disk_wire = disk_enc.wire_bytes
                stats.disk_wire_bytes += disk_enc.wire_bytes
        if len(final_dirty) or vm.cpu_state_bytes or dirty_disk_wire:
            yield from self._dedup_lookup(codec, len(final_dirty),
                                          scspan, tracer)
            if len(final_dirty):
                enc = codec.encode(vm.memory.pages[final_dirty])
            else:
                enc = TransferEncoding(0, 0, 0, 0.0, 0.0)
            stats.round_log.append(enc)
            stats.pages_sent += enc.pages
            stats.full_pages += enc.full_pages
            stats.digest_pages += enc.digest_pages
            stats.payload_bytes += enc.payload_bytes
            stats.wire_bytes += enc.wire_bytes + vm.cpu_state_bytes
            yield self._transfer(
                enc.wire_bytes + vm.cpu_state_bytes + dirty_disk_wire,
                src_site, dst_site, config, "stopcopy", vm,
                codec=codec, payload_bytes=enc.payload_bytes,
                span=scspan)
        scspan.set(pages=int(len(final_dirty))).end()
        if config.activation_delay:
            aspan = tracer.start("activation", parent=mspan,
                                 phase="activation")
            yield self.sim.timeout(config.activation_delay)
            aspan.end()

        # -- switch-over ---------------------------------------------------
        src_host = vm.host
        src_host.evict(vm)
        try:
            dst_host.place(vm)
        except CapacityError as exc:
            # Destination filled while the transfer ran (placement races
            # with concurrent provisioning).  Roll back onto the source
            # slot we just vacated and let callers see a failed migration
            # instead of a homeless paused VM.
            src_host.place(vm)
            if was_paused:
                vm.state = VMState.PAUSED
            else:
                vm.resume()
            mspan.set(rounds=stats.rounds).end(status="error")
            raise MigrationError(
                f"switch-over failed: {exc}") from exc
        stats.downtime = self.sim.now - pause_at
        stats.finished_at = self.sim.now
        mspan.set(rounds=stats.rounds, downtime=stats.downtime,
                  wire_bytes=stats.wire_bytes).end()
        rec = recorder_of(self.sim)
        if rec is not None:
            rec.histogram("migration.downtime").observe(stats.downtime)
            rec.histogram("migration.rounds").observe(stats.rounds)
            rec.histogram("migration.downtime",
                          labels={"src": src_site,
                                  "dst": dst_site}).observe(stats.downtime)
        if was_paused:
            vm.state = VMState.PAUSED
        else:
            vm.resume()
        return stats
