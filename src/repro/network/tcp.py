"""A TCP connection model for migration experiments.

The paper's §III identifies why live migration breaks networking: a VM
crossing a LAN boundary loses its open TCP connections because its
address must change.  This module models exactly that observable:

* A :class:`Connection` is established between two endpoints and pins
  their addresses at establishment time.
* Each :meth:`Connection.send` resolves the current route through a
  pluggable :class:`~repro.network.nat.Resolver`.  If the route is gone
  (the peer moved and nothing fixed up the network), the sender retries
  until its retransmission budget is exhausted, then the connection
  transitions to ``BROKEN`` — the "lost connection" the paper describes.
* With the ViNe resolver (see :mod:`repro.vine`), overlay addresses are
  location-independent and the overlay re-routes after a short
  reconfiguration delay, so the same send simply stalls briefly and the
  connection survives.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

from ..simkernel.core import Simulator
from ..simkernel.process import Process
from .flows import FlowScheduler
from .transport import Transport
from .nat import Endpoint, Resolver
from .topology import NetworkError


class ConnectionBroken(NetworkError):
    """The connection's retransmission budget ran out."""


class ConnectionState(Enum):
    ESTABLISHED = "established"
    BROKEN = "broken"
    CLOSED = "closed"


class Connection:
    """A bidirectional TCP connection between two endpoints.

    Parameters
    ----------
    sim, scheduler, resolver:
        Kernel, flow scheduler, and the routing function in effect
        (plain IP or an overlay).
    a, b:
        The endpoints.  Their addresses are pinned at establishment.
    rto_budget:
        Seconds of consecutive unroutability tolerated before the
        connection breaks (stands in for TCP's retransmission limit).
    retry_interval:
        Backoff between route re-resolutions while stalled.
    """

    _ids = itertools.count()

    def __init__(self, sim: Simulator, scheduler: FlowScheduler,
                 resolver: Resolver, a: Endpoint, b: Endpoint,
                 rto_budget: float = 15.0, retry_interval: float = 0.2):
        self.id = next(Connection._ids)
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        self.resolver = resolver
        self.a = a
        self.b = b
        self.addr_a = a.address
        self.addr_b = b.address
        self.rto_budget = rto_budget
        self.retry_interval = retry_interval
        self.state = ConnectionState.ESTABLISHED
        #: Total payload bytes successfully delivered (both directions).
        self.bytes_delivered = 0.0
        #: Longest stall (s) a send experienced before making progress.
        self.max_stall = 0.0
        self.established_at = sim.now

        if resolver.resolve(a, b) is None:
            self.state = ConnectionState.BROKEN
            raise ConnectionBroken(
                f"cannot establish connection {a.name} -> {b.name}: no route"
            )

    # -- helpers -------------------------------------------------------------

    def _peer_addresses_changed(self) -> bool:
        return self.a.address != self.addr_a or self.b.address != self.addr_b

    @property
    def alive(self) -> bool:
        return self.state is ConnectionState.ESTABLISHED

    def close(self) -> None:
        """Orderly shutdown."""
        if self.state is ConnectionState.ESTABLISHED:
            self.state = ConnectionState.CLOSED

    # -- data transfer ---------------------------------------------------

    def send(self, nbytes: float, sender: Optional[Endpoint] = None,
             tag: str = "tcp") -> Process:
        """Send ``nbytes`` of payload from ``sender`` (default: ``a``).

        Returns a process; yield it to wait.  It returns the number of
        bytes delivered, or raises :class:`ConnectionBroken` if the
        route stayed dead past the retransmission budget or a peer's
        address changed under plain IP.
        """
        src, dst = (self.a, self.b)
        if sender is self.b:
            src, dst = (self.b, self.a)
        return self.sim.process(self._send_proc(src, dst, nbytes, tag),
                                name=f"tcp-send-{self.id}")

    def _send_proc(self, src: Endpoint, dst: Endpoint, nbytes: float,
                   tag: str):
        if self.state is not ConnectionState.ESTABLISHED:
            raise ConnectionBroken(f"connection {self.id} is {self.state.value}")
        stall_started = None
        while True:
            # Under plain IP, an address change is immediately fatal: the
            # pinned 4-tuple no longer names the peer.
            if self._peer_addresses_changed():
                self.state = ConnectionState.BROKEN
                raise ConnectionBroken(
                    f"connection {self.id}: endpoint address changed "
                    f"({self.addr_a}->{self.a.address}, "
                    f"{self.addr_b}->{self.b.address})"
                )
            route = self.resolver.resolve(src, dst)
            if route is None:
                now = self.sim.now
                if stall_started is None:
                    stall_started = now
                if now - stall_started >= self.rto_budget:
                    self.state = ConnectionState.BROKEN
                    raise ConnectionBroken(
                        f"connection {self.id}: unroutable for "
                        f"{now - stall_started:.3f}s"
                    )
                yield self.sim.timeout(self.retry_interval)
                continue
            if stall_started is not None:
                self.max_stall = max(self.max_stall, self.sim.now - stall_started)
                stall_started = None
            wire_bytes = nbytes * route.overhead_factor
            flow = self.transport.data(
                route.src_site, route.dst_site, wire_bytes, tag=tag,
                rate_cap=route.rate_cap,
                src_vm=src.name, dst_vm=dst.name, connection=self.id,
            )
            if route.extra_latency > 0:
                yield self.sim.timeout(route.extra_latency)
            yield flow.done
            self.bytes_delivered += nbytes
            return nbytes
