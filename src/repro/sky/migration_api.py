"""Cloud-API-level inter-cloud migration (paper §IV).

The thesis's remaining objective: expose live migration *at the cloud
API level*, with "the necessary authentication and ... a secure
connection between hypervisors to allow live migration without intrusion
in the destination cloud".  The :class:`SkyMigrationService` models
that workflow end to end:

1. mutual authentication between the two clouds' head nodes (credential
   exchange over the WAN plus crypto handshake time);
2. destination host selection and admission;
3. the Shrinker live migration itself (through the federation's
   migrator, so dedup state is shared);
4. ViNe overlay reconfiguration (gratuitous-ARP detection + routing
   update) so connections survive;
5. billing hand-off: the source cloud releases the instance, the
   destination adopts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cloud.provider import Cloud
from ..hypervisor.host import PhysicalHost
from ..hypervisor.migration import MigrationConfig, MigrationError, MigrationStats
from ..hypervisor.vm import VirtualMachine
from ..obs.trace import tracer_of
from ..simkernel.process import Process
from .federation import Federation, FederationError

#: Bytes exchanged during the inter-cloud TLS/credential handshake.
AUTH_HANDSHAKE_BYTES = 16 * 1024


@dataclass
class CloudMigrationResult:
    """Outcome of one cloud-API-level migration."""

    stats: MigrationStats
    src_cloud: str
    dst_cloud: str
    auth_duration: float
    total_duration: float
    reconfigured: bool


class AuthenticationError(Exception):
    """The destination cloud does not trust the source (paper §IV:
    migration "without intrusion in the destination cloud")."""


class SkyMigrationService:
    """Inter-cloud migration with authentication and network fix-up."""

    def __init__(self, federation: Federation,
                 crypto_handshake_time: float = 0.5,
                 secure_channel_overhead: float = 1.02):
        self.federation = federation
        #: Key agreement / certificate validation time.
        self.crypto_handshake_time = crypto_handshake_time
        #: TLS framing overhead applied to migration traffic.
        self.secure_channel_overhead = secure_channel_overhead

    def pick_destination_host(self, vm: VirtualMachine,
                              dst_cloud: Cloud) -> PhysicalHost:
        """First schedulable host with headroom for ``vm``."""
        for host in dst_cloud._schedulable_hosts():
            if host.fits(vm):
                return host
        raise MigrationError(
            f"no host in {dst_cloud.name!r} can take {vm.name!r}"
        )

    def migrate_vm(self, vm: VirtualMachine, dst_cloud_name: str,
                   config: Optional[MigrationConfig] = None) -> Process:
        """Migrate a running instance to another member cloud.

        Yields a :class:`CloudMigrationResult`.
        """
        fed = self.federation
        dst_cloud = fed.cloud(dst_cloud_name)
        src_cloud = fed.cloud_of(vm)
        if src_cloud is dst_cloud:
            raise FederationError(f"{vm.name!r} already runs in {dst_cloud_name!r}")
        if src_cloud.name not in dst_cloud.trusted_peers:
            raise AuthenticationError(
                f"{dst_cloud.name!r} does not accept migrations from "
                f"{src_cloud.name!r}"
            )
        dst_host = self.pick_destination_host(vm, dst_cloud)
        return fed.sim.process(
            self._migrate(vm, src_cloud, dst_cloud, dst_host, config),
            name=f"sky-migrate-{vm.name}",
        )

    def _migrate(self, vm, src_cloud, dst_cloud, dst_host, config):
        fed = self.federation
        sim = fed.sim
        started = sim.now
        root = tracer_of(sim).start(
            f"sky-migrate:{vm.name}", track=f"sky-migrate:{vm.name}",
            vm=vm.name, src=src_cloud.name, dst=dst_cloud.name,
        )

        # 1. Mutual authentication between the clouds' head nodes.
        aspan = tracer_of(sim).start("auth", parent=root, phase="auth")
        for a, b in ((src_cloud.name, dst_cloud.name),
                     (dst_cloud.name, src_cloud.name)):
            flow = fed.transport.control(
                a, b, AUTH_HANDSHAKE_BYTES, tag="auth",
                vm=vm.name, span=aspan,
            )
            yield flow.done
        yield sim.timeout(self.crypto_handshake_time)
        aspan.end()
        auth_done = sim.now
        if vm.host is None or vm not in src_cloud.instances:
            # Released (lease teardown, customer close) while the clouds
            # authenticated: there is nothing left to move.
            root.end(status="error")
            raise MigrationError(
                f"{vm.name!r} left {src_cloud.name!r} during authentication")

        # 2-3. The live migration proper, over the secured channel.  The
        # destination's image repository seeds the dedup registry so the
        # common base-image content never crosses the WAN.
        fed.index_destination_content(dst_cloud.name)
        config = config or MigrationConfig(migrate_storage=True)
        old_site = vm.site
        stats = yield fed.migrator.migrate(vm, dst_host, config, span=root)
        stats.wire_bytes *= self.secure_channel_overhead

        # 4. Overlay reconfiguration (no-op for VMs not on the overlay).
        reconfigured = False
        if vm.has_address and vm.address.host in fed.overlay.members:
            proc = fed.reconfigurator.vm_migrated(vm, old_site=old_site,
                                                  span=root)
            if proc is not None:
                yield proc
                reconfigured = True

        # 5. Billing hand-off.
        src_cloud.release(vm)
        dst_cloud.adopt(vm)
        root.set(reconfigured=reconfigured).end()

        return CloudMigrationResult(
            stats=stats,
            src_cloud=src_cloud.name,
            dst_cloud=dst_cloud.name,
            auth_duration=auth_done - started,
            total_duration=sim.now - started,
            reconfigured=reconfigured,
        )
