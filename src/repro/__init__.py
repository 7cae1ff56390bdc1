"""repro — reproduction of *Building Dynamic Computing Infrastructures
over Distributed Clouds* (Pierre Riteau, IPDPS 2011 PhD Forum).

The library implements, over a self-contained discrete-event simulated
substrate, every system the paper describes:

* :mod:`repro.simkernel` — the discrete-event kernel;
* :mod:`repro.network` — WAN/LAN flow model, TCP, NAT, billing;
* :mod:`repro.hypervisor` — VM content model and pre-copy live migration;
* :mod:`repro.shrinker` — deduplicating WAN migration (§III-A);
* :mod:`repro.vine` — the ViNe overlay and migration reconfiguration (§III-B);
* :mod:`repro.cloud` — the Nimbus-like IaaS toolkit, fast image
  propagation (§II) and the spot market;
* :mod:`repro.sky` — multi-cloud federation, cloud-API migration and
  migratable spot instances (§II, §IV);
* :mod:`repro.mapreduce` — the elastic Hadoop stand-in (§II);
* :mod:`repro.patterns` — communication-pattern detection (§III-C);
* :mod:`repro.autonomic` — communication-aware adaptation (§III-C);
* :mod:`repro.emr` — the Elastic MapReduce service (§IV);
* :mod:`repro.controlplane` — the multi-tenant control plane: job
  queue with admission control, lease-based grants, fair-share
  scheduling and self-healing over the federation;
* :mod:`repro.obs` — the causal tracing spine: spans, typed
  instruments, Perfetto export and the critical-path analyzer;
* :mod:`repro.workloads` — memory profiles, BLAST, price traces,
  communication patterns.

A complete control-plane scenario in five lines::

    from repro import ControlPlane
    from repro.testbeds import two_cloud_testbed

    tb = two_cloud_testbed(memory_pages=256, image_blocks=1024)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice", weight=2.0)
    jobs = [plane.submit("alice", n_nodes=2, runtime=120.0) for _ in range(3)]
    tb.sim.run(until=plane.all_done(jobs))

See ``examples/quickstart.py`` for a complete multi-cloud scenario.
"""

import sys
from importlib import import_module
from types import ModuleType


def _exports(package: str, table: dict) -> tuple:
    """Lazy exports (PEP 562): ``__all__``, ``__getattr__`` and
    ``__dir__`` for *package*.

    *table* maps each submodule to the names the package exports from
    it.  A name's submodule is imported the first time the name is
    used, and the value is then cached in the package globals.  Every
    submodule in *table* also resolves as an attribute.  An export
    named after its own submodule stays bound to the export when that
    submodule is imported directly.
    """
    module = sys.modules[package]
    namespace = vars(module)
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name):
        if name in owner:
            value = getattr(import_module(f"{package}.{owner[name]}"), name)
        elif name in table:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys() | table.keys())

    shadowed = owner.keys() & table.keys()
    if shadowed:
        class Package(ModuleType):
            # The import system binds a freshly loaded submodule on its
            # package; keep the export of the same name instead.
            def __setattr__(self, name, value):
                if name in shadowed and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        module.__class__ = Package
    return sorted(owner), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _exports(__name__, {
    "simkernel": ("Interrupt", "Simulator"),
    "network": (
        "BillingMeter", "Connection", "FlowScheduler", "Site", "Topology",
        "gbit_per_s", "mbit_per_s",
    ),
    "hypervisor": (
        "LiveMigrator", "MemoryImage", "MigrationConfig", "PhysicalHost",
        "VirtualMachine",
    ),
    "shrinker": (
        "ClusterMigrationCoordinator", "ContentRegistry", "RegistryDirectory",
        "ShrinkerCodec", "shrinker_codec_factory",
    ),
    "vine": ("MigrationReconfigurator", "ViNeOverlay"),
    "cloud": ("Cloud", "InstancePricing", "SpotMarket", "make_image"),
    "sky": (
        "Balanced", "Federation", "MigratableSpotManager", "SingleCloud",
        "SkyMigrationService",
    ),
    "controlplane": (
        "ControlPlane", "FailureInjector", "FairShareScheduler",
        "HealthMonitor", "Job", "JobQueue", "JobState", "Lease",
        "LeaseManager", "SchedulerConfig", "Tenant",
    ),
    "mapreduce": ("ElasticCluster", "JobTracker", "MapReduceJob"),
    "patterns": ("GroundTruthRecorder", "HypervisorSniffer", "TrafficMatrix"),
    "autonomic": ("AdaptationEngine", "CommunicationAwarePlanner"),
    "emr": ("DeadlineScalePolicy", "ElasticMapReduceService"),
    "framework": ("DynamicInfrastructure",),
    "testbeds": (),
    "metrics": ("MetricsRecorder", "TimeSeries"),
    "obs": (
        "Counter", "Gauge", "Histogram", "Tracer", "critical_path",
        "to_chrome_trace", "tracer_of",
    ),
})
