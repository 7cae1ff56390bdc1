"""What a control-plane run keeps resident, checked by structure.

Smoke-size ``controlplane_1000`` and ``spot_churn_500`` runs (from
``benchmarks/e2e/scenarios.py``) must leave every plane VM's memory
image without arrays (nothing in a plane run writes or reads guest
pages), every span without events or links without a list, and every
event-log record without a ``__dict__``.  These are the allocations
that peak RSS of those workloads is made of; a structural check holds
on any host, where an RSS number would not.  A plane run must also
start no process beyond a runner per job and a batch per cloud of its
grant.  A released lease must keep none of its VMs reachable, and a
Shrinker content registry must rebuild its index only as often as the
index doubles in size, not once per query.
"""

import gc
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

from repro.controlplane import StateEvent, eventlog_of
from repro.hypervisor import MemoryImage, VirtualMachine
from repro.shrinker import ContentRegistry
from repro.simkernel import Process, Simulator

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios", ROOT / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)


@pytest.fixture
def images(monkeypatch):
    """Every :class:`MemoryImage` constructed while the test runs."""
    made = []
    init = MemoryImage.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(MemoryImage, "__init__", recording_init)
    return made


@pytest.mark.parametrize("name", ["controlplane_1000", "spot_churn_500"])
def test_plane_run_keeps_no_guest_page_arrays(name, images):
    scenario = scenarios.SCENARIOS[name](0, smoke=True)
    scenario.run()
    assert scenario.completed() == scenario.n_jobs
    assert len(images) >= scenario.n_jobs
    materialized = [m for m in images
                    if m._pages is not None or m._dirty is not None]
    assert materialized == []


def test_spot_plane_spans_and_events_are_lean():
    scenario = scenarios.SpotChurn500(0, smoke=True)
    scenario.run()
    spans = scenario.tracer.spans
    assert any(span.events for span in spans)
    for span in spans:
        assert isinstance(span.events, list) == bool(span.events)
        assert isinstance(span.links, list) == bool(span.links)
    events = list(eventlog_of(scenario.tb.sim))
    assert events
    assert all(type(e) is StateEvent for e in events)
    assert not any(hasattr(e, "__dict__") for e in events)


def test_plane_run_starts_one_process_per_job_and_per_cloud_batch(
        monkeypatch):
    """A lease provisions inside its job's runner: the only processes a
    plane run starts are one runner per dispatch and one provisioning
    batch per cloud of its grant (no cluster-creation or deploy
    process)."""
    scenario = scenarios.ControlPlane1000(0, smoke=True)
    started = []
    init = Process.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self.name)

    monkeypatch.setattr(Process, "__init__", recording_init)
    scenario.run()
    assert scenario.completed() == scenario.n_jobs
    grants = [e.detail["allocation"] for e in eventlog_of(scenario.tb.sim)
              if e.kind == "job" and e.cause == "dispatch"]
    runners = [n for n in started if n.startswith("run-")]
    batches = [n for n in started if n.startswith("provision-")]
    assert len(runners) == len(grants) == scenario.n_jobs
    assert len(batches) == sum(len(a) for a in grants)
    assert len(started) == len(runners) + len(batches)


def _reachable_vms(roots):
    """The VMs reachable from ``roots`` without passing through the
    simulator (which holds every live object), a class or a module."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (Simulator, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, VirtualMachine):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("name", ["controlplane_1000", "spot_churn_500"])
def test_released_lease_keeps_no_vm_alive(name):
    """Teardown empties a lease's cluster, master included, so the
    terminated VMs (with their memory, disk and address) can be freed."""
    scenario = scenarios.SCENARIOS[name](0, smoke=True)
    scenario.run()
    released = [lease for lease in scenario.plane.leases.leases
                if not lease.active]
    assert len(released) >= scenario.n_jobs
    assert _reachable_vms(released) == []


def _index_merges(n_batches, size=512):
    """Full-index merges of a registry fed ``n_batches`` query-then-add
    batches of new content, the way a migrating VM feeds it."""
    registry = ContentRegistry("dst")
    merges = 0
    consolidate = registry._consolidate

    def counting():
        nonlocal merges
        before = registry._known
        consolidate()
        merges += registry._known is not before

    registry._consolidate = counting
    rng = np.random.default_rng(0)
    for _ in range(n_batches):
        batch = rng.integers(0, 2**63, size, dtype=np.uint64)
        registry.add(batch[~registry.contains(batch)])
    assert len(registry) == n_batches * size
    return merges


def test_registry_index_merges_grow_logarithmically():
    """The recent run merges into the index only once it outgrows half
    the index, so 4x the batches add a constant number of merges
    (log_1.5 4 < 4), not 4x as many."""
    few, many = _index_merges(50), _index_merges(200)
    assert few >= 1
    assert many <= few + 4
