"""What ``import repro`` pulls in, and plans that must not depend on it.

Each check runs in a fresh interpreter, so modules imported by other
tests in this process cannot mask or fake the result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(code, hash_seed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_repro_leaves_networkx_out():
    out = _python("import sys, repro\n"
                  "print('networkx' in sys.modules)\n")
    assert out.strip() == "False"


def test_import_repro_loads_no_submodule():
    out = _python("import sys, repro\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.startswith('repro.')))\n")
    assert out.strip() == "[]"


def test_subpackages_resolve_after_a_bare_import():
    out = _python("import repro\n"
                  "print(repro.obs.__name__, repro.testbeds.__name__)\n")
    assert out.split() == ["repro.obs", "repro.testbeds"]


def test_building_a_testbed_leaves_the_unused_stacks_out():
    out = _python("import sys\n"
                  "import repro.controlplane, repro.testbeds\n"
                  "print(sorted(m for m in (\n"
                  "    'repro.emr', 'repro.autonomic', 'repro.patterns')\n"
                  "    if m in sys.modules))\n")
    assert out.strip() == "[]"


def test_submodule_imports_keep_same_named_exports_bound():
    """``repro.obs`` exports the function ``critical_path`` from the
    submodule of the same name; importing that submodule first must not
    rebind the name to the module."""
    out = _python("import repro.obs.critical_path\n"
                  "from repro.obs import critical_path\n"
                  "print(type(critical_path).__name__)\n")
    assert out.split() == ["function"]


def test_routes_and_plans_without_networkx():
    """With ``networkx`` unimportable, a testbed still routes across
    sites and the planner still bisects."""
    out = _python(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.autonomic import CommunicationAwarePlanner\n"
        "from repro.patterns import TrafficMatrix\n"
        "from repro.testbeds import sky_testbed\n"
        "tb = sky_testbed(image_blocks=64, memory_pages=64)\n"
        "links = tb.topology.path('rennes', 'chicago')\n"
        "m = TrafficMatrix()\n"
        "for i in range(8):\n"
        "    m.record(f'v{i}', f'v{(i + 1) % 8}', 1e6 * (1 + i % 4))\n"
        "plan = CommunicationAwarePlanner().plan(\n"
        "    [f'v{i}' for i in range(8)], m, {'a': 4, 'b': 4})\n"
        "print(len(links), sorted(plan.values()).count('a'))\n")
    assert out.split() == ["1", "4"]


#: 24 VMs with 120 seeded random pairs on four uneven clouds: the
#: recursive bisection plans a subset smaller than half the graph.
UNEVEN_PLAN = """
import json
import numpy as np
from repro.autonomic import CommunicationAwarePlanner
from repro.patterns import TrafficMatrix

rng = np.random.default_rng(7)
vms = [f"vm{i:02d}" for i in range(24)]
m = TrafficMatrix()
for _ in range(120):
    i, j = rng.choice(24, size=2, replace=False)
    m.record(vms[i], vms[j], float(rng.uniform(1e6, 1e9)))
clouds = {"a": 14, "b": 3, "c": 3, "d": 4}
print(json.dumps([
    CommunicationAwarePlanner(refine_passes=passes).plan(vms, m, clouds)
    for passes in (None, 0)
], sort_keys=True))
"""


def test_plan_does_not_depend_on_string_hashing():
    plans = [json.loads(_python(UNEVEN_PLAN, hash_seed=s))
             for s in range(4)]
    assert all(p == plans[0] for p in plans[1:])
