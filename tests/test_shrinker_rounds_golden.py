"""Golden per-round encoding sequence of a smoke Shrinker migration.

``golden/shrinker_smoke_rounds.json`` holds, for every VM of the smoke
``ShrinkerWan`` scenario at seed 0 (``benchmarks/e2e/scenarios.py``:
4 web-server VMs with memory and disk migrated over a 1 Gbit/s WAN), each
codec batch as ``[pages, full_pages, digest_pages, wire_bytes]``:

* ``rounds`` — the memory rounds (pre-copy rounds, then stop-and-copy);
* ``disk`` — the disk encodings (storage pre-copy, then the blocks
  written during the migration).

These are the dedup decisions themselves, so a change to the registry or
the codec that shifts which content counts as known shows up here as a
diff, even where the scenario's four pinned totals would not move.
Regenerate it only for an intended change to Shrinker's protocol::

    PYTHONPATH=src python -m tests.test_shrinker_rounds_golden
"""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios",
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)

GOLDEN = (Path(__file__).resolve().parent / "golden"
          / "shrinker_smoke_rounds.json")


def _row(enc):
    return [enc.pages, enc.full_pages, enc.digest_pages, enc.wire_bytes]


def smoke_rounds():
    """Run the smoke ShrinkerWan at seed 0; return its encodings per VM."""
    scenario = scenarios.ShrinkerWan(0, smoke=True)
    migrator = scenario.coordinator.migrator
    make_codec = migrator.codec_factory
    encodings = {}

    def recording_factory(vm, dst_site):
        codec = make_codec(vm, dst_site)
        encode = codec.encode
        log = encodings.setdefault(vm.name, [])

        def logged(fingerprints):
            enc = encode(fingerprints)
            log.append(enc)
            return enc

        codec.encode = logged
        return codec

    migrator.codec_factory = recording_factory
    scenario.run()
    vms = {}
    for stats in scenario.stats.per_vm:
        rounds = stats.round_log
        # Every codec call that is not a memory round encoded disk blocks.
        disk = [enc for enc in encodings[stats.vm_name]
                if not any(enc is r for r in rounds)]
        vms[stats.vm_name] = {"rounds": [_row(enc) for enc in rounds],
                              "disk": [_row(enc) for enc in disk]}
    return {"outputs": scenario.outputs(), "vms": vms}


def test_smoke_rounds_match_golden_sequence():
    got = json.loads(json.dumps(smoke_rounds()))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got["vms"]) == sorted(want["vms"])
    for name, vm in want["vms"].items():
        assert got["vms"][name]["disk"] == vm["disk"], f"{name} disk"
        assert len(got["vms"][name]["rounds"]) == len(vm["rounds"]), name
        for i, (g, w) in enumerate(zip(got["vms"][name]["rounds"],
                                       vm["rounds"])):
            assert g == w, f"{name} round {i} differs"
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = smoke_rounds()
    lines = []
    for name, vm in doc["vms"].items():
        rows = ",\n     ".join(json.dumps(r) for r in vm["rounds"])
        disk = json.dumps(vm["disk"])
        lines.append(f'  {json.dumps(name)}: {{"disk": {disk},\n'
                     f'    "rounds": [\n     {rows}]}}')
    body = ",\n".join(lines)
    GOLDEN.write_text(f'{{"outputs": {json.dumps(doc["outputs"])},\n'
                      f' "vms": {{\n{body}}}}}\n', encoding="utf-8")
    print(f"wrote {GOLDEN}")
