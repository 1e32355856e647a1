"""Resources reach JSON only as strings.

Ports and virtual channels are tuples, so ``json.dumps`` would quietly
write a stray one as an array instead of raising ``TypeError``.  These
tests serialise every JSON image a run produces -- a cross-checked
portfolio report, its verdict-store records (compared with the report
after they were read back) and a ``repro fuzz`` report -- and check
that no resource is left in them and that every cycle-core and
escape-edge entry is a ``"<...> -> <...>"`` string.
"""

import json
import os
import re

from repro.core.fuzz import run_fuzz_campaign
from repro.core.portfolio import run_portfolio, scenarios_from_specs
from repro.core.spec import expand_matrix
from repro.network.vc import is_resource

#: Prone port-level routings (mesh and ring, the ring also with one fault)
#: and VC scenarios, prone at 1 VC and repaired at 2, so both cores and
#: escape edges hold ports and channels.
MATRIX = ("mesh:3x3, routing=[adaptive]; ring:4, routing=[clockwise]; "
          "vc-mesh:3x3, vcs=[1,2]; vc-ring:4, vcs=[1]; "
          "ring:6, routing=[clockwise], faults=1, seed=0")

RESOURCE = r"<-?\d+,-?\d+,[EWNSL],(?:IN|OUT)>(?:#\d+)?"
EDGE = re.compile(rf"{RESOURCE} -> {RESOURCE}")


def assert_no_resources(value, path="$"):
    """Fail on any port or channel anywhere inside a JSON-bound value."""
    assert not is_resource(value), f"resource at {path}: {value!r}"
    if isinstance(value, dict):
        for key, item in value.items():
            assert not is_resource(key), f"resource key at {path}: {key!r}"
            assert_no_resources(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for position, item in enumerate(value):
            assert_no_resources(item, f"{path}[{position}]")


def assert_json_exact(payload):
    """The payload survives a JSON round trip unchanged (no tuple in it)."""
    assert_no_resources(payload)
    assert json.loads(json.dumps(payload)) == payload


def formatted_edges(verdict_images):
    """Every cycle-core / escape-edge entry, each checked to be a string."""
    entries = []
    for image in verdict_images:
        for key in ("cycle_core", "escape_edges"):
            for entry in image[key]:
                assert isinstance(entry, str), (image["scenario"], key, entry)
                assert EDGE.fullmatch(entry), (image["scenario"], key, entry)
                entries.append((key, entry))
    return entries


def store_records(root):
    records = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root,
                                                              "objects")):
        for name in sorted(filenames):
            if name.endswith(".json") and not name.startswith(".tmp-"):
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as handle:
                    records.append(json.load(handle))
    return records


def test_cross_checked_portfolio_and_store_records(tmp_path):
    scenarios = scenarios_from_specs(expand_matrix(MATRIX))
    store = str(tmp_path / "store")
    report = run_portfolio(scenarios, jobs=2, cross_check=True, store=store)
    assert all(verdict.status == "ok" for verdict in report.verdicts)

    payload = report.to_json_dict()
    assert_json_exact(payload)
    assert_json_exact(report.comparable_dict())
    entries = formatted_edges(payload["scenarios"])
    # Not vacuous: cores and escape edges of ports and of channels.
    for key in ("cycle_core", "escape_edges"):
        assert any("#" in entry for kind, entry in entries if kind == key)
        assert any("#" not in entry for kind, entry in entries if kind == key)

    records = store_records(store)
    assert len(records) == report.store_stats["writes"] > 0
    by_scenario = {image["scenario"]: image for image in payload["scenarios"]}
    stored = 0
    for record in records:
        formatted_edges(record["verdicts"])
        for image in record["verdicts"]:
            image = {key: value for key, value in image.items()
                     if key != "index"}
            assert image == by_scenario[image["scenario"]]
            stored += 1
    assert stored == len(scenarios)


def test_fuzz_report():
    report = run_fuzz_campaign(count=6, max_size=(3, 3))
    assert report.ok
    assert_json_exact(report.to_json_dict())
