"""BENCHMARK.json, ``run.py --list`` and ``spec.py`` must say the same thing,
within the limits the benchmark driver enforces.  No timing, no numpy."""

import json
import os
import re

from perflab import run, spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_is_generated_from_spec():
    assert _manifest() == spec.manifest()


def test_manifest_shape_and_limits():
    manifest = _manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["perflab"]
    assert manifest["command"][1].startswith("perflab/")
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]
    assert len(json.dumps(manifest)) < 64 * 1024


def test_every_end_to_end_metric_is_defined_on_every_workload():
    assert list(run.WORKLOAD_CLASSES) == list(spec.WORKLOADS)
    for metric in spec.END_TO_END:
        assert set(metric.meaning) == set(spec.WORKLOADS), metric.name


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        assert metric.workload in spec.WORKLOADS, metric.name
        assert metric.target_workload in spec.WORKLOADS, metric.name
        assert metric.moves in end_to_end, metric.name
    for metric in spec.EVERY_WORKLOAD:
        assert metric.workload == "*" and metric.moves in end_to_end


def test_list_prints_the_spec(capsys):
    assert run.main(["--list"]) == 0
    printed = capsys.readouterr().out
    assert printed.strip() == spec.listing()
    manifest = _manifest()
    for entry in manifest["workloads"] + manifest["end_to_end"] + manifest["per_layer"]:
        assert re.search(rf"^\s+{re.escape(entry['name'])}[ :]", printed, re.M), entry["name"]
