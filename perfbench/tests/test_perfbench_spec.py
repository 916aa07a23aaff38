"""BENCHMARK.json is generated from spec.py and keeps to its schema."""

import json
import os
import re

import spec
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_spec():
    assert load() == spec.benchmark_json()


def test_schema():
    b = load()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                      "per_layer"}
    assert 1 <= b["run_seconds"] <= 60 and isinstance(b["run_seconds"], int)
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16 and 1 <= len(b["per_layer"]) <= 128
    names = [w["name"] for w in b["workloads"]]
    names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_every_bucket_is_a_metric():
    assert set(tracing.partition_metrics()) <= set(spec.LAYER_METRICS)
