"""Committed benchmark records: every speed or memory claim cites a root
``BENCH_*.json`` that holds, for each workload and end-to-end metric that
``BENCHMARK.json`` names, the parent's and the change's medians with units."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_record_is_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_holds_both_medians_of_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for workload in BENCHMARK["workloads"]:
        metrics = record["workloads"][workload["name"]]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            entry = metrics[metric["name"]]
            assert entry["unit"] == metric["unit"], (workload["name"], metric["name"])
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median), (
                    workload["name"], metric["name"], side
                )
