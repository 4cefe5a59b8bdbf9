"""All five workloads end to end at 1/50 size, and the exact counts."""

import json

import pytest

import cli as bench
from layers import EXACT_COUNTS
from workloads import SPECS


@pytest.mark.parametrize("name", list(SPECS))
def test_smoke_run_fails_no_op(name, capsys):
    assert bench.main(["--workload", name, "--smoke", "--seed", "4"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench.declared()["end_to_end"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_smoke_run_repeats_its_counts_exactly():
    first, second = (
        bench.run_workload("iobound_btree", 4, 12, True, bench.SMOKE_SCALE)
        for _ in range(2)
    )
    assert first["failed"] == second["failed"] == 0
    declared = [m["name"] for m in bench.declared()["per_layer"]]
    assert list(first["metrics"]) == declared
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["gist.fixes_per_get"]["value"] > 0
    assert 0 < first["metrics"]["trace.overhead_ratio"]["value"] < 2
