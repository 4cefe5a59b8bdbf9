"""History-recorded scenario runner."""

import pytest

from repro.workload.generator import MixSpec, Op
from repro.workload.scenario import (
    main,
    parse_mix,
    partition_by_rid,
    run_scenario,
)


class TestPartitioning:
    def test_writes_of_one_rid_share_a_worker_in_order(self):
        ops = [
            Op("insert", key=1, rid="r1"),
            Op("insert", key=2, rid="r2"),
            Op("search", query=object()),
            Op("delete", key=1, rid="r1"),
            Op("delete", key=2, rid="r2"),
        ]
        buckets = partition_by_rid(ops, 2)
        for bucket in buckets:
            for rid in ("r1", "r2"):
                writes = [op.kind for op in bucket if op.rid == rid]
                assert writes in ([], ["insert", "delete"])

    def test_partitioning_is_process_independent(self):
        # bucket choice must not depend on hash randomization
        ops = [Op("insert", key=i, rid=f"r{i}") for i in range(8)]
        buckets = partition_by_rid(ops, 3)
        assert [
            [op.rid for op in bucket] for bucket in buckets
        ] == [
            ["r0", "r3", "r6"],
            ["r1", "r4", "r7"],
            ["r2", "r5"],
        ]

    def test_batch_deletes_follow_their_multi_put(self):
        ops = [
            Op("multi_put", pairs=((5, "r1"), (6, "r2"), (7, "r3"))),
            Op("delete", key=6, rid="r2"),
            Op("delete", key=7, rid="r3"),
            Op("delete", key=9, rid="r4"),
        ]
        buckets = partition_by_rid(ops, 3)
        assert [op.rid for op in buckets[1]] == [None, "r2", "r3", "r4"]

    def test_searches_round_robin(self):
        ops = [Op("search", query=i) for i in range(4)]
        buckets = partition_by_rid(ops, 2)
        assert [op.query for op in buckets[0]] == [0, 2]
        assert [op.query for op in buckets[1]] == [1, 3]


class TestRunScenario:
    def test_single_threaded_run_passes(self):
        result = run_scenario(seed=1, ops=60, threads=1, preload=10)
        assert result.ok
        assert result.dropped == 0
        assert result.ops_run == len(result.history) == 70
        assert result.linearizability.elements > 0

    def test_concurrent_run_passes(self):
        result = run_scenario(seed=2, ops=120, threads=4, preload=16)
        assert result.ok, (
            result.errors
            + result.linearizability.violations
            + result.read_committed.violations
        )

    def test_op_tracing_knob(self):
        result = run_scenario(
            seed=3, ops=40, threads=2, preload=8, op_tracing=True
        )
        assert result.ok
        assert result.db.spans is not None
        kinds = {
            e.data["kind"]
            for e in result.db.flightrec.events()
            if e.name.startswith("op.")
        }
        assert "commit" in kinds

    def test_history_reaches_the_oracle_with_intervals(self):
        result = run_scenario(seed=4, ops=30, threads=1, preload=4)
        for op in result.history.ops():
            assert op.inv_ns < op.resp_ns


class TestMix:
    def test_parse_mix_zeroes_the_kinds_left_out(self):
        assert parse_mix("insert=.4,search=.3,delete=.1,multi_put=.2") == (
            MixSpec(insert=0.4, search=0.3, delete=0.1, multi_put=0.2)
        )
        assert parse_mix("search=1") == MixSpec(insert=0.0, search=1.0)

    @pytest.mark.parametrize(
        "text", ["insert=.5,search=.4", "insert=.5,multi_delete=.5", "scan=1"]
    )
    def test_parse_mix_rejects(self, text):
        with pytest.raises(ValueError):
            parse_mix(text)

    def test_batched_mix_passes_the_oracle(self):
        result = run_scenario(
            seed=5,
            ops=120,
            threads=3,
            preload=16,
            mix=parse_mix("insert=.3,search=.3,delete=.1,multi_put=.2,multi_get=.1"),
        )
        assert result.ok, (
            result.errors
            + result.linearizability.violations
            + result.read_committed.violations
        )
        kinds = {op.kind for op in result.history.ops()}
        assert kinds == {"insert", "search", "delete"}
        assert result.ops_run > 120  # a multi_put records one insert per pair


class TestCli:
    def test_main_ok(self, capsys):
        rc = main(["--ops", "40", "--threads", "2", "--seed", "6",
                   "--preload", "8", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "linearizability: PASS" in out
        assert "read-committed: PASS" in out

    def test_main_exports_history(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        rc = main(["--ops", "20", "--threads", "1", "--seed", "6",
                   "--preload", "4", "--export", path])
        assert rc == 0
        from repro.obs.export import load_jsonl

        assert len(load_jsonl(path)) == 24
