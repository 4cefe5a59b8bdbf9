"""Static lock-order tests: the shipped tree's acquisition graph is
cycle-free modulo the blessed orderings, the ABBA fixture's cycle is
caught, the JSON artifact is deterministic, and the static graph is a
superset of what the runtime lockdep witness observes."""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.analysis import lockorder
from repro.analysis.common import iter_py_files
from repro.analysis.lockdep import LockdepWitness
from repro.obs.flightrec import FlightRecorder
from repro.sync.latch import LatchMode, SXLatch
from tests.analysis.fixtures import abba_order

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_shipped_tree_has_no_unblessed_cycles(shipped) -> None:
    graph = shipped.order
    assert graph.unblessed_cycles() == []
    assert lockorder.findings_for(graph) == []


def test_shipped_tree_has_the_expected_protocol_edges(shipped) -> None:
    graph = shipped.order
    edges = set(graph.edges)
    # Figure 4 back-up: child held while the parent is latched
    assert ("GiST:node", "GiST:parent") in edges
    # every fix reaches through the buffer-pool mutex
    assert ("GiST:node", "BufferPool:mutex") in edges
    # ... also where the pool takes it as a bare ``with self._mutex:``
    # (``_pin``/``unpin``) instead of through ``_locked()``
    assert ("BufferPool:node", "BufferPool:mutex") in edges
    # and the pool mutex is innermost: no mutex -> latch edge ever
    assert not any(
        src == "BufferPool:mutex" and dst != src for src, dst in edges
    )


def test_blessed_cycles_are_subset_checked(shipped) -> None:
    graph = shipped.order
    # every detected cycle must be covered by a blessed entry...
    for cycle in graph.cycles():
        assert any(
            cycle <= roles for roles, _why in lockorder.BLESSED_CYCLES
        ), sorted(cycle)
    # ...and the split back-up cycle genuinely exists (the blessing is
    # load-bearing, not decorative)
    assert any(
        {"GiST:node", "GiST:parent"} <= c for c in graph.cycles()
    )


def test_abba_fixture_cycle_is_caught_statically() -> None:
    graph = lockorder.analyze([FIXTURES / "lock_cycle.py"])
    bad = graph.unblessed_cycles()
    assert bad and {"Widget:node", "Widget:b_mutex"} in bad
    findings = lockorder.findings_for(graph)
    assert [f.rule for f in findings] == ["lock-order-cycle"]
    assert "Widget:node" in findings[0].message


def test_consistent_order_is_clean(tmp_path: Path) -> None:
    path = tmp_path / "m.py"
    path.write_text(
        "class Widget:\n"
        "    def forward(self):\n"
        "        self.a_latch.acquire(1)\n"
        "        try:\n"
        "            self.b_mutex.acquire()\n"
        "            try:\n"
        "                self.work()\n"
        "            finally:\n"
        "                self.b_mutex.release()\n"
        "        finally:\n"
        "            self.a_latch.release()\n"
    )
    graph = lockorder.analyze([path])
    assert graph.unblessed_cycles() == []
    assert ("Widget:node", "Widget:b_mutex") in graph.edges


def test_loop_carried_partition_locks_are_modeled(shipped) -> None:
    # the scatter loop acquires many partition locks at once; the
    # self-edge must be present (and blessed: ascending index order)
    graph = shipped.order
    edge = ("PartitionedDatabase:_locks", "PartitionedDatabase:_locks")
    assert edge in graph.edges


def test_artifact_shape_and_determinism(tmp_path: Path, shipped) -> None:
    graph = shipped.order
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    lockorder.write_artifact(graph, out1)
    # an independent second analysis: determinism is the subject here
    lockorder.write_artifact(lockorder.analyze(iter_py_files([SRC])), out2)
    assert out1.read_text() == out2.read_text()  # CI-diffable
    data = json.loads(out1.read_text())
    assert set(data) == {
        "nodes",
        "edges",
        "blessed",
        "cycles",
        "unblessed_cycles",
    }
    assert data["unblessed_cycles"] == []
    assert all(
        e["sites"] for e in data["edges"]
    ), "every edge carries sample sites"


def test_static_graph_covers_runtime_witness(monkeypatch, shipped) -> None:
    """The superset cross-check: every (kind -> kind) edge the runtime
    lockdep witness records while the ABBA fixture races must already
    be present in the static graph's kind projection — the static
    prong sees all acquisition sites, the runtime prong only the
    executed interleavings."""
    monkeypatch.setenv("REPRO_PROTOCOL_CHECKS", "1")
    witness = LockdepWitness(FlightRecorder())
    a = SXLatch(name="A", witness=witness)
    b = SXLatch(name="B", witness=witness)
    barrier = threading.Barrier(2)
    threads = [
        threading.Thread(
            target=abba_order.acquire_pair,
            args=(first, second, LatchMode.S),
            kwargs={"between": barrier.wait},
            daemon=True,
        )
        for first, second in ((a, b), (b, a))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    runtime_edges = {
        (src[0], dst[0])
        for src, dsts in witness._edges.items()
        for dst in dsts
    }
    assert runtime_edges  # the race actually recorded something
    static_kinds = shipped.order.kind_projection()
    assert runtime_edges <= static_kinds, (
        runtime_edges - static_kinds
    )
