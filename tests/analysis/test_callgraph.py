"""Call-graph builder tests: name resolution, method dispatch by
receiver type, SCC order, and the type-state summaries built on top
(ownership transfer, borrow/consume param effects)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import callgraph as cg
from repro.analysis.typestate import check_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _build(tmp_path: Path, name: str, source: str) -> cg.CallGraph:
    path = tmp_path / name
    path.write_text(source)
    return cg.build([path])


def _callees(graph: cg.CallGraph, caller_suffix: str) -> set:
    for qname, sites in graph.edges.items():
        if qname.endswith(caller_suffix):
            return {site.callee for site in sites}
    return set()


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------


def test_module_function_call_resolves(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "def helper():\n    pass\n\ndef caller():\n    helper()\n",
    )
    assert _callees(graph, "m.caller") == {"m.helper"}


def test_self_method_dispatch(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "class A:\n"
        "    def f(self):\n"
        "        self.g()\n"
        "    def g(self):\n"
        "        pass\n",
    )
    assert _callees(graph, "m.A.f") == {"m.A.g"}


def test_inherited_method_dispatch(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "class Base:\n"
        "    def g(self):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    def f(self):\n"
        "        self.g()\n",
    )
    assert _callees(graph, "m.Child.f") == {"m.Base.g"}


def test_override_wins_over_base(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "class Base:\n"
        "    def g(self):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    def g(self):\n"
        "        pass\n"
        "    def f(self):\n"
        "        self.g()\n",
    )
    assert _callees(graph, "m.Child.f") == {"m.Child.g"}


def test_attr_receiver_dispatch_by_constructor_type(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "class Pool:\n"
        "    def unfix(self, frame):\n"
        "        pass\n"
        "class Tree:\n"
        "    def __init__(self):\n"
        "        self.pool = Pool()\n"
        "    def f(self, frame):\n"
        "        self.pool.unfix(frame)\n",
    )
    assert _callees(graph, "m.Tree.f") == {"m.Pool.unfix"}


def test_sccs_are_callee_first(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "def a():\n    b()\n"
        "def b():\n    c()\n"
        "def c():\n    pass\n",
    )
    order = [q for comp in graph.sccs() for q in comp]
    assert order.index("m.c") < order.index("m.b") < order.index("m.a")


def test_mutual_recursion_is_one_scc(tmp_path: Path) -> None:
    graph = _build(
        tmp_path,
        "m.py",
        "def a(n):\n    return b(n - 1)\n"
        "def b(n):\n    return a(n - 1)\n",
    )
    comps = [set(c) for c in graph.sccs() if len(c) > 1]
    assert {"m.a", "m.b"} in comps


def test_shipped_tree_resolves_crabbing_helpers() -> None:
    # the edges the interprocedural latch pass depends on: the GiST
    # descent must see its ownership-transferring helpers
    from repro.analysis.common import iter_py_files

    graph = cg.build(iter_py_files([SRC]))
    callees = _callees(graph, "repro.gist.tree.GiST._locate_leaf")
    assert "repro.gist.tree.GiST._choose_in_chain" in callees
    # unresolved calls are mostly stdlib/builtins; a four-digit count
    # of resolved in-tree edges is the health floor
    assert graph.resolved > 1000


# ----------------------------------------------------------------------
# summaries (type-state layer over the call graph)
# ----------------------------------------------------------------------


def _summaries(tmp_path: Path, source: str):
    path = tmp_path / "m.py"
    path.write_text(source)
    findings, engine = check_paths([path])
    return findings, engine


def test_ownership_transfer_summary(tmp_path: Path) -> None:
    findings, engine = _summaries(
        tmp_path,
        "class T:\n"
        "    def descend(self, pid):\n"
        "        frame = self.pool.fix(pid)\n"
        "        return frame\n",
    )
    summ = engine.summaries["m.T.descend"]
    assert summ.returns_held == "yes"
    assert findings == []  # transfer-to-caller is not a leak


def test_consume_param_summary(tmp_path: Path) -> None:
    _findings, engine = _summaries(
        tmp_path,
        "class T:\n"
        "    def cleanup(self, frame):\n"
        "        self.pool.unfix(frame)\n",
    )
    summ = engine.summaries["m.T.cleanup"]
    assert summ.param_effects.get("frame") == "consume"


def test_borrow_param_summary(tmp_path: Path) -> None:
    _findings, engine = _summaries(
        tmp_path,
        "class T:\n"
        "    def peek(self, frame):\n"
        "        value = frame.page\n"
        "        return value\n",
    )
    summ = engine.summaries["m.T.peek"]
    assert summ.param_effects.get("frame", "borrow") == "borrow"


def test_balanced_function_summary(tmp_path: Path) -> None:
    findings, engine = _summaries(
        tmp_path,
        "class T:\n"
        "    def probe(self, pid):\n"
        "        frame = self.pool.fix(pid)\n"
        "        value = frame.page.value\n"
        "        self.pool.unfix(frame)\n"
        "        return value\n",
    )
    assert findings == []
    assert engine.summaries["m.T.probe"].returns_held == "no"


def test_leak_through_helper_is_interprocedural(tmp_path: Path) -> None:
    findings, _engine = _summaries(
        tmp_path,
        "class T:\n"
        "    def descend(self, pid):\n"
        "        frame = self.pool.fix(pid)\n"
        "        return frame\n"
        "    def lookup(self, pid):\n"
        "        frame = self.descend(pid)\n"
        "        value = frame.page.value\n"
        "        return value\n",
    )
    assert [f.rule for f in findings] == ["latch-release"]
    # the finding lands in the caller that dropped the frame, not in
    # the helper that legitimately transferred it
    assert findings[0].line >= 6
