"""Unit tests for the deterministic interleaving hooks."""

import threading

from repro.sync.hooks import (
    CountingGate,
    EventLog,
    FiringCounter,
    Gate,
    Hooks,
    PredicateGate,
)


class TestHooks:
    def test_fire_without_callbacks_is_noop(self):
        hooks = Hooks()
        hooks.fire("nothing", x=1)  # no error

    def test_callbacks_receive_context(self):
        hooks = Hooks()
        got = []
        hooks.on("p", lambda **ctx: got.append(ctx))
        hooks.fire("p", pid=7, is_leaf=True)
        assert got == [{"pid": 7, "is_leaf": True}]

    def test_remove_and_clear(self):
        hooks = Hooks()
        got = []

        def fn(**ctx):
            got.append(1)

        hooks.on("p", fn)
        hooks.remove("p", fn)
        hooks.fire("p")
        hooks.on("p", fn)
        hooks.clear()
        hooks.fire("p")
        assert got == []

    def test_multiple_callbacks_in_order(self):
        hooks = Hooks()
        got = []
        hooks.on("p", lambda **ctx: got.append("a"))
        hooks.on("p", lambda **ctx: got.append("b"))
        hooks.fire("p")
        assert got == ["a", "b"]


class TestGate:
    def test_gate_blocks_until_opened(self):
        gate = Gate()
        passed = threading.Event()

        def victim():
            gate.block()
            passed.set()

        t = threading.Thread(target=victim)
        t.start()
        assert gate.wait_blocked(2.0)
        assert not passed.is_set()
        gate.open()
        assert passed.wait(2.0)
        t.join()

    def test_counting_gate_triggers_on_nth(self):
        gate = CountingGate(trigger_on=3)
        passed = []

        def worker():
            for _ in range(2):
                gate.block()
            passed.append(True)

        t = threading.Thread(target=worker)
        t.start()
        t.join(2.0)
        assert passed == [True]  # first two firings pass through
        blocker = threading.Thread(target=gate.block)
        blocker.start()
        assert gate.wait_blocked(2.0)
        gate.open()
        blocker.join()

    def test_predicate_gate_filters_by_context(self):
        gate = PredicateGate(lambda pid=None, **_: pid == 42)
        gate.block(pid=1)  # passes through instantly
        t = threading.Thread(target=gate.block, kwargs={"pid": 42})
        t.start()
        assert gate.wait_blocked(2.0)
        gate.open()
        t.join()


class TestEventLogAndCounter:
    def test_event_log_records(self):
        hooks = Hooks()
        log = EventLog()
        log.attach(hooks, "a", "b")
        hooks.fire("a", x=1)
        hooks.fire("b")
        hooks.fire("a", x=2)
        assert log.points() == ["a", "b", "a"]
        assert log.count("a") == 2
        assert log.events[0] == ("a", {"x": 1})

    def test_firing_counter_groups_by_key(self):
        counter = FiringCounter(key="pid")
        counter(pid=1)
        counter(pid=1)
        counter(pid=2)
        assert counter.total == 3
        assert counter.by_key() == {1: 2, 2: 1}


class TestHookTable:
    def test_fired_points_are_the_documented_points(self):
        """The module docstring's table lists exactly the points the
        library fires (crash harnesses and the schedule explorer
        enumerate that table)."""
        import ast
        import re
        from pathlib import Path

        import repro
        import repro.sync.hooks as hooks_module

        documented = set(
            re.findall(r"^``([a-z_-]+:[a-z_-]+)``", hooks_module.__doc__, re.M)
        )
        fired = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fire"
                    and "hooks" in ast.unparse(node.func.value)
                ):
                    point = node.args[0]
                    assert isinstance(point, ast.Constant), (
                        f"{path}:{node.lineno}: hook point is not a literal"
                    )
                    fired.add(point.value)
        assert fired - documented == set(), "fired but not documented"
        assert documented - fired == set(), "documented but never fired"
