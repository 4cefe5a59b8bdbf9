"""Property-based tests of the signaling-lock table against a dict model."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lock.signaling import SignalingLocks

XIDS = range(1, 5)
NAMES = [("node", "t", pid) for pid in range(6)]

xids = st.sampled_from(list(XIDS))
names = st.sampled_from(NAMES)

# a script is a list of (action, xid, name, other name)
actions = st.lists(
    st.one_of(
        st.tuples(st.just("take"), xids, names, names),
        st.tuples(st.just("drop"), xids, names, names),
        st.tuples(st.just("replicate"), xids, names, names),
        st.tuples(st.just("release"), xids, names, names),
    ),
    max_size=60,
)


def apply_model(model: dict, kind: str, xid: int, name, other) -> None:
    """The same action on ``{(xid, name): count}``."""
    if kind == "take":
        model[xid, name] = model.get((xid, name), 0) + 1
    elif kind == "drop":
        if model.get((xid, name), 0) > 0:
            model[xid, name] -= 1
    elif kind == "replicate":
        for (holder, held), count in list(model.items()):
            if held == name and count:
                model[holder, other] = model.get((holder, other), 0) + count
    else:
        for key in [k for k in model if k[0] == xid]:
            del model[key]


class TestAgainstModel:
    @settings(max_examples=150, deadline=None)
    @given(actions)
    def test_table_matches_dict_model(self, script):
        table, model = SignalingLocks(), {}
        for kind, xid, name, other in script:
            if kind == "take":
                table.take(xid, name)
            elif kind == "drop":
                table.drop(xid, name)
            elif kind == "replicate":
                table.replicate(name, other)
            else:
                table.release(xid)
                assert table.names_of(xid) == set()
                assert all(xid not in table.holders(n) for n in NAMES)
            apply_model(model, kind, xid, name, other)
            for n in NAMES:
                counts = table.holders(n)
                assert all(c > 0 for c in counts.values())
                assert counts == {
                    x: model[x, n] for x in XIDS if model.get((x, n), 0)
                }
                for x in XIDS:
                    assert table.held_by_others(x, n) == any(
                        model.get((o, n), 0) for o in XIDS if o != x
                    )
            for x in XIDS:
                assert table.names_of(x) == {
                    n for n in NAMES if model.get((x, n), 0)
                }
            assert len(table) == len(
                {n for (_, n), c in model.items() if c}
            )


def test_concurrent_take_drop_ends_empty():
    table = SignalingLocks()
    start = threading.Barrier(4)

    def worker(xid: int) -> None:
        start.wait()
        for i in range(2000):
            name = NAMES[i % 3]
            table.take(xid, name)
            table.take(xid, name)
            table.drop(xid, name)
            table.drop(xid, name)

    threads = [threading.Thread(target=worker, args=(x,)) for x in XIDS]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(table) == 0
    assert table.takes == 4 * 2000 * 2
    assert all(table.names_of(x) == set() for x in XIDS)
