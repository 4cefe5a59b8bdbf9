"""The lock manager's no-wait paths against a dict model.

Three owners and five names in S and X: every ``acquire(..., wait=False)``,
``release``, ``release_all`` and batched ``try_acquire_many`` must grant
exactly what the model grants, and the manager's views (``holders``,
``held_mode``, ``locks_of``, the acquisition counter) must match it.  Once
every owner has released, the lock table holds no heads at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lock.manager import LockManager
from repro.lock.modes import LockMode

S, X = LockMode.S, LockMode.X
OWNERS = (1, 2, 3)
NAMES = ("a", "b", "c", "d", "e")

owners = st.sampled_from(OWNERS)
names = st.sampled_from(NAMES)
modes = st.sampled_from([S, X])

# a script is a list of (action, owner, name, mode, batch of names)
actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"), owners, names, modes, st.just(())
        ),
        st.tuples(st.just("release"), owners, names, modes, st.just(())),
        st.tuples(
            st.just("release_all"), owners, names, modes, st.just(())
        ),
        st.tuples(
            st.just("many"),
            owners,
            names,
            modes,
            st.lists(names, max_size=6).map(tuple),
        ),
    ),
    max_size=60,
)


class Model:
    """``{(owner, name): [mode, count]}`` with the no-wait grant rule
    for S and X: a covering hold re-enters, a sole holder converts, and
    a fresh request needs every holder compatible (only S with S)."""

    def __init__(self) -> None:
        self.held: dict = {}
        self.acquires = 0

    def holders(self, name) -> dict:
        return {o: h[0] for (o, n), h in self.held.items() if n == name}

    def acquire(self, owner, name, mode) -> bool:
        self.acquires += 1
        others = {o: m for o, m in self.holders(name).items() if o != owner}
        mine = self.held.get((owner, name))
        if mine is not None:
            if mine[0] is X or mode is S:
                mine[1] += 1
                return True
            if others:
                return False
            mine[0], mine[1] = X, mine[1] + 1
            return True
        if any(m is X for m in others.values()) or (mode is X and others):
            return False
        self.held[owner, name] = [mode, 1]
        return True

    def release(self, owner, name) -> None:
        mine = self.held.get((owner, name))
        if mine is None:
            return
        mine[1] -= 1
        if mine[1] == 0:
            del self.held[owner, name]

    def release_all(self, owner) -> None:
        for key in [k for k in self.held if k[0] == owner]:
            del self.held[key]

    def many(self, owner, batch) -> int:
        for granted, name in enumerate(batch):
            if not self.acquire(owner, name, S):
                return granted
        return len(batch)


def assert_matches(lm: LockManager, model: Model) -> None:
    for name in NAMES:
        assert lm.holders(name) == model.holders(name)
        for owner in OWNERS:
            mine = model.held.get((owner, name))
            assert lm.held_mode(owner, name) == (mine and mine[0])
    for owner in OWNERS:
        assert lm.locks_of(owner) == {
            n for (o, n) in model.held if o == owner
        }
    assert lm.stats.acquires == model.acquires


class TestAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(actions)
    def test_no_wait_paths_match_dict_model(self, script):
        lm, model = LockManager(default_timeout=0.2), Model()
        for kind, owner, name, mode, batch in script:
            if kind == "acquire":
                assert lm.acquire(owner, name, mode, wait=False) == (
                    model.acquire(owner, name, mode)
                )
            elif kind == "release":
                lm.release(owner, name)
                model.release(owner, name)
            elif kind == "release_all":
                lm.release_all(owner)
                model.release_all(owner)
            else:
                assert lm.try_acquire_many(owner, list(batch), S) == (
                    model.many(owner, batch)
                )
            assert_matches(lm, model)
        for owner in OWNERS:
            lm.release_all(owner)
        assert lm._heads == {}
        assert lm.stats.waits == 0
