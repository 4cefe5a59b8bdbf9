"""Unit tests for the predicate manager (section 10.3)."""

from repro.ext.btree import BTreeExtension, Interval
from repro.predicate.manager import PredicateKind, PredicateManager


def make_pm() -> PredicateManager:
    return PredicateManager(BTreeExtension().consistent)


class TestRegistrationAndAttachment:
    def test_register_tracks_per_transaction(self):
        pm = make_pm()
        p1 = pm.register(1, Interval(0, 10), PredicateKind.SEARCH)
        p2 = pm.register(1, Interval(20, 30), PredicateKind.SEARCH)
        pm.register(2, Interval(5, 6), PredicateKind.INSERT)
        assert pm.predicates_of(1) == [p1, p2]
        assert pm.total_predicates() == 3

    def test_attach_is_idempotent(self):
        pm = make_pm()
        plock = pm.register(1, Interval(0, 10), PredicateKind.SEARCH)
        pm.attach(plock, 5)
        pm.attach(plock, 5)
        assert len(pm.predicates_on(5)) == 1
        assert plock.attachments == {5}

    def test_unregister_removes_everywhere(self):
        pm = make_pm()
        plock = pm.register(1, Interval(0, 10), PredicateKind.INSERT)
        pm.attach(plock, 5)
        pm.attach(plock, 6)
        pm.unregister(plock)
        assert pm.predicates_on(5) == [] and pm.predicates_on(6) == []
        assert pm.predicates_of(1) == []

    def test_release_transaction(self):
        pm = make_pm()
        p1 = pm.register(1, Interval(0, 10), PredicateKind.SEARCH)
        p2 = pm.register(2, Interval(0, 10), PredicateKind.SEARCH)
        pm.attach(p1, 5)
        pm.attach(p2, 5)
        pm.release_transaction(1)
        assert pm.predicates_on(5) == [p2]
        assert pm.predicates_of(1) == []


class TestConflictChecking:
    def test_conflicting_respects_kind_and_owner(self):
        pm = make_pm()
        search = pm.register(1, Interval(0, 10), PredicateKind.SEARCH)
        insert = pm.register(2, Interval(5, 5), PredicateKind.INSERT)
        mine = pm.register(3, Interval(5, 5), PredicateKind.SEARCH)
        for plock in (search, insert, mine):
            pm.attach(plock, 7)
        found = pm.conflicting(
            7, 5, kinds=(PredicateKind.SEARCH,), exclude_owner=3
        )
        assert found == [search]  # kind filter drops insert, owner drops mine

    def test_conflicting_uses_consistent(self):
        pm = make_pm()
        near = pm.register(1, Interval(0, 10), PredicateKind.SEARCH)
        far = pm.register(2, Interval(100, 110), PredicateKind.SEARCH)
        pm.attach(near, 7)
        pm.attach(far, 7)
        found = pm.conflicting(
            7, 5, kinds=(PredicateKind.SEARCH,), exclude_owner=99
        )
        assert found == [near]

    def test_before_limits_to_fifo_prefix(self):
        pm = make_pm()
        first = pm.register(1, Interval(0, 10), PredicateKind.SEARCH)
        mine = pm.register(2, Interval(0, 10), PredicateKind.INSERT)
        later = pm.register(3, Interval(0, 10), PredicateKind.SEARCH)
        pm.attach(first, 7)
        pm.attach(mine, 7)
        pm.attach(later, 7)  # behind mine: must not be checked
        found = pm.conflicting(
            7,
            5,
            kinds=(PredicateKind.SEARCH,),
            exclude_owner=2,
            before=mine,
        )
        assert found == [first]

    def test_stats_count_comparisons(self):
        pm = make_pm()
        for owner in range(5):
            plock = pm.register(
                owner, Interval(owner, owner), PredicateKind.SEARCH
            )
            pm.attach(plock, 1)
        pm.conflicting(
            1, 2, kinds=(PredicateKind.SEARCH,), exclude_owner=99
        )
        snap = pm.stats.snapshot()
        assert snap["checks"] == 1
        assert snap["comparisons"] == 5
        assert snap["conflicts"] == 1  # only interval (2,2) matches


class TestStructuralMaintenance:
    def test_replicate_for_split_copies_consistent_only(self):
        pm = make_pm()
        low = pm.register(1, Interval(0, 4), PredicateKind.SEARCH)
        high = pm.register(2, Interval(6, 9), PredicateKind.SEARCH)
        pm.attach(low, 10)
        pm.attach(high, 10)
        copied = pm.replicate_for_split(10, 11, Interval(5, 9))
        assert copied == 1
        assert pm.predicates_on(11) == [high]

    def test_replicate_preserves_fifo_order(self):
        pm = make_pm()
        plocks = [
            pm.register(i, Interval(0, 10), PredicateKind.SEARCH)
            for i in range(4)
        ]
        for plock in plocks:
            pm.attach(plock, 10)
        pm.replicate_for_split(10, 11, Interval(0, 10))
        assert pm.predicates_on(11) == plocks

    def test_percolate_only_newly_consistent(self):
        pm = make_pm()
        always = pm.register(1, Interval(0, 4), PredicateKind.SEARCH)
        newly = pm.register(2, Interval(8, 9), PredicateKind.SEARCH)
        never = pm.register(3, Interval(50, 60), PredicateKind.SEARCH)
        for plock in (always, newly, never):
            pm.attach(plock, 10)  # the parent
        copied = pm.percolate(
            10, 11, child_new_bp=Interval(0, 9), child_old_bp=Interval(0, 4)
        )
        # 'always' was already consistent with the old BP (no copy),
        # 'newly' becomes consistent (copied), 'never' stays out
        assert copied == 1
        assert pm.predicates_on(11) == [newly]
