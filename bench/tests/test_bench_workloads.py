"""Input generation: a pure function of (workload, seed, size)."""

from collections import Counter

import pytest

from workloads import BLOCK, ROUNDS, SPECS, digest, generate_round, timed_ops

SMALL = {name: 200 * spec.threads for name, spec in SPECS.items()}


def _small(name):
    from cli import scaled

    return scaled(SPECS[name], 1 / 50)


@pytest.mark.parametrize("name", list(SPECS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    spec = _small(name)
    a = digest(generate_round(spec, 11, 0, SMALL[name], True))
    b = digest(generate_round(spec, 11, 0, SMALL[name], True))
    c = digest(generate_round(spec, 12, 0, SMALL[name], True))
    d = digest(generate_round(spec, 11, 1, SMALL[name], True))
    assert a == b
    assert len({a, c, d}) == 3


@pytest.mark.parametrize("name", list(SPECS))
def test_every_block_holds_exactly_the_mix(name):
    spec = _small(name)
    inputs = generate_round(spec, 3, 0, SMALL[name], False)
    assert len(inputs.thread_ops) == spec.threads
    for ops in inputs.thread_ops:
        ops = [op for op in ops if op[0] != "vacuum"]
        assert len(ops) == SMALL[name] // spec.threads
        for i in range(0, len(ops), BLOCK):
            kinds = Counter(op[0] for op in ops[i : i + BLOCK])
            assert kinds == Counter(spec.mix)


def test_threads_own_disjoint_keys():
    spec = _small("iobound_btree")
    inputs = generate_round(spec, 3, 0, 400, False)
    for part, ops in enumerate(inputs.thread_ops):
        for kind, arg, expected in ops:
            if kind == "insert":
                assert arg[0] % spec.threads == part
            elif kind == "scan":
                assert all(k % spec.threads == part for k in expected.values())


def test_model_tracks_inserts_and_deletes():
    spec = _small("embedded_btree")
    inputs = generate_round(spec, 9, 0, 400, False)
    live = dict(inputs.preload[0][1])
    for kind, arg, expected in inputs.thread_ops[0]:
        if kind == "insert":
            live[arg[0]] = arg[1]
        elif kind == "delete":
            assert live.pop(arg[0]) == arg[1]
        elif kind == "get":
            assert expected == ([live[arg]] if arg in live else [])
        elif kind == "scan":
            assert expected == {
                rid: key for key, rid in live.items() if arg.contains(key)
            }
    assert live == inputs.live["t0"]


def test_rtree_get_expects_every_touching_square():
    spec = _small("embedded_rtree")
    inputs = generate_round(spec, 9, 0, 200, False)
    live = dict(inputs.preload[0][1])
    for kind, arg, expected in inputs.thread_ops[0]:
        if kind == "insert":
            live[arg[0]] = arg[1]
        elif kind == "delete":
            del live[arg[0]]
        elif kind == "get":
            assert expected == sorted(
                rid for key, rid in live.items() if key.intersects(arg)
            )


def test_op_counts_follow_seconds_in_whole_blocks():
    spec = SPECS["iobound_btree"]
    per_round = timed_ops(spec, 12)
    assert per_round % (BLOCK * spec.threads) == 0
    assert abs(per_round * ROUNDS - spec.ops_per_second * 12) <= (
        ROUNDS * BLOCK * spec.threads
    )
    assert timed_ops(spec, 24) == pytest.approx(2 * per_round, rel=0.1)
    assert timed_ops(spec, 0.01) == BLOCK * spec.threads  # never zero
