"""The fixture's tier-1 suite (named so the repo's own run skips it)."""

from reachpkg import mod


def test_calls_test_only():
    assert mod.test_only() == 2


def test_benchmark_fixture_keeps_the_hook(benchmark):
    # one round, run only inside pytest-benchmark's paused region
    assert benchmark.pedantic(mod.benchmarked, rounds=1) == 7
