"""Order statistics and spreads."""

import statistics

import pytest

from stats import (
    MIN_BEYOND,
    percentile,
    samples_beyond,
    spread,
    tail_percentile,
)


def test_percentile_interpolates_between_order_statistics():
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 0) == 10
    assert percentile(values, 50) == 30
    assert percentile(values, 100) == 50
    assert percentile(values, 62.5) == pytest.approx(35.0)
    assert percentile([7], 99) == 7
    # order of the sample does not matter
    assert percentile([50, 10, 40, 20, 30], 25) == 20


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(36000, 99) == 360
    assert samples_beyond(100, 50) == 50


def test_tail_percentile_needs_ten_samples_beyond():
    enough = list(range(1000))
    assert tail_percentile(enough)[0] == 99.0
    # 999 samples leave only 9 beyond p99: fall back to p95
    q, value = tail_percentile(enough[:999])
    assert q == 95.0
    assert samples_beyond(999, q) >= MIN_BEYOND
    assert value == pytest.approx(percentile(enough[:999], 95))
    # a handful of samples supports nothing above the median
    assert tail_percentile([1, 2, 3])[0] == 50.0


def test_spread_is_the_drivers_statistic():
    values = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 103.0, 97.0, 100.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = spread(values)
    assert s["median"] == statistics.median(values)
    assert s["iqr_rel"] == pytest.approx((q3 - q1) / s["median"])
    assert s["range_rel"] == pytest.approx(6.0 / s["median"])
    assert spread([5.0])["iqr_rel"] == 0.0
