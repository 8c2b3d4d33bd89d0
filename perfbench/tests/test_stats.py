"""The percentile rule and the error-rate arithmetic."""

from __future__ import annotations

import pytest

from perfbench.stats import ErrorCount, Timing, beyond, nearest_rank, tail_percentile


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (1, None),
        (19, None),  # the median of 19 has only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),  # p90 of 99 leaves 9 beyond
        (100, 90.0),
        (120, 90.0),  # p95 of 120 leaves 6 beyond
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_nearest_rank():
    samples = list(range(100, 0, -1))  # order must not matter
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90
    assert nearest_rank(samples, 99.9) == 100
    assert nearest_rank([7.0], 90) == 7.0


def test_timing_reports_median_tail_and_count():
    timing = Timing("ingest_ms", "ms", [float(v) for v in range(1, 121)])
    text = timing.describe()
    assert "p50=60.5 ms" in text
    assert "p90=108 ms" in text
    assert "(n=120)" in text
    assert "p" not in Timing("solve_s", "s", [1.0, 2.0, 3.0]).describe().split("p50")[1]


def test_error_rate_counts_failures_retries_and_failed_checks():
    errors = ErrorCount()
    for ok in (True, True, False, True):
        errors.op(ok)
    errors.retry()
    errors.retry()
    assert errors.check(True, "fine")
    assert not errors.check(False, "broken")
    assert errors.attempted == 4
    assert errors.error_rate == pytest.approx((1 + 2 + 1) / 4)
    assert errors.failed_checks == ["broken"]
    assert "/ 4 operations attempted" in errors.describe()


def test_error_rate_of_nothing_attempted_is_total_failure():
    assert ErrorCount().error_rate == 1.0
