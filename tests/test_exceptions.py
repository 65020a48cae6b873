"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
    ReproError,
)


def test_all_derive_from_repro_error():
    for exc in (InvalidParameterError, DomainError, EmptySummaryError):
        assert issubclass(exc, ReproError)


def test_value_errors_are_value_errors():
    assert issubclass(InvalidParameterError, ValueError)
    assert issubclass(DomainError, ValueError)


def test_empty_summary_is_runtime_error():
    assert issubclass(EmptySummaryError, RuntimeError)


def test_catching_base_class():
    from repro import MinMergeHistogram

    with pytest.raises(ReproError):
        MinMergeHistogram(buckets=0)


def _greedy(error):
    from repro.core.greedy_insert import GreedyInsertSummary

    summary = GreedyInsertSummary(error)
    summary.extend([1, 5, 9, 2])
    return summary.bucket_count


def _pwl_greedy(error):
    from repro.core.pwl_min_increment import PwlGreedyInsertSummary

    summary = PwlGreedyInsertSummary(error)
    for v in [1, 5, 9, 2]:
        summary.insert(v)
    return summary.bucket_count


def _histogram(error):
    from repro.core.histogram import Histogram, Segment

    return Histogram([Segment(0, 3, 4.0, 4.0)], error).error


def _covering_level(error):
    from repro.core.error_ladder import ErrorLadder

    return ErrorLadder(0.1, 16).covering_level(error)


def _min_buckets(error):
    from repro.offline.optimal import min_buckets_for_error

    return min_buckets_for_error([1, 5, 9, 2], error)


def _min_pwl_buckets(error):
    from repro.offline.optimal_pwl import min_pwl_buckets_for_error

    return min_pwl_buckets_for_error([1, 5, 9, 2], error)


def _min_relative_buckets(error):
    from repro.relative.bucket import min_relative_buckets_for_error

    return min_relative_buckets_for_error([1, 5, 9, 2], error)


def _plan(error):
    from repro.analysis import plan_summary

    return plan_summary([1, 5, 9, 2], error).serial_buckets_needed


#: (guarded call, whether an infinite error is a meaningful input).
ERROR_GUARDS = [
    (_greedy, True),
    (_pwl_greedy, True),
    (_histogram, False),
    (_covering_level, False),
    (_min_buckets, True),
    (_min_pwl_buckets, True),
    (_min_relative_buckets, True),
    (_plan, True),
]


@pytest.mark.parametrize(
    "call,takes_inf", ERROR_GUARDS, ids=[call.__name__ for call, _ in ERROR_GUARDS]
)
def test_error_guards_reject_nan_and_negatives(call, takes_inf):
    # ``x < 0`` lets NaN through; the guards are written ``not x >= 0``.
    for bad in (float("nan"), -1.0):
        with pytest.raises(InvalidParameterError):
            call(bad)
    call(0.0)
    if takes_inf:
        call(float("inf"))
