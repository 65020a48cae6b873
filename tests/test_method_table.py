"""Pin the method table: every entry point builds the summary it always did.

Each builder (``make_algorithm``, ``build_summary``, ``summarize`` and a
``ParallelSummarizer`` shard) goes through the one method table in
``repro.api``.  These tests feed a fixed stream to the summary each entry
point builds and compare its checkpoint state with that of the class
constructed directly, with the entry point's own defaults spelled out as
literals below -- so a default that drifts, or a name that starts
building a different class, fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    PARALLEL_METHODS,
    SUMMARIZE_METHODS,
    build_summary,
    methods,
    streaming_methods,
    summarize,
)
from repro.baselines.rehist import RehistHistogram
from repro.checkpoint import state_dict
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_min_increment import PwlMinIncrementHistogram
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.core.sliding_window_pwl import SlidingWindowPwlMinIncrement
from repro.harness.runner import ALGORITHM_NAMES, make_algorithm
from repro.parallel import MERGEABLE_METHODS, ParallelSummarizer

BUCKETS = 8
WINDOW = 64
STREAM = np.random.default_rng(23).integers(0, 1000, 500)

#: make_algorithm's defaults.
HARNESS = {"epsilon": 0.2, "universe": 1 << 15, "hull_epsilon": 0.1}
#: build_summary's defaults: an exact hull.
LIBRARY = {"epsilon": 0.1, "universe": 1 << 15, "hull_epsilon": None}


def _direct(cls, defaults, *, ladder, pwl, window=None):
    kwargs = {"buckets": BUCKETS}
    if ladder:
        kwargs.update(epsilon=defaults["epsilon"], universe=defaults["universe"])
    if window is not None:
        kwargs["window"] = window
    if pwl:
        kwargs["hull_epsilon"] = defaults["hull_epsilon"]
    return cls(**kwargs)


#: name -> (class, ladder?, pwl?, windowed?) for make_algorithm.
HARNESS_CLASSES = {
    "min-merge": (MinMergeHistogram, False, False, False),
    "min-increment": (MinIncrementHistogram, True, False, False),
    "rehist": (RehistHistogram, True, False, False),
    "pwl-min-merge": (PwlMinMergeHistogram, False, True, False),
    "pwl-min-increment": (PwlMinIncrementHistogram, True, True, False),
    "sliding-window": (SlidingWindowMinIncrement, True, False, True),
    "sliding-window-pwl": (SlidingWindowPwlMinIncrement, True, True, True),
}

#: method -> (class, windowed class or None, ladder?, pwl?).
LIBRARY_CLASSES = {
    "min-increment": (MinIncrementHistogram, SlidingWindowMinIncrement, True, False),
    "min-merge": (MinMergeHistogram, None, False, False),
    "pwl": (PwlMinIncrementHistogram, SlidingWindowPwlMinIncrement, True, True),
    "pwl-min-merge": (PwlMinMergeHistogram, None, False, True),
}


def _fed(summary):
    summary.extend(STREAM)
    return state_dict(summary)


def test_public_names_keep_their_values():
    assert ALGORITHM_NAMES == tuple(HARNESS_CLASSES)
    assert SUMMARIZE_METHODS == (
        "min-increment", "min-merge", "pwl", "pwl-min-merge",
        "optimal", "optimal-pwl",
    )
    assert streaming_methods() == tuple(LIBRARY_CLASSES)
    assert PARALLEL_METHODS == ("min-merge", "pwl-min-merge")
    assert MERGEABLE_METHODS is PARALLEL_METHODS
    assert [m for m, caps in methods().items() if caps["pwl"]] == [
        "pwl", "pwl-min-merge", "optimal-pwl",
    ]


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_make_algorithm_builds_its_parent_state(name):
    cls, ladder, pwl, windowed = HARNESS_CLASSES[name]
    built = make_algorithm(name, buckets=BUCKETS, window=WINDOW)
    assert type(built) is cls
    direct = _direct(
        cls, HARNESS, ladder=ladder, pwl=pwl,
        window=WINDOW if windowed else None,
    )
    assert _fed(built) == _fed(direct)


@pytest.mark.parametrize("method", list(LIBRARY_CLASSES))
def test_build_summary_builds_its_parent_state(method):
    cls, _windowed_cls, ladder, pwl = LIBRARY_CLASSES[method]
    built = build_summary(method, buckets=BUCKETS)
    assert type(built) is cls
    direct = _direct(cls, LIBRARY, ladder=ladder, pwl=pwl)
    assert _fed(built) == _fed(direct)


@pytest.mark.parametrize(
    "method", [m for m, row in LIBRARY_CLASSES.items() if row[1] is not None]
)
def test_build_summary_windowed_builds_its_parent_state(method):
    _cls, windowed_cls, _ladder, pwl = LIBRARY_CLASSES[method]
    built = build_summary(method, buckets=BUCKETS, window=WINDOW)
    assert type(built) is windowed_cls
    direct = _direct(windowed_cls, LIBRARY, ladder=True, pwl=pwl, window=WINDOW)
    assert _fed(built) == _fed(direct)


@pytest.mark.parametrize("method", PARALLEL_METHODS)
def test_parallel_shard_builds_its_parent_state(method):
    cls, _windowed_cls, _ladder, pwl = LIBRARY_CLASSES[method]
    shard = ParallelSummarizer(method, buckets=BUCKETS, workers=None)
    direct = _direct(cls, LIBRARY, ladder=False, pwl=pwl)
    assert state_dict(shard.summarize(STREAM)) == _fed(direct)


@pytest.mark.parametrize(
    "method, window",
    [(m, None) for m in LIBRARY_CLASSES]
    + [(m, WINDOW) for m, row in LIBRARY_CLASSES.items() if row[1] is not None],
)
def test_summarize_matches_the_direct_class(method, window):
    cls, windowed_cls, ladder, pwl = LIBRARY_CLASSES[method]
    # One-shot calls size the universe from the data.
    defaults = dict(LIBRARY, universe=int(STREAM.max()) + 1)
    direct = _direct(
        windowed_cls if window is not None else cls,
        defaults, ladder=ladder, pwl=pwl, window=window,
    )
    direct.extend(STREAM)
    expected = direct.histogram()
    hist = summarize(STREAM, BUCKETS, method=method, window=window)
    assert hist.segments == expected.segments
    assert hist.error == expected.error
    assert hist.meta.method == method
    assert hist.meta.buckets == len(expected)
    assert hist.meta.requested_buckets == BUCKETS
    assert hist.meta.items_seen == len(STREAM)
    assert hist.meta.window == window
    assert hist.meta.epsilon == (0.1 if ladder else None)

