"""Checkpoint round-trips: restored summaries are behaviourally identical."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rehist import RehistHistogram
from repro.checkpoint import from_json, restore, state_dict, to_json
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.core.sliding_window_pwl import SlidingWindowPwlMinIncrement
from repro.exceptions import InvalidParameterError, UnsupportedCheckpointError

UNIVERSE = 512
streams = st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=150)

#: MIN-MERGE checkpoints written while the object kernel, ``backend=`` and
#: ``findmin=`` still existed (see tests/test_min_merge_reference.py).
PARENT_MIN_MERGE = json.loads(
    (Path(__file__).parent / "data" / "min_merge_parent_checkpoints.json").read_text()
)

#: MIN-INCREMENT checkpoints written by the Section 2.2.2 buffered variant
#: (``batch_size`` 1, 7 and ``"auto"``) before it was removed, each taken
#: 103 values into ``stream``, after 20 of the 34 ladder levels had died.
BUFFERED = json.loads(
    (Path(__file__).parent / "data" / "buffered_min_increment_checkpoints.json")
    .read_text()
)


def _buffered_prefix_summary() -> MinIncrementHistogram:
    """An unbuffered summary fed the prefix the fixtures were taken at."""
    summary = MinIncrementHistogram(
        BUFFERED["buckets"], BUFFERED["epsilon"], BUFFERED["universe"]
    )
    summary.extend(BUFFERED["stream"][: BUFFERED["prefix"]])
    return summary


def _snapshot(summary) -> tuple:
    """Observable state: buckets of the answer, error, memory."""
    hist = summary.histogram()
    return (
        [(s.beg, s.end, s.left, s.right) for s in hist],
        hist.error,
        summary.memory_bytes(),
        summary.items_seen,
    )


class TestValidation:
    def test_unsupported_type(self):
        with pytest.raises(UnsupportedCheckpointError) as excinfo:
            state_dict(object())
        # The error names the offending type and the supported set.
        assert "object" in str(excinfo.value)
        assert "min-merge" in str(excinfo.value)

    def test_unsupported_type_is_invalid_parameter(self):
        # Subclass relationship keeps pre-existing handlers working.
        with pytest.raises(InvalidParameterError):
            state_dict(object())

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedCheckpointError) as excinfo:
            restore({"kind": "count-min-sketch"})
        assert "count-min-sketch" in str(excinfo.value)

    def test_malformed_payload(self):
        with pytest.raises(InvalidParameterError):
            restore({"kind": "min-merge"})
        with pytest.raises(InvalidParameterError):
            restore([])

    def test_malformed_json(self):
        with pytest.raises(InvalidParameterError):
            from_json("{")

    def test_rehist_fleet_is_unsupported_not_malformed(self):
        # Versions before fleets rejected rehist wrote this well-formed state.
        rehist = RehistHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        rehist.extend([3, 9, 1, 7])
        state = {
            "kind": "fleet",
            "algorithm": "rehist",
            "config": {"buckets": 4, "epsilon": 0.2, "universe": UNIVERSE,
                       "window": None},
            "streams": [["a", state_dict(rehist)]],
        }
        with pytest.raises(UnsupportedCheckpointError) as excinfo:
            restore(state)
        message = str(excinfo.value)
        assert "rehist" in message and "no longer restorable" in message
        assert "malformed" not in message


class TestMinMerge:
    @given(streams)
    def test_round_trip_at_rest_is_exact(self, values):
        """Restoring without further inserts reproduces the exact state."""
        summary = MinMergeHistogram(buckets=4)
        summary.extend(values)
        resumed = restore(state_dict(summary))
        assert _snapshot(resumed) == _snapshot(summary)
        resumed._soa.check_consistency()

    @given(streams, streams)
    def test_restore_then_continue_keeps_guarantees(self, prefix, suffix):
        """Pause/restore preserves the algorithm's guarantees.

        Heap *tie-breaking* order is not serialized, so when merge keys tie
        the resumed run may pick a different (equally minimal) pair and the
        partitions can diverge -- but both runs must keep the min-merge
        invariant and Theorem 1's error bound.
        """
        from repro.offline.optimal import optimal_error

        continuous = MinMergeHistogram(buckets=4)
        continuous.extend(prefix)
        continuous.extend(suffix)

        paused = MinMergeHistogram(buckets=4)
        paused.extend(prefix)
        resumed = restore(state_dict(paused))
        resumed.extend(suffix)

        assert resumed.items_seen == continuous.items_seen
        assert resumed.bucket_count == continuous.bucket_count
        assert resumed.memory_bytes() == continuous.memory_bytes()
        resumed._soa.check_consistency()
        resumed.check_min_merge_property()
        best = optimal_error(prefix + suffix, 4)
        assert resumed.error <= best + 1e-12
        assert continuous.error <= best + 1e-12

    def test_linear_findmin_round_trip(self):
        # A checkpoint written under the footnote-4 linear-scan FINDMIN
        # restores its exact buckets and round-trips from there.
        state = PARENT_MIN_MERGE["checkpoints"]["min-merge/object/linear"]
        assert state["findmin"] == "linear"
        resumed = restore(state)
        assert state_dict(resumed)["bucket_list"] == state["bucket_list"]
        again = restore(state_dict(resumed))
        assert _snapshot(again) == _snapshot(resumed)

    def test_json_round_trip(self):
        summary = MinMergeHistogram(buckets=3)
        summary.extend([5, 99, 2, 47, 13])
        resumed = from_json(to_json(summary))
        assert _snapshot(resumed) == _snapshot(summary)


class TestMinIncrement:
    @settings(max_examples=30)
    @given(streams, streams)
    def test_restore_then_continue_matches_uninterrupted(self, prefix, suffix):
        kwargs = {"buckets": 4, "epsilon": 0.2, "universe": UNIVERSE}
        continuous = MinIncrementHistogram(**kwargs)
        continuous.extend(prefix)
        continuous.extend(suffix)

        paused = MinIncrementHistogram(**kwargs)
        paused.extend(prefix)
        resumed = restore(state_dict(paused))
        resumed.extend(suffix)

        assert _snapshot(resumed) == _snapshot(continuous)
        assert resumed.alive_levels == continuous.alive_levels

    def test_buffered_summary_preserves_pending_items(self):
        # Each old checkpoint restores to the state of an unbuffered
        # summary fed the same prefix: its buffered values are replayed.
        for state in BUFFERED["checkpoints"].values():
            resumed = restore(state)
            assert state_dict(resumed) == state_dict(_buffered_prefix_summary())

    def test_buffered_checkpoint_continues_like_uninterrupted_run(self):
        continuous = _buffered_prefix_summary()
        continuous.extend(BUFFERED["stream"][BUFFERED["prefix"]:])
        for state in BUFFERED["checkpoints"].values():
            resumed = restore(state)
            resumed.extend(BUFFERED["stream"][BUFFERED["prefix"]:])
            assert state_dict(resumed) == state_dict(continuous)
            assert _snapshot(resumed) == _snapshot(continuous)

    def test_buffered_fixtures_cover_pending_values_and_dead_levels(self):
        ladder = len(_buffered_prefix_summary().ladder)
        buffers = {}
        for batch, state in BUFFERED["checkpoints"].items():
            # "auto" sized the buffer to the ladder.
            assert state["batch_size"] == (ladder if batch == "auto" else int(batch))
            assert state["items_seen"] == BUFFERED["prefix"]
            assert len(state["summaries"]) < ladder
            buffers[batch] = len(state["buffer"])
        # A one-value buffer drains on every arrival.
        assert buffers["1"] == 0
        assert buffers["7"] > 0 and buffers["auto"] > 0


WINDOWS = {
    "sliding-window": SlidingWindowMinIncrement,
    "sliding-window-pwl": SlidingWindowPwlMinIncrement,
}


class TestSlidingWindow:
    @pytest.mark.parametrize("kind", sorted(WINDOWS))
    @settings(max_examples=30)
    @given(streams, streams, st.integers(4, 64))
    def test_restore_then_continue_matches_uninterrupted(
        self, kind, prefix, suffix, window
    ):
        kwargs = {
            "buckets": 4, "epsilon": 0.2, "universe": UNIVERSE,
            "window": window,
        }
        continuous = WINDOWS[kind](**kwargs)
        continuous.extend(prefix)
        continuous.extend(suffix)

        paused = WINDOWS[kind](**kwargs)
        paused.extend(prefix)
        resumed = restore(state_dict(paused))
        assert state_dict(paused)["kind"] == kind
        resumed.extend(suffix)

        assert _snapshot(resumed) == _snapshot(continuous)

    @pytest.mark.parametrize("kind", sorted(WINDOWS))
    def test_window_position_preserved(self, kind):
        summary = WINDOWS[kind](buckets=4, epsilon=0.2, universe=UNIVERSE, window=10)
        summary.extend(range(50))
        resumed = restore(state_dict(summary))
        assert resumed.window_start == summary.window_start
        assert resumed.histogram().beg == 40
