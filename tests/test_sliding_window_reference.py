"""The sliding windows against their windowed-level oracles.

``tests/sliding_window_reference.py`` keeps the two windowed level classes
that :mod:`repro.core.sliding_window` replaced with the plain GREEDY-INSERT
levels.  These tests hold both windows to them after every operation, and
check that checkpoints written by those classes restore and continue
exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import checkpoint
from repro.core.bucket import Bucket
from repro.core.pwl_bucket import ClosedPwlBucket
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.core.sliding_window_pwl import SlidingWindowPwlMinIncrement
from repro.exceptions import DomainError
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from tests.sliding_window_reference import (
    SlidingWindowPwlReference,
    SlidingWindowReference,
)

#: Checkpoints written by the windowed level classes, each taken after
#: ``prefix`` values of ``stream`` were inserted one at a time, plus each
#: summary's state and answer after the rest of the stream was extended.
PARENT = json.loads(
    (Path(__file__).parent / "data" / "sliding_window_parent_checkpoints.json")
    .read_text()
)


def bucket_state(bucket):
    if isinstance(bucket, Bucket):
        return (bucket.beg, bucket.end, bucket.min, bucket.max)
    if isinstance(bucket, ClosedPwlBucket):
        return (bucket.beg, bucket.end, bucket.left, bucket.right, bucket.error)
    return bucket.to_state()


def observe(summary) -> dict:
    """Everything a window exposes: answer, memory and every level."""
    out = {
        "items_seen": summary.items_seen,
        "memory_bytes": summary.memory_bytes(),
        "levels": [
            (
                level.target_error,
                [bucket_state(b) for b in level.closed],
                bucket_state(level.open) if level.open is not None else None,
            )
            for level in summary._summaries
        ],
    }
    if summary.items_seen:
        hist = summary.histogram()
        out["segments"] = [(g.beg, g.end, g.left, g.right) for g in hist]
        out["error"] = hist.error
        assert summary.error == hist.error
    return out


@st.composite
def scenarios(draw):
    """A window configuration plus operations, some with a bad value."""
    universe = draw(st.integers(2, 4096))
    if draw(st.booleans()):
        value = st.floats(0, universe, exclude_max=True, allow_nan=False)
        bad = st.sampled_from([-1, -0.5, universe, universe + 0.5])
    else:
        value = st.integers(0, universe - 1)
        bad = st.sampled_from([-1, universe])
    op = st.tuples(
        st.sampled_from(["insert", "list", "array"]),
        st.lists(value, min_size=1, max_size=12),
        st.none() | st.tuples(st.integers(0, 12), bad),
    )
    config = {
        "buckets": draw(st.sampled_from([1, 2, 8])),
        "epsilon": draw(st.sampled_from([0.1, 0.25, 0.5])),
        "universe": universe,
        "window": draw(st.integers(1, 500)),
        "memory_model": draw(st.sampled_from([DEFAULT_MODEL, MemoryModel(8)])),
    }
    return config, draw(st.lists(op, min_size=1, max_size=8))


def run_against_oracle(summary, oracle, ops) -> None:
    assert observe(summary) == observe(oracle)
    for mode, values, bad in ops:
        if bad is not None:
            pos, bad_value = bad
            values = values[:pos] + [bad_value] + values[pos:]
        if mode == "insert":
            for value in values:
                raised = []
                for s in (summary, oracle):
                    try:
                        s.insert(value)
                    except DomainError:
                        raised.append(s)
                assert len(raised) in (0, 2)
                assert observe(summary) == observe(oracle)
            continue
        batch = np.array(values) if mode == "array" else values
        raised = []
        for s in (summary, oracle):
            try:
                s.extend(batch)
            except DomainError:
                raised.append(s)
        assert len(raised) == (0 if bad is None else 2)
        assert observe(summary) == observe(oracle)


class TestAgainstOracle:
    @given(scenarios())
    def test_constant_window_matches_oracle(self, scenario):
        config, ops = scenario
        run_against_oracle(
            SlidingWindowMinIncrement(**config), SlidingWindowReference(**config), ops
        )

    @given(scenarios(), st.sampled_from([None, 0.1]))
    def test_pwl_window_matches_oracle(self, scenario, hull_epsilon):
        config, ops = scenario
        run_against_oracle(
            SlidingWindowPwlMinIncrement(**config, hull_epsilon=hull_epsilon),
            SlidingWindowPwlReference(**config, hull_epsilon=hull_epsilon),
            ops,
        )

    def test_neither_window_is_the_other(self):
        config = {"buckets": 2, "epsilon": 0.25, "universe": 64, "window": 8}
        assert not isinstance(
            SlidingWindowMinIncrement(**config), SlidingWindowPwlMinIncrement
        )
        assert not isinstance(
            SlidingWindowPwlMinIncrement(**config), SlidingWindowMinIncrement
        )


def build(case: str, oracle: bool = False):
    config = {k: PARENT[k] for k in ("buckets", "epsilon", "universe", "window")}
    if case == "sliding-window":
        cls = SlidingWindowReference if oracle else SlidingWindowMinIncrement
        return cls(**config)
    cls = SlidingWindowPwlReference if oracle else SlidingWindowPwlMinIncrement
    hull_epsilon = None if case.endswith("/exact") else 0.1
    return cls(**config, hull_epsilon=hull_epsilon)


CASES = sorted(PARENT["checkpoints"])


class TestParentCheckpoints:
    @pytest.mark.parametrize("case", CASES)
    def test_restore_round_trips_the_parent_state(self, case):
        state = PARENT["checkpoints"][case]
        resumed = checkpoint.restore(state)
        assert checkpoint.state_dict(resumed) == state
        oracle = build(case, oracle=True)
        for value in PARENT["stream"][: PARENT["prefix"]]:
            oracle.insert(value)
        assert observe(resumed) == observe(oracle)

    @pytest.mark.parametrize("case", CASES)
    def test_restore_then_continue_equals_uninterrupted_run(self, case):
        stream, prefix = PARENT["stream"], PARENT["prefix"]
        resumed = checkpoint.restore(PARENT["checkpoints"][case])
        resumed.extend(stream[prefix:])
        assert checkpoint.state_dict(resumed) == PARENT["final"][case]
        hist = resumed.histogram()
        assert {
            "segments": [[g.beg, g.end, g.left, g.right] for g in hist],
            "error": hist.error,
            "memory_bytes": resumed.memory_bytes(),
            "items_seen": resumed.items_seen,
        } == PARENT["final_snapshot"][case]
        uninterrupted = build(case)
        for value in stream[:prefix]:
            uninterrupted.insert(value)
        uninterrupted.extend(stream[prefix:])
        assert observe(resumed) == observe(uninterrupted)

    def test_fixtures_cover_both_kinds_hulls_and_both_drop_policies(self):
        kinds = {
            (s["kind"], s.get("hull_epsilon", "n/a"))
            for s in PARENT["checkpoints"].values()
        }
        assert kinds == {
            ("sliding-window", "n/a"),
            ("sliding-window-pwl", None),
            ("sliding-window-pwl", 0.1),
        }
        for case in CASES:
            oracle = build(case, oracle=True)
            expired = trimmed = 0
            for value in PARENT["stream"][: PARENT["prefix"]]:
                e, t = oracle.insert(value)
                expired += e
                trimmed += t
            assert expired > 0 and trimmed > 0, case
