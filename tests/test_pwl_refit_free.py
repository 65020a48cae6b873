"""Refit-free PWL ingest: decision identity with the always-refit reference.

``PwlBucket.try_add`` accepts most points through the slope-strip
certificate instead of a full hull sweep, the sweep itself is written out
inline, hull unions skip the left chain, and PWL MIN-INCREMENT's ladder
levels share open buckets.  None of that may change a single output bit:
these tests hold the optimized code to the plain oracles of
:mod:`tests.pwl_reference` (and to independently fed levels) on the
streams where float rounding is most likely to bite.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.pwl_bucket as pwl_bucket_module
from repro.checkpoint import restore, state_dict
from repro.core.pwl_bucket import PwlBucket
from repro.core.pwl_min_increment import (
    PwlGreedyInsertSummary,
    PwlMinIncrementHistogram,
)
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.sliding_window_pwl import SlidingWindowPwlMinIncrement
from repro.geometry.convex_hull import StreamingHull
from repro.geometry.fit import _min_vertical_gap
from tests.min_merge_reference import PwlMinMergeReference
from tests.pwl_reference import RefitBucket, min_vertical_gap, rebuild_chain

U = 1 << 12

plateaus = st.lists(
    st.tuples(st.integers(0, U - 1), st.integers(1, 40)), min_size=1, max_size=10
).map(lambda runs: [v for v, k in runs for _ in range(k)])
sorted_ramps = st.lists(st.integers(0, U - 1), min_size=1, max_size=150).map(sorted)
alternating = st.integers(1, 150).map(lambda n: [(U - 1) * (i % 2) for i in range(n)])
all_equal = st.tuples(st.integers(0, U - 1), st.integers(1, 150)).map(
    lambda t: [t[0]] * t[1]
)
float_values = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=150,
)
# Convex arcs keep every point on the hull, so size-capped hulls compress.
convex_arcs = st.tuples(st.integers(1, 260), st.floats(0.01, 4.0)).map(
    lambda t: [t[1] * i * i for i in range(t[0])]
)
random_walks = st.lists(st.integers(-60, 60), min_size=1, max_size=200).map(
    lambda steps: np.cumsum(steps).tolist()
)
# Float values a rounding error away from a line: the sweep's optimum and
# the certificate's strip then differ only in the last bits.
near_lines = st.tuples(
    st.floats(-5.0, 5.0),
    st.floats(-1e4, 1e4),
    st.lists(st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 0.5]), min_size=1, max_size=80),
).map(lambda t: [t[0] * i + t[1] + noise for i, noise in enumerate(t[2])])
streams = st.one_of(
    plateaus,
    sorted_ramps,
    alternating,
    all_equal,
    float_values,
    convex_arcs,
    random_walks,
    near_lines,
)
# Start indices near 2**40 make ``s * x`` cancel against ``y`` hardest.
starts = st.one_of(st.integers(0, 1000), st.integers(2**40 - 1000, 2**40 + 1000))
budgets = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2047.5]), st.floats(0.0, 5000.0))
hull_epsilons = st.sampled_from([None, 0.1])


class TestSweepAndUnion:
    @given(streams, starts)
    def test_sweep_matches_reference_on_every_prefix(self, values, start):
        hull = StreamingHull()
        for i, v in enumerate(values):
            hull.add(start + i, v)
            got = _min_vertical_gap(hull.upper, hull.lower)
            assert repr(got) == repr(min_vertical_gap(hull.upper, hull.lower))

    @given(streams, starts, st.data())
    def test_union_chains_match_reference(self, values, start, data):
        cut = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=3)))
        bounds = [0, *cut, len(values)]
        pieces = []
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                pieces.append(
                    StreamingHull.from_points(
                        [(start + i, values[i]) for i in range(lo, hi)]
                    )
                )
        merged = pieces[0]
        for piece in pieces[1:]:
            union = merged.union(piece)
            for attr, upper in (("lower", False), ("upper", True)):
                expected = rebuild_chain(
                    getattr(merged, attr), getattr(piece, attr), upper=upper
                )
                assert getattr(union, attr) == expected
            merged = union


class TestDecisionIdentity:
    @given(streams, starts, budgets, hull_epsilons, st.booleans())
    def test_try_add_matches_always_refit(
        self, values, start, budget, hull_epsilon, read_every_step
    ):
        bucket = PwlBucket(start, values[0], hull_epsilon=hull_epsilon)
        ref = RefitBucket(start, values[0], hull_epsilon=hull_epsilon)
        for i, v in enumerate(values[1:], start + 1):
            accepted = bucket.try_add(v, budget)
            assert accepted == ref.try_add(v, budget), (i, v)
            if read_every_step or not accepted:
                assert repr(bucket.error) == repr(ref.error)
            if not accepted:
                bucket = PwlBucket(i, v, hull_epsilon=hull_epsilon)
                ref = RefitBucket(i, v, hull_epsilon=hull_epsilon)
        assert repr(bucket.error) == repr(ref.error)
        assert bucket.hull.lower == ref.hull.lower
        assert bucket.hull.upper == ref.hull.upper

    @pytest.mark.parametrize("seed", range(4))
    def test_budgets_a_few_ulps_below_the_sweep(self, seed):
        # Near-exact float lines, each trial point's budget set to the
        # sweep's own error for it -- mostly as is, so the bucket grows,
        # and sometimes a few ulps lower.  A certificate without its
        # rounding margin accepts some of the lowered ones although the
        # sweep rejects them.  (A seeded search: hypothesis's float
        # shrinking favours exact lines, where no rounding happens.)
        rnd = random.Random(seed)
        for _ in range(100):
            start = rnd.choice([rnd.randrange(10**6), 2**40 - rnd.randrange(1000)])
            a, b = rnd.uniform(-5.0, 5.0), rnd.uniform(-1e4, 1e4)
            values = [
                a * i + b + rnd.choice([0.0, 0.0, 1e-9, -1e-9, 0.5])
                for i in range(60)
            ]
            bucket = PwlBucket(start, values[0])
            ref = RefitBucket(start, values[0])
            for i, v in enumerate(values[1:], start + 1):
                ref.hull.add(i, v)
                budget = min_vertical_gap(ref.hull.upper, ref.hull.lower)[1] / 2.0
                ref.hull.undo_last_add()
                for _ in range(rnd.choice([0, 0, 0, 1, 3, 100])):
                    budget = math.nextafter(budget, -math.inf)
                accepted = bucket.try_add(v, budget)
                assert accepted == ref.try_add(v, budget), (start, i, v, budget)
                if not accepted:
                    bucket = PwlBucket(i, v)
                    ref = RefitBucket(i, v)

    @given(streams, starts, budgets)
    def test_add_keeps_the_certificate_sound(self, values, start, budget):
        # add() (unconditional) interleaved with try_add trials.
        bucket = PwlBucket(start, values[0])
        ref = RefitBucket(start, values[0])
        for i, v in enumerate(values[1:], start + 1):
            if i % 3 == 0:
                bucket.add(v)
                ref.end += 1
                ref.hull.add(ref.end, v)
                ref.cached_error = None
                continue
            accepted = bucket.try_add(v, budget)
            assert accepted == ref.try_add(v, budget)
            assert repr(bucket.error) == repr(ref.error)
            if not accepted:
                bucket = PwlBucket(i, v)
                ref = RefitBucket(i, v)

    def test_certificate_skips_most_sweeps(self, monkeypatch):
        calls = []
        real = pwl_bucket_module._min_vertical_gap

        def counting(upper, lower):
            calls.append(1)
            return real(upper, lower)

        monkeypatch.setattr(pwl_bucket_module, "_min_vertical_gap", counting)
        rng = np.random.default_rng(3)
        values = (np.cumsum(rng.integers(-3, 4, 2000)) + 500).tolist()
        bucket = PwlBucket(0, values[0])
        for i, v in enumerate(values[1:], 1):
            if not bucket.try_add(v, 60.0):
                bucket = PwlBucket(i, v)
        assert len(calls) < len(values) // 4

    # "object" is the linked-list oracle kernel, "soa" the production one.
    @pytest.mark.parametrize("backend", ["object", "soa"])
    @pytest.mark.parametrize("hull_epsilon", [None, 0.1])
    def test_merged_bucket_error_equals_a_fresh_fit(self, backend, hull_epsilon):
        rng = np.random.default_rng(11)
        values = (np.cumsum(rng.integers(-40, 41, 1500)) + 4000).tolist()
        kernel = PwlMinMergeReference if backend == "object" else PwlMinMergeHistogram
        summary = kernel(6, hull_epsilon=hull_epsilon)
        for v in values:
            summary.insert(v)
        for bucket in summary.buckets_snapshot():
            fresh = min_vertical_gap(bucket.hull.upper, bucket.hull.lower)[1] / 2.0
            assert repr(bucket.error) == repr(fresh)


ladder_streams = st.one_of(
    plateaus,
    sorted_ramps,
    alternating,
    all_equal,
    random_walks.map(lambda vs: [min(U - 1, max(0, v + U // 2)) for v in vs]),
)


def _level_state(level):
    closed = [(b.beg, b.end, b.left, b.right, b.error) for b in level.closed]
    open_ = level.open
    return repr(
        (
            closed,
            open_.beg,
            open_.end,
            open_.hull.lower,
            open_.hull.upper,
            open_.error,
            open_.segment(),
        )
    )


class TestSharedLadderBuckets:
    @given(ladder_streams, hull_epsilons, st.integers(1, 6), st.data())
    def test_levels_match_independently_fed_levels(
        self, values, hull_epsilon, buckets, data
    ):
        # Ladder levels share open buckets; each surviving level must hold
        # exactly what a level fed on its own holds.  A checkpoint restore
        # mid-stream (which unshares every bucket) must not matter either.
        ladder = PwlMinIncrementHistogram(buckets, 0.25, U, hull_epsilon=hull_epsilon)
        cut = data.draw(st.integers(0, len(values)))
        ladder.extend(values[:cut])
        if cut:
            ladder = restore(state_dict(ladder))
        ladder.extend(values[cut:])
        alone = []
        for target in ladder.ladder:
            level = PwlGreedyInsertSummary(target, hull_epsilon=hull_epsilon)
            for v in values:
                level.insert(v)
            alone.append(level)
        last = alone[-1]
        survivors = [
            level for level in alone if level.bucket_count <= buckets or level is last
        ]
        assert ladder.alive_levels == [level.target_error for level in survivors]
        for shared, own in zip(ladder._summaries, survivors):
            assert _level_state(shared) == _level_state(own)


class TestSlidingWindowBatches:
    @pytest.mark.parametrize("batch", [1, 8, 4096])
    @pytest.mark.parametrize("hull_epsilon", [None, 0.1])
    def test_extend_matches_insert(self, batch, hull_epsilon):
        rng = np.random.default_rng(5)
        values = np.clip(np.cumsum(rng.integers(-50, 51, 5000)) + 2000, 0, U - 1)
        window = 1500  # expiry starts mid-batch at every batch size here

        def build():
            return SlidingWindowPwlMinIncrement(
                4, 0.25, U, window, hull_epsilon=hull_epsilon
            )

        scalar, batched = build(), build()
        for v in values.tolist():
            scalar.insert(v)
        for off in range(0, len(values), batch):
            batched.extend(values[off : off + batch])

        def state(s):
            h = s.histogram()
            return repr(
                (
                    [(g.beg, g.end, g.left, g.right) for g in h],
                    h.error,
                    s.memory_bytes(),
                    s.items_seen,
                )
            )

        assert state(batched) == state(scalar)
