"""Certified MIN-INCREMENT ladder: bit identity with the per-level loop.

:class:`MinIncrementHistogram` counts a value that provably fits every
level's open bucket into a pending run instead of writing it, and a long
batch drops the levels it provably kills before ingesting.  None of that
may change a single output bit: these tests hold it to the plain ladder of
:mod:`tests.min_increment_reference` after every operation, with reads and
checkpoint round trips interleaved at random points (a read writes the
pending run out, and must not loosen the certificate).
"""

from __future__ import annotations

import contextlib
import random
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.min_increment as min_increment_module
from repro.checkpoint import restore, state_dict
from repro.core.greedy_insert import GreedyInsertSummary
from repro.core.min_increment import MinIncrementHistogram
from repro.data import brownian
from repro.exceptions import DomainError
from tests.min_increment_reference import ReferenceMinIncrement, greedy_until_dead

U = 1 << 12


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail, instead of hanging, if the body runs longer than ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def reads(summary):
    hist = summary.histogram()
    return (
        summary.items_seen,
        hist.segments,
        hist.error,
        summary.error,
        summary.memory_bytes(),
        summary.alive_levels,
        summary.buckets_for_error(0.0),
        summary.buckets_for_error(1.0),
        summary.buckets_for_error(37.5),
    )


def plateaus(universe):
    return st.lists(
        st.tuples(st.integers(0, universe - 1), st.integers(1, 40)),
        min_size=1,
        max_size=12,
    ).map(lambda runs: [v for v, k in runs for _ in range(k)])


def streams(universe):
    top = universe - 1
    return st.one_of(
        plateaus(universe),
        st.lists(st.integers(0, top), min_size=1, max_size=200),
        st.lists(st.integers(0, top), min_size=1, max_size=200).map(sorted),
        st.integers(1, 200).map(lambda n: [top * (i % 2) for i in range(n)]),
        st.tuples(st.integers(0, top), st.integers(1, 200)).map(
            lambda t: [t[0]] * t[1]
        ),
        st.lists(
            st.floats(0.0, float(top), allow_nan=False), min_size=1, max_size=200
        ),
        st.lists(st.integers(-9, 9), min_size=1, max_size=300).map(
            lambda steps: np.clip(np.cumsum(steps) + top // 2, 0, top).tolist()
        ),
    )


#: How a slice of the stream is fed: one insert() per value, or one
#: extend() of a list or of an ndarray of the given dtype.
FEEDS = [
    "insert",
    "list",
    "int64",
    "float64",
    "float32",
    "int8",
    "uint16",
    "np.float32 scalars",
    "np.int64 scalars",
]


def feed(summary, reference, values, how):
    if how == "insert":
        for v in values:
            summary.insert(v)
            reference.insert(v)
        return
    if how.endswith("scalars"):
        cast = np.float32 if how.startswith("np.float32") else np.int64
        for v in values:
            summary.insert(cast(v))
            reference.insert(cast(v))
        return
    if how == "list":
        summary.extend(list(values))
        reference.extend(list(values))
        return
    batch = np.asarray(values).astype(how)
    summary.extend(batch)
    # The per-level kernel reduces runs in the array's own dtype, which
    # overflows on a narrow one; the reference gets the same values widened.
    reference.extend(batch.astype(np.float64 if how.startswith("float") else np.int64))


def fits(values, how):
    """Whether ``values`` survive the cast that ``how`` applies unchanged."""
    kind = how.split()[0].replace("np.", "")
    if kind in ("insert", "list", "float64"):
        return True
    if kind == "float32":
        return all(float(np.float32(v)) == v for v in values)
    top = {"int64": 2**63 - 1, "int8": 127, "uint16": 65535}[kind]
    return all(float(v).is_integer() and v <= top for v in values)


def run_script(universe, buckets, epsilon, values, script):
    """Replay ``values`` through both ladders, comparing after every step."""
    summary = MinIncrementHistogram(buckets, epsilon, universe)
    reference = ReferenceMinIncrement(buckets, epsilon, universe)
    i = 0
    for how, size, action in script:
        chunk = values[i : i + size]
        if not chunk:
            break
        i += len(chunk)
        if not fits(chunk, how):
            how = "insert"
        feed(summary, reference, chunk, how)
        assert state_dict(summary) == reference.state()
        if action == "read":
            assert reads(summary) == reads(reference)
        elif action == "restore":
            summary = restore(state_dict(summary))
    feed(summary, reference, values[i:], "insert")
    assert state_dict(summary) == reference.state()
    assert reads(summary) == reads(reference)


scripts = st.lists(
    st.tuples(
        st.sampled_from(FEEDS),
        st.integers(1, 90),
        st.sampled_from(["none", "read", "restore"]),
    ),
    min_size=1,
    max_size=12,
)
ladders = st.tuples(st.integers(1, 12), st.sampled_from([0.05, 0.2, 0.5]))


class TestBitIdentity:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(streams(U), ladders, scripts)
    def test_matches_reference_after_every_operation(self, values, ladder, script):
        buckets, epsilon = ladder
        with time_limit(60):
            run_script(U, buckets, epsilon, values, script)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 16]).flatmap(lambda u: st.tuples(st.just(u), streams(u))),
        ladders,
        scripts,
    )
    def test_small_universes(self, stream, ladder, script):
        universe, values = stream
        with time_limit(60):
            run_script(universe, *ladder, values, script)

    def test_read_keeps_the_run_extremes(self):
        # Reads write the pending run out between values.  The caps were
        # armed against the open buckets as they were before the run, so
        # the certificate must keep the run's extremes across a read:
        # forgetting them certifies the final 15, which does not fit the
        # e = 3.375 level's open bucket.
        values = [1, 13, 7, 0, 11, 5, 6, 11, 15]
        reads_after = {1, 4, 5, 7, 9}
        summary = MinIncrementHistogram(4, 0.5, 16)
        reference = ReferenceMinIncrement(4, 0.5, 16)
        for i, v in enumerate(values, 1):
            summary.insert(v)
            reference.insert(v)
            if i in reads_after:
                assert reads(summary) == reads(reference)
        assert state_dict(summary) == reference.state()

    @pytest.mark.parametrize("universe", [2**53, 2**53 + 2])
    def test_universe_at_and_past_exact_float_range(self, universe):
        rng = random.Random(universe)
        top = universe - 1
        values = [
            rng.choice([0, 1, top, top - 1, top // 2, rng.randrange(universe)])
            for _ in range(400)
        ]
        script = [
            (
                rng.choice(["insert", "list", "int64"]),
                rng.randint(1, 60),
                rng.choice(["none", "read", "restore"]),
            )
            for _ in range(12)
        ]
        with time_limit(60):
            run_script(universe, 6, 0.2, values, script)

    def test_caps_near_zero_and_top_terminate(self):
        # A lower cap near 0 can sit ~2**60 ulps (of itself) away from
        # its float estimate; the cap search must still finish at once.
        rng = random.Random(5)
        for universe in (4, 16, 1 << 20):
            values = [
                rng.choice(
                    [0, 1, 0.5, 1e-300, universe - 1, (universe - 1) * rng.random()]
                )
                for _ in range(600)
            ]
            with time_limit(60):
                run_script(universe, 3, 0.3, values, [("insert", 600, "read")])

    def test_narrow_int_array_after_wide_values(self):
        # An open bucket holding 4095 next to an int8 batch: reducing the
        # batch in int8 would overflow, so extend() must widen it first.
        summary = MinIncrementHistogram(1, 0.05, U)
        reference = ReferenceMinIncrement(1, 0.05, U)
        for v in (0, 4095):
            summary.insert(v)
            reference.insert(v)
        summary.extend(np.array([0, 3, 1], dtype=np.int8))
        for v in (0, 3, 1):
            reference.insert(v)
        assert state_dict(summary) == reference.state()

    def test_domain_error_mid_batch_keeps_prefix(self):
        values = np.array([5, 6, 7, 9, 300, U + 3, 11, 12])
        summary = MinIncrementHistogram(3, 0.2, U)
        reference = ReferenceMinIncrement(3, 0.2, U)
        for target in (summary, reference):
            with pytest.raises(DomainError):
                target.extend(values)
        assert summary.items_seen == 5
        assert state_dict(summary) == reference.state()
        summary.extend(values[6:])
        reference.extend(values[6:])
        assert reads(summary) == reads(reference)


class TestReconcileBound:
    def count_steps(self, monkeypatch):
        calls = []
        step = MinIncrementHistogram._step

        def counted(self, value):
            calls.append(value)
            step(self, value)

        monkeypatch.setattr(MinIncrementHistogram, "_step", counted)
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steps_bounded_by_bucket_closes(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        buckets = int(rng.integers(1, 20))
        summary = MinIncrementHistogram(buckets, 0.2, U)
        calls = self.count_steps(monkeypatch)
        for v in rng.integers(0, U, 3000).tolist():
            summary.insert(v)
        # Every step after the first value closes a bucket on some level
        # below the top, and such a level dies at its B-th close.
        assert len(calls) <= buckets * (len(summary.ladder) - 1) + 1

    def test_steps_are_rare_on_brownian(self, monkeypatch):
        values = brownian(60_000)
        summary = MinIncrementHistogram(32, 0.2, 1 << 15)
        calls = self.count_steps(monkeypatch)
        for v in values:
            summary.insert(v)
        assert len(calls) <= 32 * (len(summary.ladder) - 1) + 1
        assert len(calls) < 0.05 * len(values)


class TestPruning:
    @pytest.mark.parametrize("seed", range(6))
    def test_alive_levels_match_after_every_extend(self, seed):
        rng = np.random.default_rng(seed)
        buckets = int(rng.integers(1, 40))
        epsilon = float(rng.choice([0.05, 0.2, 0.5]))
        summary = MinIncrementHistogram(buckets, epsilon, U)
        reference = ReferenceMinIncrement(buckets, epsilon, U)
        for _ in range(3):
            n = int(rng.integers(min_increment_module._PRUNE_MIN, 20_000))
            step = int(rng.integers(1, 40))
            walk = np.cumsum(rng.integers(-step, step + 1, n)) + U // 2
            batch = np.clip(walk, 0, U - 1)
            summary.extend(batch)
            reference.extend(batch)
            assert summary.alive_levels == reference.alive_levels
            assert state_dict(summary) == reference.state()

    def test_block_at_exactly_the_target_forces_nothing(self):
        # Every block of a 0/2 stream has half-range exactly 1.0: the
        # e = 1.0 level holds it in one bucket, so pruning must keep it.
        # Counting a half-range *equal* to the target as forced would
        # drop that level and answer with a coarser one.
        rng = np.random.default_rng(7)
        batch = 2 * rng.integers(0, 2, 2 * min_increment_module._PRUNE_MIN)
        summary = MinIncrementHistogram(1, 0.5, 16)
        reference = ReferenceMinIncrement(1, 0.5, 16)
        summary.extend(batch)
        reference.extend(batch)
        assert reference.alive_levels[0] == 1.0
        assert summary.alive_levels == reference.alive_levels
        assert state_dict(summary) == reference.state()

    def test_reference_early_exit_consumes_partially(self):
        # The oracle stops feeding a level once it holds more than B
        # buckets: it is dead (Lemma 2) and the rest is unobservable.
        summary = GreedyInsertSummary(1.0)
        consumed = greedy_until_dead(summary, [0, 100] * 4, 2)
        assert consumed == 3
        assert summary.bucket_count == 3


class TestCounters:
    @pytest.mark.parametrize("seed", [13, 14])
    def test_batch_counters_match_scalar_counters(self, seed):
        rng = np.random.default_rng(seed)
        data = np.clip(np.cumsum(rng.integers(-30, 31, 6000)) + U // 2, 0, U - 1)
        scalar = MinIncrementHistogram(5, 0.2, U, metrics=True)
        for v in data.tolist():
            scalar.insert(v)
        batched = MinIncrementHistogram(5, 0.2, U, metrics=True)
        batched.extend(data)
        for name in ("inserts", "merges", "promotions"):
            assert (
                getattr(scalar.metrics, name).value
                == getattr(batched.metrics, name).value
            ), name
        assert scalar.metrics.promotions.value == len(scalar.ladder) - len(
            scalar.alive_levels
        )
