"""Tests for the multi-stream fleet manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.fleet import StreamFleet
from repro.metrics.errors import linf_error


class TestStreamManagement:
    def test_empty_fleet(self):
        fleet = StreamFleet(buckets=4)
        assert len(fleet) == 0
        assert fleet.ids == []
        assert fleet.total_memory_bytes() == 0

    def test_insert_auto_registers(self):
        fleet = StreamFleet(buckets=4)
        fleet.insert("sensor-1", 5)
        assert "sensor-1" in fleet
        assert len(fleet) == 1

    def test_add_duplicate_rejected(self):
        fleet = StreamFleet(buckets=4)
        fleet.add_stream("a")
        with pytest.raises(InvalidParameterError):
            fleet.add_stream("a")

    def test_remove_stream(self):
        fleet = StreamFleet(buckets=4)
        fleet.insert("a", 1)
        fleet.remove_stream("a")
        assert "a" not in fleet
        with pytest.raises(InvalidParameterError):
            fleet.remove_stream("a")

    def test_unknown_stream_query(self):
        with pytest.raises(InvalidParameterError):
            StreamFleet(buckets=4).histogram("ghost")

    def test_summary_accessor_supports_checkpointing(self):
        from repro.checkpoint import restore, state_dict

        fleet = StreamFleet(buckets=4)
        fleet.extend("a", range(100))
        resumed = restore(state_dict(fleet.summary("a")))
        assert resumed.items_seen == 100
        with pytest.raises(InvalidParameterError):
            fleet.summary("ghost")

    def test_bad_configuration_caught_eagerly(self):
        with pytest.raises(InvalidParameterError):
            StreamFleet(buckets=4, algorithm="t-digest")

    def test_rehist_rejected_at_construction(self):
        # Its histogram() needs the raw values, so every fleet query would
        # fail; the error names the algorithms a fleet can hold.
        with pytest.raises(InvalidParameterError, match="sliding-window-pwl"):
            StreamFleet(buckets=4, algorithm="rehist")

    def test_sliding_window_algorithm(self):
        fleet = StreamFleet(buckets=4, algorithm="sliding-window", window=16)
        fleet.extend("a", range(100))
        hist = fleet.histogram("a")
        assert hist.beg == 84

    def test_insertion_order_preserved(self):
        fleet = StreamFleet(buckets=2)
        for name in ("z", "a", "m"):
            fleet.insert(name, 1)
        assert fleet.ids == ["z", "a", "m"]


class TestIngestion:
    def test_insert_row_lockstep(self):
        fleet = StreamFleet(buckets=4)
        for t in range(50):
            fleet.insert_row({"a": t % 5, "b": (t + 1) % 5})
        assert fleet.histogram("a").coverage == 50
        assert fleet.histogram("b").coverage == 50

    def test_extend(self):
        fleet = StreamFleet(buckets=4)
        fleet.extend("a", [1, 2, 3])
        assert fleet.histogram("a").coverage == 3

    def test_memory_sums_summaries(self):
        fleet = StreamFleet(buckets=4)
        fleet.extend("a", range(100))
        one = fleet.total_memory_bytes()
        fleet.extend("b", range(100))
        assert fleet.total_memory_bytes() == 2 * one


class TestSimilarity:
    @staticmethod
    def _lockstep_fleet(series: dict) -> StreamFleet:
        fleet = StreamFleet(buckets=8)
        length = len(next(iter(series.values())))
        for t in range(length):
            fleet.insert_row({k: v[t] for k, v in series.items()})
        return fleet

    def test_identical_streams_have_zero_lower_bound(self):
        data = [((i * 17) % 100) for i in range(200)]
        fleet = self._lockstep_fleet({"a": data, "b": list(data)})
        low, high = fleet.distance_bounds("a", "b")
        assert low == 0.0
        assert high >= 0.0

    def test_range_mismatch_raises(self):
        fleet = StreamFleet(buckets=4)
        fleet.extend("a", range(10))
        fleet.extend("b", range(20))
        with pytest.raises(InvalidParameterError):
            fleet.distance_bounds("a", "b")

    @settings(max_examples=20)
    @given(
        st.lists(st.integers(0, 500), min_size=2, max_size=80),
        st.lists(st.integers(0, 500), min_size=2, max_size=80),
    )
    def test_bounds_contain_truth(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        fleet = self._lockstep_fleet({"a": a, "b": b})
        low, high = fleet.distance_bounds("a", "b")
        true = linf_error(a, b)
        assert low - 1e-9 <= true <= high + 1e-9

    def test_nearest_ranks_by_upper_bound(self):
        base = [i % 50 for i in range(300)]
        near = [v + 1 for v in base]
        far = [v + 400 for v in base]
        fleet = self._lockstep_fleet({"q": base, "near": near, "far": far})
        ranked = fleet.nearest("q", k=2)
        assert [sid for sid, _l, _h in ranked] == ["near", "far"]

    def test_nearest_k_validation(self):
        fleet = StreamFleet(buckets=4)
        fleet.extend("a", [1, 2])
        with pytest.raises(InvalidParameterError):
            fleet.nearest("a", k=0)

    def test_provably_nearest_certifies_clear_winner(self):
        base = [i % 40 for i in range(400)]
        twin = list(base)
        distant = [v + 5000 for v in base]
        fleet = self._lockstep_fleet(
            {"q": base, "twin": twin, "distant": distant}
        )
        assert fleet.provably_nearest("q") == "twin"

    def test_provably_nearest_declines_ambiguity(self):
        base = [i % 40 for i in range(100)]
        near_a = [v + 3 for v in base]
        near_b = [v + 4 for v in base]
        fleet = StreamFleet(buckets=2)  # coarse summaries: wide bounds
        for t in range(100):
            fleet.insert_row(
                {"q": base[t], "a": near_a[t], "b": near_b[t]}
            )
        # With only 4 working buckets the 3-vs-4 offset gap is far below
        # the summary slack; certification must refuse.
        assert fleet.provably_nearest("q") is None

    def test_provably_nearest_empty_fleet(self):
        fleet = StreamFleet(buckets=4)
        fleet.extend("only", [1, 2, 3])
        assert fleet.provably_nearest("only") is None
