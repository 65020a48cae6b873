"""Tests for the scenario DSL, generators, runner, and conformance suite.

The differential conformance matrix at the bottom is the PR's standing
gate: every bundled scenario runs through serial/parallel x
scalar/batched ingest and must produce bit-identical buckets plus
bounded error against the offline-optimal oracle.  The object-kernel
oracle cells live in ``tests/test_min_merge_reference.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import SeedLike, brownian_walk, uniform_noise
from repro.exceptions import InvalidParameterError
from repro.scenarios import (
    ArrivalSpec,
    DriftSpec,
    OrderingSpec,
    RegimeSpec,
    ScenarioRunner,
    ScenarioSpec,
    TenantsSpec,
    ValueSpec,
    apply_ordering,
    batch_schedule,
    bundled_scenarios,
    check_conformance,
    child_rng,
    conformance_scenarios,
    fingerprint,
    generate,
    generate_stream,
    load_bundled,
    resolve_spec,
    run_conformance,
    run_scenario,
    schedules,
    stream_lengths,
)
from tests.min_merge_reference import MinMergeReference

# Golden generator digests: any change to the seeded synthesis pipeline
# (spec seed -> SeedSequence -> process -> drift -> ordering -> quantize)
# must be deliberate and show up here.
GOLDEN_FINGERPRINTS = {
    "steady-brownian": "8493c7fbd3c0978c2c319146b2db7a1d",
    "heavy-tail-zipf": "09b4a7a4c1e89cbd9e2b6ec705ea4324",
    "hot-cold-tenants": "4e36c600e9b4828b46f40633d3a306b2",
}


# -- the DSL ------------------------------------------------------------------


class TestSpec:
    def test_yaml_round_trip_bundled(self):
        for name in bundled_scenarios():
            spec = load_bundled(name)
            assert ScenarioSpec.from_yaml(spec.to_yaml()) == spec
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            ScenarioSpec.from_dict({"name": "x", "lenght": 100})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            ScenarioSpec.from_dict(
                {"name": "x", "arrival": {"pattern": "steady", "btach": 4}}
            )

    def test_invalid_enum_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            ArrivalSpec(pattern="torrential")
        with pytest.raises(InvalidParameterError):
            ValueSpec(process="lava-lamp")
        with pytest.raises(InvalidParameterError):
            OrderingSpec(kind="backwards-ish")
        with pytest.raises(InvalidParameterError):
            DriftSpec(kind="sideways")

    def test_hot_cold_must_agree(self):
        with pytest.raises(InvalidParameterError, match="hot_fraction"):
            TenantsSpec(streams=4, hot_fraction=0.5, hot_weight=0.0)

    def test_stream_names(self):
        spec = ScenarioSpec(name="t", tenants=TenantsSpec(streams=3))
        assert spec.stream_names == ("t/000", "t/001", "t/002")

    def test_with_overrides(self):
        spec = load_bundled("steady-brownian")
        small = spec.with_overrides(length=512, seed=7)
        assert small.length == 512 and small.seed == 7
        assert small.arrival == spec.arrival

    def test_resolve_spec_path_and_name(self, tmp_path):
        spec = load_bundled("steady-brownian")
        path = tmp_path / "local.yaml"
        spec.with_overrides(name="local-copy").save(path)
        assert resolve_spec(str(path)).name == "local-copy"
        assert resolve_spec("steady-brownian").name == "steady-brownian"
        with pytest.raises(InvalidParameterError, match="no bundled scenario"):
            resolve_spec("no-such-scenario")

    @given(
        length=st.integers(8, 4000),
        seed=st.integers(0, 2**31 - 1),
        buckets=st.integers(1, 64),
        pattern=st.sampled_from(("steady", "bursty", "heavy-tailed")),
        process=st.sampled_from(("brownian", "uniform", "sine", "zipf")),
        kind=st.sampled_from(("natural", "sorted", "reverse", "shuffled")),
        drift=st.sampled_from(("none", "linear", "jump")),
        out_of_order=st.floats(0.0, 1.0),
        streams=st.integers(1, 5),
    )
    def test_yaml_round_trip_generated(
        self, length, seed, buckets, pattern, process, kind, drift,
        out_of_order, streams,
    ):
        spec = ScenarioSpec(
            name="gen",
            length=max(length, streams),
            seed=seed,
            buckets=buckets,
            arrival=ArrivalSpec(pattern=pattern),
            values=ValueSpec(
                process=process, drift=DriftSpec(kind=drift, magnitude=3.0)
            ),
            ordering=OrderingSpec(kind=kind, out_of_order=out_of_order),
            tenants=TenantsSpec(streams=streams),
        )
        assert ScenarioSpec.from_yaml(spec.to_yaml()) == spec


# -- deterministic generation -------------------------------------------------


class TestGenerate:
    def test_two_runs_byte_identical(self):
        for name in bundled_scenarios():
            spec = load_bundled(name)
            first = generate(spec)
            second = generate(spec)
            assert first.keys() == second.keys()
            for stream in first:
                assert np.array_equal(first[stream], second[stream])
                assert first[stream].dtype == second[stream].dtype

    def test_golden_fingerprints(self):
        for name, digest in GOLDEN_FINGERPRINTS.items():
            assert fingerprint(load_bundled(name)) == digest, name

    def test_seed_changes_stream(self):
        spec = load_bundled("steady-brownian")
        a = generate_stream(spec)
        b = generate_stream(spec.with_overrides(seed=spec.seed + 1))
        assert not np.array_equal(a, b)

    def test_streams_are_independent(self):
        spec = load_bundled("hot-cold-tenants")
        streams = generate(spec)
        arrays = list(streams.values())
        n = min(len(a) for a in arrays)
        assert not np.array_equal(arrays[0][:n], arrays[1][:n])

    def test_generator_seed_plumbing_byte_identical(self):
        """Regression for the shared-Generator seed plumbing.

        The data generators accept a ``numpy.random.Generator`` in place
        of an int seed and must consume *that* generator's stream, so a
        spec-level seed fans out deterministically over processes.
        """
        seq = np.random.SeedSequence([42, 0, 0])
        via_generator = brownian_walk(256, seed=np.random.default_rng(seq))
        again = brownian_walk(256, seed=np.random.default_rng(seq))
        assert via_generator == again
        # Passing the *same live* generator twice advances its state:
        # the two halves must differ (proof the shared stream is used).
        rng = np.random.default_rng(7)
        first = uniform_noise(128, seed=rng)
        second = uniform_noise(128, seed=rng)
        assert first != second
        # And an int seed still means an independent fresh generator.
        assert uniform_noise(128, seed=7) == uniform_noise(128, seed=7)

    def test_seedlike_exported(self):
        assert SeedLike is not None

    def test_child_rng_purposes_disjoint(self):
        spec = load_bundled("steady-brownian")
        a = child_rng(spec, 0, 0).integers(0, 1 << 30, 64)
        b = child_rng(spec, 0, 1).integers(0, 1 << 30, 64)
        c = child_rng(spec, 1, 0).integers(0, 1 << 30, 64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_lengths_sum_to_length(self):
        for name in bundled_scenarios():
            spec = load_bundled(name)
            lengths = stream_lengths(spec)
            assert sum(lengths) == spec.length
            assert all(n >= 1 for n in lengths)

    def test_hot_cold_split_is_skewed(self):
        spec = load_bundled("hot-cold-tenants")
        lengths = stream_lengths(spec)
        hot_streams = int(np.ceil(spec.tenants.hot_fraction
                                  * spec.tenants.streams))
        hot = sum(sorted(lengths, reverse=True)[:hot_streams])
        assert hot / spec.length == pytest.approx(
            spec.tenants.hot_weight, abs=0.05
        )

    def test_values_lie_in_universe(self):
        for name in bundled_scenarios():
            spec = load_bundled(name)
            for values in generate(spec).values():
                assert values.min() >= 0
                assert values.max() < spec.universe

    def test_zipf_universe_is_sparse(self):
        spec = load_bundled("heavy-tail-zipf")
        values = generate_stream(spec)
        support = spec.values.params["support"]
        assert len(np.unique(values)) <= support

    @given(
        kind=st.sampled_from(("natural", "sorted", "reverse", "shuffled",
                              "adversarial")),
        out_of_order=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 2000),
    )
    def test_orderings_preserve_multiset(self, kind, out_of_order, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4096, n)
        spec = OrderingSpec(kind=kind, out_of_order=out_of_order)
        reordered = apply_ordering(values, spec, np.random.default_rng(seed))
        assert sorted(reordered.tolist()) == sorted(values.tolist())

    def test_sorted_and_reverse_orderings(self):
        values = np.array([5, 1, 4, 2, 3])
        rng = np.random.default_rng(0)
        asc = apply_ordering(values, OrderingSpec(kind="sorted"), rng)
        desc = apply_ordering(values, OrderingSpec(kind="reverse"), rng)
        assert asc.tolist() == [1, 2, 3, 4, 5]
        assert desc.tolist() == [5, 4, 3, 2, 1]

    def test_adversarial_interleaves_extremes(self):
        values = np.arange(10)
        out = apply_ordering(
            values, OrderingSpec(kind="adversarial"), np.random.default_rng(0)
        )
        assert out.tolist() == [0, 9, 1, 8, 2, 7, 3, 6, 4, 5]

    def test_out_of_order_displacement_bounded(self):
        n, displacement = 5000, 16
        spec = OrderingSpec(kind="natural", out_of_order=0.3,
                            displacement=displacement)
        values = np.arange(n)
        out = apply_ordering(values, spec, np.random.default_rng(3))
        # Identity values: each item's new index reveals its displacement.
        shift = np.abs(out - np.arange(n))
        assert int(shift.max()) <= displacement
        assert int(shift.max()) > 0  # some reordering actually happened

    @given(
        pattern=st.sampled_from(("steady", "bursty", "heavy-tailed")),
        n=st.integers(1, 20000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_schedule_partitions_stream(self, pattern, n, seed):
        spec = ScenarioSpec(
            name="s", length=max(n, 1), arrival=ArrivalSpec(pattern=pattern)
        )
        schedule = batch_schedule(spec, n, np.random.default_rng(seed))
        assert sum(schedule) == n
        assert all(b >= 1 for b in schedule)

    def test_schedules_match_stream_lengths(self):
        spec = load_bundled("hot-cold-tenants")
        streams = generate(spec)
        for name, schedule in schedules(spec).items():
            assert sum(schedule) == len(streams[name])


# -- the runner ---------------------------------------------------------------


class TestRunner:
    def test_local_report_verified_against_oracle(self):
        spec = load_bundled("steady-brownian").with_overrides(length=2048)
        report = run_scenario(spec, "min-merge")
        assert report.all_bounds_ok
        (stream,) = report.streams
        assert stream.items == 2048
        assert stream.oracle_error > 0
        assert stream.true_error <= stream.error_bound
        assert stream.memory_bytes > 0
        assert stream.append.count == stream.batches
        payload = report.to_dict()
        assert payload["scenario"] == spec.name
        assert payload["streams"][0]["bound_ok"] is True

    def test_soa_backend_matches_object(self):
        # The run's kernel against the object-kernel oracle on its stream.
        spec = load_bundled("steady-brownian").with_overrides(length=2048)
        report = run_scenario(spec, "min-merge")
        (values,) = generate(spec).values()
        oracle = MinMergeReference(spec.buckets)
        oracle.extend(values.tolist())
        assert report.streams[0].error == oracle.error
        assert report.streams[0].buckets_used == oracle.bucket_count

    def test_parallel_run_bounded(self):
        spec = load_bundled("steady-brownian").with_overrides(length=4096)
        report = run_scenario(spec, "min-merge", workers=2)
        assert report.workers == 2
        assert report.all_bounds_ok

    def test_windowed_run_bounded(self):
        spec = load_bundled("out-of-order-window").with_overrides(length=3000)
        report = run_scenario(spec, "min-increment")
        assert report.all_bounds_ok

    def test_fault_scenario_recovers_bit_identical(self):
        spec = load_bundled("crash-recovery")
        report = run_scenario(spec, "min-merge")
        assert report.faults_fired == ("snapshot.rename",)
        (stream,) = report.streams
        assert stream.recovered_identical is True
        assert report.all_bounds_ok

    def test_service_target_matches_local(self):
        spec = load_bundled("steady-brownian").with_overrides(length=2048)
        local = run_scenario(spec, "min-merge")
        served = run_scenario(spec, "min-merge", target="service")
        assert served.streams[0].error == local.streams[0].error
        assert served.streams[0].buckets_used == local.streams[0].buckets_used
        assert served.streams[0].memory_bytes > 0

    def test_service_target_soa_backend(self):
        """The wire still accepts the deprecated backend config key."""
        from repro.service import ServiceClient, StreamEngine, StreamServer

        spec = load_bundled("steady-brownian").with_overrides(length=1024)
        local = run_scenario(spec, "min-merge")
        (values,) = generate(spec).values()
        with StreamEngine() as engine:
            server = StreamServer(engine).start_in_background()
            try:
                with ServiceClient("127.0.0.1", server.port) as client:
                    client.append(
                        "s", values, method="min-merge", buckets=spec.buckets,
                        backend="soa",
                    )
                    served = client.query("s", drain=True).histogram
            finally:
                server.stop()
        assert served.error == local.streams[0].error

    def test_invalid_runner_configs_rejected(self):
        spec = load_bundled("steady-brownian")
        with pytest.raises(InvalidParameterError):
            ScenarioRunner(target="cloud")
        with pytest.raises(InvalidParameterError):
            ScenarioRunner(target="service", workers=2)
        with pytest.raises(InvalidParameterError):
            run_scenario(spec, "min-increment", workers=2)
        windowed = load_bundled("out-of-order-window")
        with pytest.raises(InvalidParameterError):
            run_scenario(windowed, "min-merge", workers=2)


# -- differential conformance -------------------------------------------------


class TestConformance:
    @pytest.mark.parametrize("name", sorted(conformance_scenarios()))
    @pytest.mark.parametrize("method", ("min-merge", "pwl-min-merge"))
    def test_full_matrix_bit_identical(self, name, method):
        """The standing gate: every bundled scenario x both merge-capable
        methods through serial/parallel x scalar/batched ingest --
        bit-identical within each family, bounded against the DP-verified
        oracle."""
        spec = load_bundled(name)
        if spec.length > 4000:  # keep the per-PR matrix fast; nightly
            spec = spec.with_overrides(length=4000)  # runs full lengths
        result = check_conformance(spec, method)
        assert result.ok
        for cells in result.cells.values():
            assert "serial/scalar" in cells
            assert "serial/batch" in cells
            assert "parallel/pool" in cells
            assert "parallel/reference" in cells

    def test_windowed_scenario_serial_cells(self):
        spec = load_bundled("out-of-order-window").with_overrides(length=3000)
        result = check_conformance(spec, "min-increment")
        (cells,) = result.cells.values()
        assert set(cells) == {"serial/scalar", "serial/batch"}

    def test_fault_scenario_conformance_includes_recovery(self):
        result = check_conformance(load_bundled("crash-recovery"), "min-merge")
        assert result.recovered_identical is True

    def test_mismatch_is_reported_not_raised_by_run(self):
        spec = load_bundled("steady-brownian").with_overrides(length=512)
        result = run_conformance(spec, "min-merge")
        assert result.ok and result.mismatches == []
        assert result.to_dict()["cells"] == result.cell_count

    def test_conformance_scenarios_excludes_windowed(self):
        eligible = conformance_scenarios()
        assert "out-of-order-window" not in eligible
        assert len(eligible) >= 6


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_scenario_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in bundled_scenarios():
            assert name in out

    def test_scenario_run_text(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "crash-recovery", "--method", "min-merge"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bounds OK" in out
        assert "snapshot.rename" in out

    def test_scenario_run_json_with_conformance(self, capsys):
        import json

        from repro.cli import main

        code = main(
            ["scenario", "run", "steady-brownian.yaml", "--method",
             "min-merge", "--json", "--conformance"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_bounds_ok"] is True
        assert payload["conformance"]["ok"] is True
