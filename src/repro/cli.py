"""Command-line interface: ``repro-histogram`` / ``python -m repro``.

Subcommands::

    repro-histogram list-datasets
    repro-histogram summarize --dataset dow-jones --algorithm min-merge -B 32
    repro-histogram stats --dataset dow-jones --algorithm min-increment -B 32
    repro-histogram parallel-bench --dataset brownian --method min-merge -B 32
    repro-histogram fig5 [--paper]
    repro-histogram fig6 [--paper]
    repro-histogram fig7 [--paper]
    repro-histogram fig8 [--paper]
    repro-histogram fig9 [--paper]
    repro-histogram sliding-window
    repro-histogram wavelet
    repro-histogram recover --dir checkpoints/
    repro-histogram serve --port 7607 --checkpoint-dir state/ --workers 3
    repro-histogram scenario list
    repro-histogram scenario run bursty-drift --method min-merge

The ``figN`` subcommands regenerate the series behind the corresponding
figure in the paper; ``--paper`` switches from the quick interactive sizes
to the paper's exact workload sizes (slower in pure Python).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api import PARALLEL_METHODS
from repro.data.datasets import dataset_by_name, list_datasets
from repro.harness import experiments
from repro.harness.reporting import render_metrics, render_series
from repro.harness.runner import ALGORITHM_NAMES, make_algorithm, run_stream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-histogram",
        description=(
            "Streaming maximum-error (L-infinity) histograms -- reproduction "
            "of Buragohain, Shrivastava, Suri (ICDE 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="list the registered datasets")

    summarize = sub.add_parser(
        "summarize", help="stream a dataset through one algorithm"
    )
    summarize.add_argument(
        "--dataset", default="brownian", help="dataset name (see list-datasets)"
    )
    summarize.add_argument(
        "--algorithm",
        default="min-merge",
        choices=ALGORITHM_NAMES,
        help="algorithm to run",
    )
    summarize.add_argument("-B", "--buckets", type=int, default=32)
    summarize.add_argument("--epsilon", type=float, default=0.2)
    summarize.add_argument("-n", "--points", type=int, default=16384)
    summarize.add_argument(
        "--window", type=int, default=None,
        help="window length (sliding-window algorithm only)",
    )

    stats = sub.add_parser(
        "stats",
        help="stream a dataset with instrumentation on and print the metrics",
    )
    stats.add_argument(
        "--dataset", default="brownian", help="dataset name (see list-datasets)"
    )
    stats.add_argument(
        "--algorithm",
        default="min-increment",
        choices=ALGORITHM_NAMES,
        help="algorithm to instrument",
    )
    stats.add_argument("-B", "--buckets", type=int, default=32)
    stats.add_argument("--epsilon", type=float, default=0.2)
    stats.add_argument("-n", "--points", type=int, default=16384)
    stats.add_argument(
        "--window", type=int, default=None,
        help="window length (sliding-window algorithms only)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit the raw registry snapshot as JSON instead of tables",
    )

    parallel = sub.add_parser(
        "parallel-bench",
        help="compare serial vs sharded multi-core ingest on one dataset",
    )
    parallel.add_argument(
        "--dataset", default="brownian", help="dataset name (see list-datasets)"
    )
    parallel.add_argument(
        "--method",
        default="min-merge",
        choices=PARALLEL_METHODS,
        help="merge-capable method to shard",
    )
    parallel.add_argument("-B", "--buckets", type=int, default=32)
    parallel.add_argument("-n", "--points", type=int, default=200_000)
    parallel.add_argument(
        "--workers", default="auto",
        help='worker count (int) or "auto" (default)',
    )
    parallel.add_argument(
        "--backend", default=None, choices=("thread", "process"),
        help="force an executor backend (default: pick automatically)",
    )
    parallel.add_argument(
        "--json", action="store_true",
        help="emit the comparison as JSON instead of the text report",
    )

    for fig in ("fig5", "fig6", "fig7", "fig8", "fig9"):
        fig_parser = sub.add_parser(fig, help=f"regenerate the {fig} series")
        fig_parser.add_argument(
            "--paper", action="store_true",
            help="use the paper's full workload sizes (slow in pure Python)",
        )

    sub.add_parser("sliding-window", help="Section 4.1 sliding-window series")
    sub.add_parser("wavelet", help="Section 1.2 wavelet-vs-histogram series")

    plot = sub.add_parser(
        "plot", help="ASCII chart of a dataset and one summary's reconstruction"
    )
    plot.add_argument("--dataset", default="merced")
    plot.add_argument(
        "--algorithm", default="min-merge", choices=ALGORITHM_NAMES
    )
    plot.add_argument("-B", "--buckets", type=int, default=32)
    plot.add_argument("--epsilon", type=float, default=0.2)
    plot.add_argument("-n", "--points", type=int, default=4096)
    plot.add_argument("--width", type=int, default=72)
    plot.add_argument("--height", type=int, default=16)

    recover = sub.add_parser(
        "recover",
        help="rebuild a summary from a checkpoint directory and report on it",
    )
    recover.add_argument(
        "--dir", required=True,
        help="checkpoint directory written by repro.resilience.CheckpointStore",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="emit the recovery report as JSON instead of text",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant streaming service (JSON + binary TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7607,
        help="TCP port (0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None,
        help="root directory for per-stream crash-consistent checkpoints",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="snapshot a stream after this many ingested items",
    )
    serve.add_argument(
        "--max-pending", type=int, default=100_000,
        help="per-stream bound on queued-but-unapplied items (backpressure)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="cluster worker processes (0 = single-process server; N >= 1 "
        "boots a consistent-hash sharded router fronting N engine "
        "processes, see docs/CLUSTER.md)",
    )
    serve.add_argument(
        "--ingest-workers", type=int, default=0,
        help="ingest worker threads inside a single-process engine "
        "(0 = apply batches inline; ignored in cluster mode, whose "
        "workers always apply inline for ack-means-durable)",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="instrument every stream into a shared metrics registry",
    )
    serve.add_argument(
        "--no-binary", action="store_true",
        help="pin every connection to JSON lines (disable the negotiated "
        "binary wire protocol; see docs/WIRE.md)",
    )
    serve.add_argument(
        "--http-port", type=int, default=None,
        help="also mount the HTTP/REST facade on this port (0 = pick a "
        "free port and print it; see docs/REST.md)",
    )
    serve.add_argument(
        "--rebalance", action="store_true",
        help="cluster mode only: run the load-driven auto-rebalancer "
        "(moves hot streams between workers via live handoff)",
    )
    serve.add_argument(
        "--rebalance-interval", type=float, default=2.0,
        help="seconds between auto-rebalancer passes (with --rebalance)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="run YAML workload scenarios (see docs/SCENARIOS.md)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list the bundled scenarios")
    scenario_run = scenario_sub.add_parser(
        "run", help="simulate one scenario and report error vs the oracle"
    )
    scenario_run.add_argument(
        "spec",
        help="scenario YAML path or bundled scenario name (see scenario list)",
    )
    scenario_run.add_argument(
        "--method", default="min-merge",
        help="registry method to drive (default: min-merge)",
    )
    scenario_run.add_argument(
        "--workers", type=int, default=None,
        help="shard ingest across N workers (merge-capable methods only)",
    )
    scenario_run.add_argument(
        "--target", default="local", choices=("local", "service"),
        help="run in-process or through an ephemeral TCP service",
    )
    scenario_run.add_argument(
        "--conformance", action="store_true",
        help="also run the differential conformance matrix on the scenario",
    )
    scenario_run.add_argument(
        "--json", action="store_true",
        help="emit the ScenarioReport as JSON instead of text",
    )

    plan = sub.add_parser(
        "plan",
        help="capacity planning: buckets/memory needed for a target error",
    )
    plan.add_argument("--dataset", default="merced")
    plan.add_argument("-n", "--points", type=int, default=4096)
    plan.add_argument(
        "--target-error", type=float, required=True,
        help="maximum L-infinity error the deployment may incur",
    )
    plan.add_argument("--epsilon", type=float, default=0.2)
    return parser


def _cmd_list_datasets() -> str:
    lines = ["name        paper-length  description"]
    for spec in list_datasets():
        lines.append(
            f"{spec.name:<12}{spec.paper_length:>12,}  {spec.description}"
        )
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> str:
    values = dataset_by_name(args.dataset).loader(args.points)
    window = args.window if args.window is not None else max(1, args.points // 4)
    algo = make_algorithm(
        args.algorithm,
        buckets=args.buckets,
        epsilon=args.epsilon,
        window=window,
    )
    result = run_stream(algo, values, name=args.algorithm)
    return (
        f"dataset     : {args.dataset} ({result.items:,} points)\n"
        f"algorithm   : {result.algorithm} (B={args.buckets}, eps={args.epsilon})\n"
        f"error       : {result.error:g}\n"
        f"buckets     : {result.buckets}\n"
        f"memory      : {result.memory_bytes:,} bytes\n"
        f"ingest time : {result.seconds:.3f} s "
        f"({result.items_per_second:,.0f} items/s)"
    )


def _cmd_stats(args: argparse.Namespace) -> str:
    import json

    values = dataset_by_name(args.dataset).loader(args.points)
    window = args.window if args.window is not None else max(1, args.points // 4)
    algo = make_algorithm(
        args.algorithm,
        buckets=args.buckets,
        epsilon=args.epsilon,
        window=window,
        metrics=True,
    )
    result = run_stream(algo, values, name=args.algorithm)
    if args.json:
        payload = {
            "dataset": args.dataset,
            "algorithm": result.algorithm,
            "items": result.items,
            "error": result.error,
            "metrics": result.metrics,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    head = (
        f"dataset     : {args.dataset} ({result.items:,} points)\n"
        f"algorithm   : {result.algorithm} (B={args.buckets}, eps={args.epsilon})\n"
        f"error       : {result.error:g}\n"
        f"ingest time : {result.seconds:.3f} s "
        f"({result.items_per_second:,.0f} items/s)"
    )
    return head + "\n\n" + render_metrics(
        result.metrics, title=f"{args.algorithm} metrics"
    )


def _cmd_parallel_bench(args: argparse.Namespace) -> str:
    import json
    import time

    from repro.parallel import ParallelSummarizer, available_cpus

    try:
        workers = int(args.workers)
    except ValueError:
        workers = args.workers

    values = dataset_by_name(args.dataset).loader(args.points)

    serial = make_algorithm(args.method, buckets=args.buckets, hull_epsilon=None)
    serial_result = run_stream(serial, values, name=args.method)

    summarizer = ParallelSummarizer(
        args.method,
        buckets=args.buckets,
        workers=workers,
        backend=args.backend,
    )
    start = time.perf_counter()
    parallel_summary = summarizer.summarize(values)
    parallel_seconds = time.perf_counter() - start
    shards = len(summarizer.plan(len(values)))
    parallel_hist = parallel_summary.histogram()
    speedup = (
        serial_result.seconds / parallel_seconds
        if parallel_seconds > 0 else float("inf")
    )
    parallel_rate = (
        len(values) / parallel_seconds if parallel_seconds > 0 else float("inf")
    )
    if args.json:
        payload = {
            "dataset": args.dataset,
            "method": args.method,
            "items": len(values),
            "buckets": args.buckets,
            "cpus": available_cpus(),
            "shards": shards,
            "serial": {
                "seconds": serial_result.seconds,
                "error": serial_result.error,
                "buckets": serial_result.buckets,
            },
            "parallel": {
                "seconds": parallel_seconds,
                "error": parallel_summary.error,
                "buckets": len(parallel_hist),
            },
            "speedup": speedup,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    return (
        f"dataset     : {args.dataset} ({len(values):,} points)\n"
        f"method      : {args.method} (B={args.buckets}, "
        f"{available_cpus()} CPUs, {shards} shards)\n"
        f"serial      : {serial_result.seconds:.3f} s "
        f"({serial_result.items_per_second:,.0f} items/s), "
        f"error={serial_result.error:g}, buckets={serial_result.buckets}\n"
        f"parallel    : {parallel_seconds:.3f} s "
        f"({parallel_rate:,.0f} items/s), "
        f"error={parallel_summary.error:g}, buckets={len(parallel_hist)}\n"
        f"speedup     : {speedup:.2f}x"
    )


def _cmd_recover(args: argparse.Namespace) -> str:
    import json

    from repro.checkpoint import state_dict
    from repro.resilience import CheckpointStore

    store = CheckpointStore(args.dir)
    summary = store.recover()
    report = store.last_recovery
    kind = state_dict(summary).get("kind", type(summary).__name__)
    # Fleets expose per-stream errors rather than a scalar surface.
    error = getattr(summary, "error", None)
    error = None if callable(error) else error
    buckets = getattr(summary, "bucket_count", None)
    if args.json:
        payload = {
            "directory": store.directory,
            "kind": kind,
            "generation": report.generation,
            "snapshot_items": report.snapshot_items,
            "journal_records": report.journal_records,
            "replayed_items": report.replayed_items,
            "skipped_generations": report.skipped_generations,
            "items_seen": summary.items_seen,
            "error": error,
            "buckets": buckets,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    journal_line = (
        f"journal     : {report.journal_records} record(s), "
        f"{report.replayed_items} item(s) replayed"
        if store.journal is not None
        else "journal     : none"
    )
    skipped = (
        f" ({report.skipped_generations} corrupt generation(s) skipped)"
        if report.skipped_generations
        else ""
    )
    lines = [
        f"directory   : {store.directory}",
        f"summary     : {kind}",
        f"generation  : {report.generation}{skipped}",
        journal_line,
        f"items seen  : {summary.items_seen:,} "
        f"({report.snapshot_items:,} from the snapshot)",
    ]
    if error is not None:
        lines.append(f"error       : {error:g}")
    if buckets is not None:
        lines.append(f"buckets     : {buckets}")
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers:
        return _cmd_serve_cluster(args)
    from repro.service import StreamEngine, StreamServer

    engine = StreamEngine(
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        max_pending=args.max_pending,
        workers=args.ingest_workers,
        metrics=args.metrics,
    )
    from repro.service import wire

    protocols = (wire.PROTO_JSON,) if args.no_binary else wire.ALL_PROTOCOLS
    server = StreamServer(
        engine, host=args.host, port=args.port, protocols=protocols
    )
    recovered = engine.streams()
    if recovered:
        print(f"recovered {len(recovered)} stream(s): {', '.join(recovered)}")
    http = None
    if args.http_port is not None:
        from repro.service.http import HttpFrontend

        http = HttpFrontend(
            engine, host=args.host, port=args.http_port
        ).start_in_background()
        print(f"REST facade on http://{args.host}:{http.port}/v1", flush=True)
    if args.port == 0:
        # Bind first so the caller learns the chosen port before blocking.
        server.start_in_background()
        print(f"listening on {args.host}:{server.port}", flush=True)
        try:
            server._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            if http is not None:
                http.stop()
            server.stop()
            engine.close()
        return 0
    print(f"listening on {args.host}:{args.port}", flush=True)
    try:
        server.run()
    finally:
        if http is not None:
            http.stop()
        engine.close()
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``serve --workers N``: a sharded multi-process cluster front."""
    import signal
    import tempfile

    from repro.service import ClusterRouter, wire

    cluster_dir = args.checkpoint_dir or tempfile.mkdtemp(
        prefix="repro-cluster-"
    )
    protocols = (wire.PROTO_JSON,) if args.no_binary else wire.ALL_PROTOCOLS
    router = ClusterRouter(
        cluster_dir,
        workers=args.workers,
        host=args.host,
        port=args.port,
        checkpoint_every=args.checkpoint_every,
        protocols=protocols,
        http_port=args.http_port,
    )
    # SIGTERM must tear down the worker processes too, not orphan them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    router.start()
    rebalancer = None
    if args.rebalance:
        from repro.service.cluster.rebalance import Rebalancer

        rebalancer = Rebalancer(
            router, interval=args.rebalance_interval
        ).start()
    try:
        print(
            f"cluster state in {cluster_dir}; "
            f"workers: {', '.join(router.workers())}"
        )
        if router.http is not None:
            print(
                f"REST facade on http://{args.host}:{router.http_port}/v1",
                flush=True,
            )
        if rebalancer is not None:
            print(
                f"auto-rebalancer running every "
                f"{args.rebalance_interval:g}s",
                flush=True,
            )
        print(f"listening on {args.host}:{router.port}", flush=True)
        router.server._thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        if rebalancer is not None:
            rebalancer.stop()
        router.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list-datasets":
        print(_cmd_list_datasets())
    elif args.command == "summarize":
        print(_cmd_summarize(args))
    elif args.command == "stats":
        print(_cmd_stats(args))
    elif args.command == "parallel-bench":
        print(_cmd_parallel_bench(args))
    elif args.command == "fig5":
        print(render_series(experiments.fig5_memory_vs_buckets(paper_scale=args.paper)))
    elif args.command == "fig6":
        series = experiments.fig6_memory_vs_stream_size(paper_scale=args.paper)
        print(render_series(series))
    elif args.command == "fig7":
        print(render_series(experiments.fig7_error_vs_buckets(paper_scale=args.paper)))
    elif args.command == "fig8":
        print(render_series(experiments.fig8_running_time(paper_scale=args.paper)))
    elif args.command == "fig9":
        print(render_series(experiments.fig9_pwl_vs_serial(paper_scale=args.paper)))
    elif args.command == "sliding-window":
        print(render_series(experiments.sliding_window_experiment()))
    elif args.command == "wavelet":
        print(render_series(experiments.wavelet_comparison()))
    elif args.command == "recover":
        print(_cmd_recover(args))
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "scenario":
        return _cmd_scenario(args)
    elif args.command == "plot":
        print(_cmd_plot(args))
    elif args.command == "plan":
        print(_cmd_plan(args))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        bundled_scenarios,
        check_conformance,
        load_bundled,
        resolve_spec,
        run_scenario,
    )

    if args.scenario_command == "list":
        lines = ["name                     length  streams  description"]
        for name in bundled_scenarios():
            spec = load_bundled(name)
            lines.append(
                f"{name:<24}{spec.length:>7,}{spec.tenants.streams:>9}  "
                f"{' '.join(spec.description.split())}"
            )
        print("\n".join(lines))
        return 0

    spec = resolve_spec(args.spec)
    report = run_scenario(
        spec,
        args.method,
        target=args.target,
        workers=args.workers,
    )
    conformance = None
    if args.conformance:
        conformance = check_conformance(spec, args.method)
    if args.json:
        payload = report.to_dict()
        if conformance is not None:
            payload["conformance"] = conformance.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.all_bounds_ok else 1
    lines = [
        f"scenario    : {spec.name} ({report.items:,} items, "
        f"{len(report.streams)} stream(s))",
        f"method      : {args.method} (B={spec.buckets}, "
        f"target={args.target}"
        + (f", workers={args.workers}" if args.workers else "")
        + (f", window={spec.window}" if spec.window else "")
        + ")",
    ]
    for stream in report.streams:
        recovered = (
            ""
            if stream.recovered_identical is None
            else f", recovered-identical={stream.recovered_identical}"
        )
        lines.append(
            f"  {stream.stream}: error={stream.error:g} "
            f"(true={stream.true_error:g}, oracle={stream.oracle_error:g}, "
            f"bound-ok={stream.bound_ok}), buckets={stream.buckets_used}, "
            f"memory={stream.memory_bytes:,} B, "
            f"{stream.throughput_items_per_second:,.0f} items/s, "
            f"p99={stream.append.p99_ms:.3f} ms{recovered}"
        )
    lines.append(
        f"verdict     : bounds {'OK' if report.all_bounds_ok else 'VIOLATED'} "
        f"(worst error / bound ratio {report.worst_error_ratio:.4f})"
    )
    if report.faults_fired:
        lines.append(f"faults fired: {', '.join(report.faults_fired)}")
    if conformance is not None:
        lines.append(
            f"conformance : {'OK' if conformance.ok else 'FAILED'} "
            f"({conformance.cell_count} cells)"
        )
    print("\n".join(lines))
    return 0 if report.all_bounds_ok else 1


def _cmd_plan(args: argparse.Namespace) -> str:
    from repro.analysis import plan_summary

    sample = dataset_by_name(args.dataset).loader(args.points)
    plan = plan_summary(sample, args.target_error, epsilon=args.epsilon)
    lines = [
        f"sample      : {args.dataset} ({plan.sample_size:,} points)",
        f"target error: {plan.target_error:g}",
        "buckets needed (offline duals): serial "
        f"{plan.serial_buckets_needed}, PWL {plan.pwl_buckets_needed}",
        "",
        f"{'algorithm':<20}{'buckets':>8}{'memory(B)':>11}  notes",
    ]
    for option in plan.options:
        lines.append(
            f"{option.algorithm:<20}{option.buckets:>8}"
            f"{option.projected_memory_bytes:>11,}  {option.notes}"
        )
    best = plan.best()
    lines.append("")
    lines.append(
        f"recommended: {best.algorithm} with B={best.buckets} "
        f"(~{best.projected_memory_bytes:,} bytes)"
    )
    return "\n".join(lines)


def _cmd_plot(args: argparse.Namespace) -> str:
    from repro.harness.ascii_plot import ascii_chart

    values = dataset_by_name(args.dataset).loader(args.points)
    window = max(1, args.points // 4)
    algo = make_algorithm(
        args.algorithm,
        buckets=args.buckets,
        epsilon=args.epsilon,
        window=window,
    )
    result = run_stream(algo, values, name=args.algorithm)
    try:
        hist = algo.histogram()
    except TypeError:  # REHIST materializes from the original values
        hist = algo.histogram(values)
    approx = hist.reconstruct()
    covered = values[hist.beg:hist.end + 1]
    chart = ascii_chart(
        covered,
        approx,
        width=args.width,
        height=args.height,
        title=(
            f"{args.dataset} (n={args.points:,}) via {args.algorithm} "
            f"(B={args.buckets}): error={result.error:g}, "
            f"memory={result.memory_bytes:,} B"
        ),
    )
    return chart


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
