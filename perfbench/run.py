"""The repository's benchmark: one command, three seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kernel-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics.  Either way every
output is checked against the exact oracle first (``gate.py``); a failed
check fails the run and no metric is reported.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Lines before it print each metric with its unit and sample count, the
environment record, and (traced) the per-layer breakdown.  See
``perfbench/README.md`` for the workloads and what each one stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("kernel-mix", "ingest-served", "cluster-readmostly")
#: Client connections each workload opens (recorded in the environment).
CONNECTIONS = {"kernel-mix": 0, "ingest-served": 2, "cluster-readmostly": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_sources():
        print(
            f"no program sources under {common.SRC}: run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    common.import_repro()
    # A terminated run still unwinds, so every service it launched stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the benchmark and, by inheritance, every process it
    # starts.  A closed loop hands each request from process to process;
    # on a shared VM, a hand-off to the other CPU waits on whatever the
    # hypervisor and the neighbours are doing there.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    trace = bool(args.trace)
    report = {
        "env": common.environment(
            args.workload, args.seed, trace, CONNECTIONS[args.workload]
        )
    }
    report["env"]["cpu_affinity"] = [cpu]
    report["env"]["cpu_probe_ms"] = [common.cpu_probe_ms()]
    try:
        if args.workload == "kernel-mix":
            import kernel_mix

            metrics = kernel_mix.run(args.seed, args.seconds, trace, report)
        else:
            import served

            metrics = served.run(args.workload, args.seed, args.seconds, trace, report)
        if trace:
            metrics = common.complete_layers(metrics)
        common.check_metrics(metrics)
    except common.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(common.STATE_ROOT, ignore_errors=True)
    report["env"]["cpu_probe_ms"].append(common.cpu_probe_ms())
    samples = report.pop("samples", {})
    for name, entry in sorted(metrics.items()):
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']:8s}")
    print(f"samples behind the percentiles: {json.dumps(samples)}")
    report["env"]["samples"] = samples
    print(json.dumps({k: v for k, v in report.items() if k not in ("attempted", "failed")}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
