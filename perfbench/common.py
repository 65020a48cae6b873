"""Shared plumbing of the benchmark: paths, inputs, processes, statistics.

Everything the three workloads have in common lives here: where the
repository's sources and the benchmark's scratch state sit inside the
checkout, how a bundled scenario is re-seeded and fingerprinted, how a
service process is launched, probed and stopped, and how latency samples
become percentiles and metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch state (service checkpoint dirs, trace dumps).  It lives inside
#: the checkout on purpose: the benchmark writes nowhere else.
STATE_ROOT = os.path.join(ROOT, ".bench_state")
HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")

#: Setup is timed this many times per run and reported as the median, so
#: one slow interpreter launch cannot move ``setup_s`` on its own.
SETUP_LAUNCHES = 5


class GateError(RuntimeError):
    """The correctness gate rejected the run; no metric may be reported."""


def have_sources() -> bool:
    """Whether the checkout holds the program the benchmark exercises."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_repro() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(trace_dir: Optional[str] = None) -> dict:
    """Environment for a process under test.

    ``trace_dir`` puts the tracing hook on the path; every Python process
    started with it (the server, the router and each worker it spawns)
    then records spans into that directory.
    """
    env = dict(os.environ)
    paths = [SRC]
    if trace_dir is not None:
        paths.insert(0, HOOK_DIR)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def fresh_dir(*parts: str) -> str:
    """An empty directory under the benchmark's state root."""
    path = os.path.join(STATE_ROOT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- inputs --------------------------------------------------------------------


def seeded_spec(name: str, seed: int, **overrides):
    """A bundled scenario with its seed replaced by the benchmark's seed.

    ``overrides`` replace top-level spec fields; ``tenants`` and
    ``arrival`` may be given as dicts of the nested fields to change.
    """
    from repro.scenarios import load_bundled

    spec = load_bundled(name)
    for nested in ("tenants", "arrival"):
        if nested in overrides:
            overrides[nested] = dataclasses.replace(
                getattr(spec, nested), **overrides[nested]
            )
    return dataclasses.replace(spec, seed=int(seed), **overrides)


def provenance(spec) -> dict:
    """What a later reader needs to regenerate one workload's inputs."""
    from repro.scenarios import fingerprint

    return {
        "scenario": spec.name,
        "seed": spec.seed,
        "length": spec.length,
        "streams": spec.tenants.streams,
        "fingerprint": fingerprint(spec),
    }


# -- statistics ----------------------------------------------------------------


def percentile_ms(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of samples in seconds, in milliseconds."""
    from repro.loadgen.latency import percentile

    return percentile(sorted(samples), q) * 1e3


#: Latency percentiles are taken per block of at least this many
#: consecutive samples (ten beyond p95), at most BLOCKS blocks a run.
BLOCK_SAMPLES = 200
BLOCKS = 10


def block_percentile_ms(samples: Sequence[float], q: float) -> float:
    """The median over consecutive blocks of each block's percentile.

    ``samples`` are in the order they were taken.  A neighbour that takes
    the machine's CPU for part of a run slows the requests of a few
    blocks; the median over blocks does not move with them, where one
    percentile over the whole run would.
    """
    if len(samples) < BLOCK_SAMPLES:
        raise GateError(
            f"{len(samples)} latency samples: p95 needs at least "
            f"{BLOCK_SAMPLES} so that ten lie beyond it; lengthen --seconds"
        )
    count = min(BLOCKS, len(samples) // BLOCK_SAMPLES)
    size = len(samples) // count
    return median(
        [percentile_ms(samples[i * size : (i + 1) * size], q) for i in range(count)]
    )


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def check_metrics(metrics: Dict[str, dict]) -> None:
    """Every metric finite, named in the benchmark's alphabet, with a unit."""
    import re

    for name, entry in metrics.items():
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            raise GateError(f"metric name {name!r} is outside [A-Za-z0-9_.-]")
        if set(entry) != {"value", "unit"} or not entry["unit"]:
            raise GateError(f"metric {name!r} lacks a value or a unit")
        if not math.isfinite(entry["value"]):
            raise GateError(f"metric {name!r} is not finite: {entry['value']}")


# -- processes -----------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise GateError(f"no VmHWM for pid {pid}")


class Service:
    """One ``repro serve`` process: launch, endpoints, peak RSS, stop.

    ``launched`` and ``ready`` are ``time.monotonic()`` stamps: the
    launch and the first accepted request, whose difference is one
    ``setup_s`` sample.
    """

    def __init__(
        self, args: List[str], state_dir: str, *, trace_dir: Optional[str] = None
    ):
        self.state_dir = state_dir
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--checkpoint-dir", state_dir, *args],
            cwd=ROOT,
            env=child_env(trace_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.cluster = "--workers" in args
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self.output: List[str] = []
        self.ready = None
        # Drain the service's output for its whole life, so a chatty
        # service can never block on a full pipe.
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._read_banner()
            self._first_request()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _read_banner(self) -> None:
        deadline = time.monotonic() + 60.0
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise GateError("service did not start within 60 s") from None
            if line is None:
                raise GateError(
                    "service exited before listening:\n" + "".join(self.output)
                )
            if line.startswith("REST facade on http://"):
                self.http_port = int(line.rsplit(":", 1)[1].split("/")[0])
            elif line.startswith("listening on "):
                self.port = int(line.strip().rsplit(":", 1)[1])

    def _first_request(self) -> None:
        from repro.service import ServiceClient

        with ServiceClient("127.0.0.1", self.port, transport="binary") as client:
            client.streams()
        self.ready = time.monotonic()

    @property
    def setup_seconds(self) -> float:
        return self.ready - self.launched

    def pids(self) -> List[int]:
        """The processes under test: the server, or router plus workers."""
        pids = [self.process.pid]
        if self.cluster:
            workers = os.path.join(self.state_dir, "workers")
            for name in sorted(os.listdir(workers)):
                if name.endswith(".json"):
                    with open(os.path.join(workers, name)) as handle:
                        pids.append(int(json.load(handle)["pid"]))
        return pids

    def stop(self) -> None:
        """Stop cleanly (the cluster also stops its workers) and wait."""
        if self.process.poll() is None:
            # SIGINT unwinds the single-process server through its
            # KeyboardInterrupt path; the cluster front tears its workers
            # down on SIGTERM.
            self.process.send_signal(signal.SIGTERM if self.cluster else signal.SIGINT)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self._reader.join(timeout=10.0)
        self.process.stdout.close()


def launch_median(make, launches: int = SETUP_LAUNCHES):
    """Launch ``make()`` several times; keep the last, report the median.

    Every launch but the last is stopped straight away.  Returns
    ``(service, median setup seconds, samples)``.
    """
    samples = []
    service = None
    for i in range(launches):
        service = make(i)
        samples.append(service.setup_seconds)
        if i < launches - 1:
            service.stop()
    return service, median(samples), samples


def import_seconds(launches: int = 3) -> float:
    """Median time ``import repro`` takes in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(launches):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            check=True,
            capture_output=True,
            text=True,
        )
        samples.append(float(out.stdout.strip()))
    return median(samples)


# -- the environment record ----------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.blake2b(digest_size=12)
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(name.encode())
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def cpu_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop on this process's CPU.

    The record keeps it from before and after the run: on a shared VM
    the CPU's speed drifts with the neighbours' load, and a comparison
    can then set aside runs made while the CPU was much slower.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def environment(workload: str, seed: int, trace: bool, connections: int) -> dict:
    """The record later comparisons use to reject mismatched runs."""
    import numpy

    os.makedirs(STATE_ROOT, exist_ok=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "state_dir_fs": _filesystem(STATE_ROOT),
        "client_connections": connections,
    }


# -- the per-layer metric set --------------------------------------------------

KERNEL_NAMES = ("min-merge-object", "min-merge-soa", "min-increment", "pwl-min-merge", "pwl")
TRANSPORT_NAMES = ("binary", "json", "rest")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit.

    A workload that does not cross a layer reports 0 for it (kernel-mix
    writes no journal; only cluster-readmostly has a router hop).
    """
    units = {"api.import_s": "s"}
    for kernel in KERNEL_NAMES:
        units[f"core.extend_ns_per_item.{kernel}"] = "ns"
        units[f"core.insert_ns_per_item.{kernel}"] = "ns"
        units[f"core.time_share.{kernel}"] = "ratio"
        units[f"core.merges_per_kitem.{kernel}"] = "count"
        units[f"core.histogram_us.{kernel}"] = "us"
    units.update(
        {
            "resilience.journal_append_us_per_kitem": "us",
            "resilience.journal_bytes_per_item": "count",
            "resilience.fsyncs_per_append": "count",
            "resilience.snapshot_ms": "ms",
            "resilience.snapshot_bytes": "count",
            "checkpoint.state_dict_ms": "ms",
            "resilience.recover_ms_per_stream": "ms",
            "resilience.replay_items_s": "items/s",
            "checkpoint.restore_ms": "ms",
            "engine.append_self_us": "us",
            "engine.histogram_us": "us",
            "engine.query_cache_hit_ratio": "ratio",
            "wire.decode_us_per_frame": "us",
        }
    )
    for transport in TRANSPORT_NAMES:
        for op in ("append", "query"):
            units[f"transport.self_ms.{transport}.{op}"] = "ms"
            units[f"trace.unattributed_ms.{transport}.{op}"] = "ms"
        units[f"transport.bytes_per_item.{transport}"] = "count"
        units[f"client.encode_us.{transport}"] = "us"
    units.update(
        {
            "cluster.hop_ms.append": "ms",
            "cluster.hop_ms.query": "ms",
            "cluster.worker_boot_s": "s",
            "cluster.stream_skew": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def complete_layers(measured: Dict[str, dict]) -> Dict[str, dict]:
    """The full per-layer set: measured values, 0 for layers not crossed."""
    units = per_layer_units()
    unknown = set(measured) - set(units)
    if unknown:
        raise GateError(f"per-layer metrics outside the declared set: {sorted(unknown)}")
    for name, entry in measured.items():
        if entry["unit"] != units[name]:
            raise GateError(f"{name}: unit {entry['unit']} != declared {units[name]}")
    return {name: measured.get(name, metric(0.0, unit)) for name, unit in units.items()}
