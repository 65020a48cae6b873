"""ingest-served and cluster-readmostly: the service driven from outside.

Both workloads launch ``python -m repro serve`` as a subprocess and drive
it over two client connections from one closed-loop caller, which waits
for every ack before its next request.  The state directory is durable:
an ack means journaled, fsynced and applied.

* ``ingest-served`` -- a single-process server with periodic snapshots,
  starting from empty state.  Eight hot/cold-skewed streams, min-merge
  (SoA backend) and min-increment alternating; one binary-frame and one
  JSON-lines connection each own four of them and send about one query
  per eight appends.
* ``cluster-readmostly`` -- ``serve --workers 2``: a router and two worker
  processes booted over a state directory built beforehand (untimed)
  through the public engine API, sixteen streams with journal tails.  A
  binary and a REST connection each append to eight streams and query
  all sixteen, about four queries per append.

Each connection's operation sequence is fixed by the seed and covers
every stream it owns once.  One untimed warm-up pass comes first: every
stream then holds its whole generated stream, the same on every run of
the seed, and error and space are read there.  The timed loop repeats
the sequences (the streams keep growing) until ``--seconds`` have
passed.  The traced run adds the layer breakdown (see ``_layers``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import common
import gate
import tracing
from common import GateError, metric

OPS = ("append", "query")
#: A traced run fails the coverage check when the layer medians miss the
#: client-observed median by more than this share of it.
COVERAGE_TOLERANCE = 0.25
#: Most client requests must be matched with the server-side engine span
#: that served them for the breakdown to mean anything.
MIN_PAIRED = 0.9
#: Requests sent direct and routed per operation to measure the router hop.
HOP_PAIRS = 200
CHECKPOINT_EVERY = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    streams: int
    length: int
    transports: tuple
    #: Per connection: queries sent per append.  The count is exact in
    #: every sequence (only the targets are random), so the operation mix,
    #: and with it the ingest rate, does not change with the seed.
    queries_per_append: tuple
    cluster: bool


WORKLOADS = {
    # The binary connection is the main reader (a query per five
    # appends), the JSON one mostly writes (a query per 25): about one
    # query per eight appends overall, and the query percentiles fall
    # inside the binary connection's latencies instead of on the edge
    # between two transports of different cost.
    "ingest-served": Workload(
        "ingest-served", 8, 16_000, ("binary", "json"), (1 / 5, 1 / 25), False
    ),
    "cluster-readmostly": Workload(
        "cluster-readmostly", 16, 32_000, ("binary", "rest"), (4, 4), True
    ),
}


def _method(index: int) -> tuple:
    """Stream ``index``'s method and its stream config (beyond B and U)."""
    if index % 2 == 0:
        return "min-merge", {"backend": "soa"}
    return "min-increment", {}


@dataclass
class Op:
    kind: str
    stream: str
    batch: Optional[np.ndarray] = None


@dataclass
class Connection:
    """One client connection, its operation sequence, what it observed."""

    transport: str
    ops: List[Op]
    records: List[tuple] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    passes: int = 0
    items: int = 0
    encode_s: List[float] = field(default_factory=list)
    wire_bytes: int = 0


# -- inputs --------------------------------------------------------------------


def _inputs(wl: Workload, seed: int):
    from repro.scenarios import generate, schedules

    spec = common.seeded_spec(
        "hot-cold-tenants", seed, length=wl.length, tenants={"streams": wl.streams}
    )
    values = list(generate(spec).values())
    names = [f"s{i:02d}" for i in range(wl.streams)]
    batches = {}
    for name, stream, sizes in zip(names, values, schedules(spec).values()):
        cuts = np.cumsum(sizes)[:-1]
        batches[name] = np.split(stream, cuts)
    return spec, names, batches


def _config(spec, index: int) -> dict:
    method, extra = _method(index)
    return {"method": method, "buckets": spec.buckets, "universe": spec.universe, **extra}


def _sequence(wl, seed, conn_index, names, owned, batches) -> List[Op]:
    """One pass: every owned stream's batches, interleaved, plus queries.

    The next append goes to a stream drawn in proportion to its remaining
    batches, so hot and cold streams finish together.  Queries follow
    appends at the connection's fixed rate, each to a random stream.
    """
    rng = np.random.default_rng([seed, conn_index])
    remaining = {name: list(batches[name]) for name in owned}
    ops: List[Op] = []
    # The cluster's streams all exist at boot; a fresh server's stream
    # exists once its first append has been acknowledged.
    targets = list(names) if wl.cluster else []
    due = 0.0
    while any(remaining.values()):
        live = [n for n in owned if remaining[n]]
        weights = np.array([len(remaining[n]) for n in live], dtype=float)
        name = live[rng.choice(len(live), p=weights / weights.sum())]
        ops.append(Op("append", name, remaining[name].pop(0)))
        if name not in targets:
            targets.append(name)
        due += wl.queries_per_append[conn_index]
        while due >= 1.0:
            ops.append(Op("query", targets[rng.integers(len(targets))]))
            due -= 1.0
    return ops


# -- the closed loop -----------------------------------------------------------


def _connect(service, transport: str):
    from repro.service import ServiceClient

    if transport == "rest":
        return ServiceClient.from_url(f"http://127.0.0.1:{service.http_port}")
    return ServiceClient("127.0.0.1", service.port, transport=transport)


def _encode(transport: str, stream: str, batch: np.ndarray, config: dict) -> int:
    """Encode one append the way the client transport does; returns bytes."""
    from urllib.parse import urlencode

    from repro.service import wire

    if transport == "binary":
        head, body = wire.encode_append_payload({"stream": stream, **config}, batch)
        return len(head) + len(body)
    if transport == "json":
        line = json.dumps(
            {"op": "append", "stream": stream, "values": batch.tolist(), **config},
            separators=(",", ":"),
        )
        return len(line) + 1
    body = memoryview(np.ascontiguousarray(batch, dtype=np.float64)).cast("B")
    path = f"/v1/streams/-/{stream}:append?{urlencode(sorted(config.items()))}"
    return len(body) + len(path)


def _request(client, conn: Connection, op: Op, configs, ledgers, trace) -> bool:
    """One closed-loop request; records it and returns whether it succeeded."""
    if op.kind == "append" and trace:
        t0 = time.perf_counter()
        conn.wire_bytes += _encode(conn.transport, op.stream, op.batch, configs[op.stream])
        conn.encode_s.append(time.perf_counter() - t0)
    t0 = time.monotonic()
    try:
        if op.kind == "append":
            client.append(op.stream, op.batch, **configs[op.stream])
        else:
            client.query(op.stream)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        conn.records.append((op.kind, op.stream, t0, time.monotonic(), False, 0))
        conn.errors.append(f"{op.kind} {op.stream}: {type(exc).__name__}: {exc}")
        return False
    count = len(op.batch) if op.kind == "append" else 0
    conn.records.append((op.kind, op.stream, t0, time.monotonic(), True, count))
    if op.kind == "append":
        ledgers[op.stream].ack(op.batch)
        conn.items += len(op.batch)
    return True


#: ``ingest_items_s`` is the median of the ingest rates of these windows.
WINDOW_SECONDS = 0.5


def _loop(clients, conns, configs, ledgers, trace, done) -> None:
    """One caller drives the connections in turn until ``done()``.

    Each request waits for its ack before the next is sent, on either
    connection, so at most one request is in flight and its latency is
    the system's own, not time queued behind the other connection.
    """
    positions = [0] * len(conns)
    while True:
        for i, (conn, client) in enumerate(zip(conns, clients)):
            if not _request(client, conn, conn.ops[positions[i]], configs, ledgers, trace):
                return
            positions[i] += 1
            if positions[i] == len(conn.ops):
                positions[i] = 0
                conn.passes += 1
        if done():
            return


def _measure(service, bench, conns, ledgers, seconds, trace) -> dict:
    """Warm-up pass, then the timed closed loop.

    The untimed warm-up runs every connection's sequence once, so each
    stream then holds the same values on every run of the seed: error
    and space are read at that point.  Returns what the timed phase and
    that reading observed.
    """
    clients = []
    try:
        for conn in conns:
            clients.append(_connect(service, conn.transport))
        _loop(clients, conns, bench.configs, ledgers, False, lambda: all(c.passes for c in conns))
        warm = {"attempted": sum(len(c.records) for c in conns)}
        if not all(r[4] for c in conns for r in c.records):
            return {"warm": warm, "rates": []}
        warm.update(_snapshot_metrics(service, ledgers, bench.spec))
        for conn in conns:
            conn.records.clear()
            conn.items = conn.passes = 0
        start = time.monotonic()
        _loop(
            clients, conns, bench.configs, ledgers, trace,
            lambda: time.monotonic() - start >= seconds,
        )
        wall = time.monotonic() - start
    finally:
        for client in clients:
            client.close()
    return {"warm": warm, "rates": _window_rates(conns, start, wall)}


def _window_rates(conns, start: float, wall: float) -> List[float]:
    """Items acknowledged per second in each whole window of the phase."""
    windows = int(wall / WINDOW_SECONDS)
    items = [0] * windows
    for conn in conns:
        for _, _, _, end, ok, count in conn.records:
            index = int((end - start) / WINDOW_SECONDS)
            if ok and index < windows:
                items[index] += count
    return [n / WINDOW_SECONDS for n in items]


def _snapshot_metrics(service, ledgers, spec) -> dict:
    """Worst error ratio and summed summary bytes of the served state."""
    served, items, total_bytes, _ = _final_state(service, ledgers)
    ratio = gate.worst_ratio(
        gate.error_ratio(
            ledger.method, served[name].error, ledger.values(), spec.buckets, spec.epsilon
        )
        for name, ledger in ledgers.items()
    )
    return {"error_ratio_max": ratio, "summary_bytes": total_bytes}


def _final_state(service, ledgers):
    """The served histograms, items and summed summary bytes, via the wire."""
    from repro.service import ServiceClient

    served, items = {}, {}
    with ServiceClient("127.0.0.1", service.port, transport="binary") as client:
        for name in ledgers:
            served[name] = client.query(name).histogram
        stats = client.stats()
    for name in ledgers:
        items[name] = int(stats["streams"][name]["items_seen"])
    total_bytes = sum(int(row["memory_bytes"]) for row in stats["streams"].values())
    return served, items, total_bytes, stats


# -- state and launches ----------------------------------------------------------


def _prebuild(names, batches, configs, cluster_dir) -> None:
    """Untimed: every stream's first pass through the public engine API.

    ``checkpoint_every`` leaves each stream a snapshot plus a journal
    tail, so each boot restores and replays.
    """
    from repro.service import StreamEngine
    from repro.service.cluster.worker import tenants_dir

    with StreamEngine(
        checkpoint_dir=tenants_dir(cluster_dir), checkpoint_every=CHECKPOINT_EVERY
    ) as engine:
        for name in names:
            config = configs[name]
            handle = engine.stream(
                name,
                method=config["method"],
                buckets=config["buckets"],
                universe=config["universe"],
                backend=config.get("backend", "object"),
            )
            for batch in batches[name]:
                handle.append(batch)


def _launch(wl, state_dir, *, trace_dir=None, metrics=False):
    args = ["--port", "0", "--checkpoint-every", str(CHECKPOINT_EVERY)]
    if wl.cluster:
        args += ["--workers", "2", "--http-port", "0"]
    if metrics:
        args.append("--metrics")
    return common.Service(args, state_dir, trace_dir=trace_dir)


class Run:
    """One workload at one seed: inputs, stream configs, state directories.

    ``template`` is the prebuilt cluster state every boot starts from (a
    fresh copy each time), or ``None`` to boot from empty state.
    """

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.spec, self.names, self.batches = _inputs(wl, seed)
        self.configs = {n: _config(self.spec, i) for i, n in enumerate(self.names)}
        self.template = None
        if wl.cluster:
            self.template = common.fresh_dir("template")
            _prebuild(self.names, self.batches, self.configs, self.template)

    def state(self, label: str) -> str:
        path = os.path.join(common.STATE_ROOT, label)
        shutil.rmtree(path, ignore_errors=True)
        if self.template is not None:
            shutil.copytree(self.template, path)
        else:
            os.makedirs(path)
        return path

    def ledgers(self) -> Dict[str, gate.StreamLedger]:
        ledgers = {
            n: gate.StreamLedger(n, self.configs[n]["method"])
            for n in self.names
        }
        if self.template is not None:
            for n in self.names:
                for batch in self.batches[n]:
                    ledgers[n].ack(batch)
        return ledgers

    def connections(self) -> List[Connection]:
        conns = []
        for c, transport in enumerate(self.wl.transports):
            owned = [n for i, n in enumerate(self.names) if i % 2 == c]
            conns.append(
                Connection(
                    transport,
                    _sequence(self.wl, self.seed, c, self.names, owned, self.batches),
                )
            )
        return conns


def _latencies(conns, kind):
    """Latencies of one kind of request, in the order they were sent."""
    records = sorted(
        (r for c in conns for r in c.records if r[0] == kind and r[4]), key=lambda r: r[2]
    )
    return [r[3] - r[2] for r in records]


def _drive(bench, service, seconds, *, trace=False, extra=None) -> dict:
    """Run the closed loop against a booted service, then gate the result."""
    conns = bench.connections()
    ledgers = bench.ledgers()
    measured = _measure(service, bench, conns, ledgers, seconds, trace)
    rss = sum(common.vm_hwm_mb(pid) for pid in service.pids())
    hop = extra(service, bench, ledgers) if extra is not None else {}
    attempted = measured["warm"]["attempted"] + sum(len(c.records) for c in conns)
    failed = sum(1 for c in conns for r in c.records if not r[4])
    gate.no_failures(attempted, failed, [e for c in conns for e in c.errors])
    served, items, _, stats = _final_state(service, ledgers)
    gate.verify_served(
        ledgers, served, items, buckets=bench.spec.buckets, epsilon=bench.spec.epsilon
    )
    return {
        "conns": conns,
        "rate": common.median(measured["rates"]),
        "rss": rss,
        "attempted": attempted,
        "stats": stats,
        "hop": hop,
        **measured["warm"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, report: dict) -> dict:
    wl = WORKLOADS[workload]
    bench = Run(wl, seed)
    report["inputs"] = common.provenance(bench.spec)
    if trace:
        return _traced(bench, seconds, report)

    def make(i):
        return _launch(wl, bench.state(f"boot{i}"))

    service, setup, setup_samples = common.launch_median(make)
    try:
        result = _drive(bench, service, seconds)
    finally:
        service.stop()
    conns = result["conns"]
    appends = _latencies(conns, "append")
    queries = _latencies(conns, "query")
    report["attempted"] = result["attempted"]
    report["failed"] = 0
    report["samples"] = {
        "append": len(appends),
        "query": len(queries),
        "setup": len(setup_samples),
        "passes": {c.transport: c.passes for c in conns},
    }
    return {
        "setup_s": metric(setup, "s"),
        "ingest_items_s": metric(result["rate"], "items/s"),
        "append_p50_ms": metric(common.block_percentile_ms(appends, 50), "ms"),
        "append_p95_ms": metric(common.block_percentile_ms(appends, 95), "ms"),
        "query_p50_ms": metric(common.block_percentile_ms(queries, 50), "ms"),
        "query_p95_ms": metric(common.block_percentile_ms(queries, 95), "ms"),
        "error_ratio_max": metric(result["error_ratio_max"], "ratio"),
        "summary_bytes": metric(result["summary_bytes"], "bytes"),
        "rss_mb": metric(result["rss"], "MB"),
    }


# -- the traced run --------------------------------------------------------------


def _phase(bench, label, seconds, *, trace_dir=None, metrics=False, extra=None) -> dict:
    """Boot once, run the closed loop and gate it."""
    service = _launch(bench.wl, bench.state(label), trace_dir=trace_dir, metrics=metrics)
    try:
        return _drive(bench, service, seconds, trace=trace_dir is not None, extra=extra)
    finally:
        service.stop()


def _hop(service, bench, ledgers) -> dict:
    """Identical requests sent to the owning worker directly and via the router.

    Appends are acknowledged by both paths, so each one enters the
    stream's ledger in the order it was sent.
    """
    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1", service.port, transport="binary") as client:
        owners = {n: row["worker"] for n, row in client.stats()["streams"].items()}
    ports = {}
    for worker in set(owners.values()):
        path = os.path.join(service.state_dir, "workers", f"{worker}.json")
        with open(path, encoding="utf-8") as handle:
            ports[worker] = json.load(handle)["port"]
    direct = {w: ServiceClient("127.0.0.1", p, transport="binary") for w, p in ports.items()}
    routed = ServiceClient("127.0.0.1", service.port, transport="binary")
    samples = {(op, path): [] for op in OPS for path in ("direct", "routed")}
    try:
        for i in range(2 * HOP_PAIRS):
            op = OPS[i % 2]
            name = bench.names[(i // 2) % len(bench.names)]
            batch = bench.batches[name][(i // 2) % len(bench.batches[name])]
            order = ("direct", "routed") if (i // 2) % 2 == 0 else ("routed", "direct")
            for path in order:
                client = direct[owners[name]] if path == "direct" else routed
                t0 = time.monotonic()
                if op == "append":
                    client.append(name, batch, **bench.configs[name])
                    ledgers[name].ack(batch)
                else:
                    client.query(name)
                samples[(op, path)].append(time.monotonic() - t0)
    finally:
        routed.close()
        for client in direct.values():
            client.close()
    counts = {}
    for worker in owners.values():
        counts[worker] = counts.get(worker, 0) + 1
    out = {
        f"cluster.hop_ms.{op}": metric(
            common.percentile_ms(samples[(op, "routed")], 50)
            - common.percentile_ms(samples[(op, "direct")], 50),
            "ms",
        )
        for op in OPS
    }
    out["cluster.stream_skew"] = metric(
        max(counts.values()) / (sum(counts.values()) / len(counts)), "ratio"
    )
    return out


def _worker_boot_seconds(bench, launches: int = 3) -> float:
    """Launch to published endpoint of one worker over the prebuilt state."""
    from repro.service.cluster.worker import port_file

    samples = []
    for i in range(launches):
        state = bench.state(f"worker-boot{i}")
        start = time.monotonic()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.cluster.worker",
                "--cluster-dir", state, "--name", "w0", "--ring", "w0,w1",
                "--checkpoint-every", str(CHECKPOINT_EVERY),
            ],
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            path = port_file(state, "w0")
            while True:
                if process.poll() is not None:
                    raise GateError(f"worker exited with {process.returncode} while booting")
                try:
                    with open(path, encoding="utf-8") as handle:
                        if json.load(handle).get("pid") == process.pid:
                            break
                except (FileNotFoundError, ValueError):
                    pass
                if time.monotonic() - start > 60:
                    raise GateError("worker did not publish its port within 60 s")
                time.sleep(0.002)
            samples.append(time.monotonic() - start)
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
    return common.median(samples)


def _p50(values) -> float:
    return common.median(values) if values else 0.0


def _pair(conns, spans):
    """Match each client request with the engine span that served it.

    The span must carry the request's stream and lie inside the request's
    client-side interval; each span serves at most one request.
    """
    import bisect

    index: Dict[tuple, list] = {}
    for span in spans:
        if span.name in ("engine.append", "engine.histogram"):
            op = "append" if span.name == "engine.append" else "query"
            index.setdefault((op, span.key), []).append(span)
    starts = {}
    for key, group in index.items():
        group.sort(key=lambda s: s.start)
        starts[key] = [s.start for s in group]
    used = set()
    pairs = {}
    for conn in conns:
        for kind, stream, c0, c1, _, _ in conn.records:
            key = (kind, stream)
            group = index.get(key, [])
            i = bisect.bisect_left(starts.get(key, []), c0)
            match = None
            while i < len(group) and group[i].start <= c1:
                if group[i].end <= c1 and id(group[i]) not in used:
                    match = group[i]
                    break
                i += 1
            pairs.setdefault((conn.transport, kind), []).append((c1 - c0, match))
            if match is not None:
                used.add(id(match))
    return pairs


def _breakdown(pairs, within) -> tuple:
    """Per transport and operation: layer self times on the blocking path.

    Returns ``(layers, coverage)``; ``layers[(t, op)]`` maps each layer
    to its median in seconds over the typical requests: those whose
    client-observed latency lies between the 40th and 60th percentiles.
    Their layer medians should add up to the observed median; what they
    leave over is reported as unattributed.
    """
    layers: Dict[tuple, Dict[str, float]] = {}
    coverage: Dict[tuple, dict] = {}
    for (transport, op), items in pairs.items():
        matched = [(seconds, span) for seconds, span in items if span is not None]
        if len(matched) < MIN_PAIRED * len(items):
            raise GateError(
                f"{transport} {op}: only {len(matched)} of {len(items)} requests "
                "matched a server-side engine span"
            )
        observed = _p50([seconds for seconds, _ in matched])
        ordered = sorted(seconds for seconds, _ in matched)
        low = ordered[int(0.4 * (len(ordered) - 1))]
        high = ordered[int(0.6 * (len(ordered) - 1))]
        parts: Dict[str, list] = {}
        for seconds, span in matched:
            if not low <= seconds <= high:
                continue
            kids = within(span)
            kernel = sum(k.seconds for k in kids if k.name.startswith("kernel."))
            journal = sum(k.seconds for k in kids if k.name == "journal.append")
            snapshot = sum(k.seconds for k in kids if k.name == "store.save")
            ingest = sum(k.seconds for k in kids if k.name == "store.ingest")
            row = {
                "transport": seconds - span.seconds,
                "engine": span.self_seconds,
                "kernel": kernel,
            }
            if op == "append":
                row["journal"] = journal
                row["store"] = ingest - journal - kernel
                row["snapshot"] = snapshot
            for layer, value in row.items():
                parts.setdefault(layer, []).append(value)
        medians = {layer: _p50(values) for layer, values in parts.items()}
        leftover = observed - sum(medians.values())
        layers[(transport, op)] = medians
        coverage[(transport, op)] = {
            "observed_ms": observed * 1e3,
            "unattributed_ms": leftover * 1e3,
            "paired": len(matched) / len(items),
            "dominant": max(medians, key=medians.get),
            "layers_ms": {k: v * 1e3 for k, v in medians.items()},
        }
        if abs(leftover) > COVERAGE_TOLERANCE * observed:
            raise GateError(
                f"{transport} {op}: layer medians leave {leftover * 1e3:.3f} ms of "
                f"{observed * 1e3:.3f} ms unattributed"
            )
    return layers, coverage


#: Which module each blocking-path layer of the breakdown stands for.
LAYER_MODULES = {
    "transport": "repro.service.wire/server/http/client (transport)",
    "engine": "repro.service.engine",
    "kernel": "repro.core",
    "journal": "repro.resilience (journal)",
    "store": "repro.resilience (store)",
    "snapshot": "repro.resilience (store) + repro.checkpoint (snapshot)",
}


def _layers(spans, conns, stats) -> tuple:
    named = tracing.by_name(spans)
    within = tracing.children(spans)
    layers, coverage = _breakdown(_pair(conns, spans), within)
    out: Dict[str, dict] = {}
    for (transport, op), medians in layers.items():
        out[f"transport.self_ms.{transport}.{op}"] = metric(medians["transport"] * 1e3, "ms")
        out[f"trace.unattributed_ms.{transport}.{op}"] = metric(
            coverage[(transport, op)]["unattributed_ms"], "ms"
        )

    def seconds(name):
        return [s.seconds for s in named.get(name, [])]

    def extras(name):
        return [s.extra for s in named.get(name, []) if s.extra is not None]

    appends = named.get("engine.append", [])
    queries = named.get("engine.histogram", [])
    out["engine.append_self_us"] = metric(_p50([s.self_seconds for s in appends]) * 1e6, "us")
    out["engine.histogram_us"] = metric(_p50(seconds("engine.histogram")) * 1e6, "us")
    counters = stats.get("metrics", {}).get("counters", {})
    hits = sum(v for k, v in counters.items() if k.endswith(".query_cache_hits"))
    misses = sum(v for k, v in counters.items() if k.endswith(".query_cache_misses"))
    if not counters:
        # Cluster workers run without --metrics: a query whose engine span
        # contains no kernel histogram call was served from the cache.
        misses = sum(
            1 for s in queries if any(k.name.startswith("kernel.") for k in within(s))
        )
        hits = len(queries) - misses
    out["engine.query_cache_hit_ratio"] = metric(hits / max(1, hits + misses), "ratio")
    journaled = sum(extras("store.ingest"))
    if journaled:
        out["resilience.journal_append_us_per_kitem"] = metric(
            sum(seconds("journal.append")) / journaled * 1e9, "us"
        )
        out["resilience.journal_bytes_per_item"] = metric(
            sum(extras("journal.append")) / journaled, "count"
        )
        out["resilience.fsyncs_per_append"] = metric(
            len(named.get("os.fsync", [])) / len(appends), "count"
        )
    if named.get("store.save"):
        out["resilience.snapshot_ms"] = metric(_p50(seconds("store.save")) * 1e3, "ms")
        out["resilience.snapshot_bytes"] = metric(_p50(extras("store.save")), "count")
        out["checkpoint.state_dict_ms"] = metric(
            _p50(seconds("checkpoint.state_dict")) * 1e3, "ms"
        )
    recovered = named.get("store.recover", [])
    if recovered:
        total = sum(s.seconds for s in recovered)
        out["resilience.recover_ms_per_stream"] = metric(total / len(recovered) * 1e3, "ms")
        out["resilience.replay_items_s"] = metric(sum(extras("store.recover")) / total, "items/s")
        out["checkpoint.restore_ms"] = metric(_p50(seconds("checkpoint.restore")) * 1e3, "ms")
    if named.get("wire.decode"):
        out["wire.decode_us_per_frame"] = metric(_p50(seconds("wire.decode")) * 1e6, "us")
    kernel_total = sum(
        s.seconds for name, group in named.items() if name.startswith("kernel.") for s in group
    )
    for family, kernel in (("min-merge", "min-merge-soa"), ("min-increment", "min-increment")):
        extend = named.get(f"kernel.extend.{family}", [])
        items = sum(s.extra for s in extend)
        if items:
            out[f"core.extend_ns_per_item.{kernel}"] = metric(
                sum(s.seconds for s in extend) / items * 1e9, "ns"
            )
        hist = seconds(f"kernel.histogram.{family}")
        if hist:
            out[f"core.histogram_us.{kernel}"] = metric(_p50(hist) * 1e6, "us")
        if kernel_total:
            out[f"core.time_share.{kernel}"] = metric(
                (sum(s.seconds for s in extend) + sum(hist)) / kernel_total, "ratio"
            )
        merges = sum(
            v
            for k, v in counters.items()
            if k.endswith(".merges") and stats["streams"].get(k[: -len(".merges")], {}).get("method") == family
        )
        if merges and items:
            out[f"core.merges_per_kitem.{kernel}"] = metric(merges / items * 1e3, "count")
    for conn in conns:
        if conn.encode_s:
            out[f"client.encode_us.{conn.transport}"] = metric(_p50(conn.encode_s) * 1e6, "us")
            out[f"transport.bytes_per_item.{conn.transport}"] = metric(
                conn.wire_bytes / conn.items, "count"
            )
    return out, coverage


def _traced(bench, seconds: float, report: dict) -> dict:
    """An untraced phase, then the traced one, then per-layer metrics."""
    wl = bench.wl
    untraced = _phase(bench, "untraced", seconds / 3)
    trace_dir = common.fresh_dir("spans")
    traced = _phase(
        bench,
        "traced",
        seconds,
        trace_dir=trace_dir,
        metrics=not wl.cluster,
        extra=_hop if wl.cluster else None,
    )
    conns = traced["conns"]
    spans = tracing.load_spans(trace_dir)
    out, coverage = _layers(spans, conns, traced["stats"])
    out.update(traced["hop"])
    if wl.cluster:
        out["cluster.worker_boot_s"] = metric(_worker_boot_seconds(bench), "s")
    out["api.import_s"] = metric(common.import_seconds(), "s")
    out["trace.overhead_ratio"] = metric(traced["rate"] / untraced["rate"], "ratio")
    report["attempted"] = traced["attempted"]
    report["failed"] = 0
    report["samples"] = {
        f"{t}.{op}": sum(1 for c in conns if c.transport == t for r in c.records if r[0] == op)
        for t in wl.transports
        for op in OPS
    }
    report["coverage"] = {f"{t}.{op}": v for (t, op), v in coverage.items()}
    report["dominant_layer"] = {
        key: LAYER_MODULES[v["dominant"]] for key, v in report["coverage"].items()
    }
    return out
