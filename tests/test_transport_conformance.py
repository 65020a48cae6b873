"""Cross-transport conformance of the shared operation table.

JSON lines, binary frames and REST are codecs over one operation layer
(:mod:`repro.service.ops`).  Each case below runs the same requests over
all three transports, each against its own fresh durable engine, and
requires the same ``ok`` flag, error code and payload from every one --
plus the same engine state afterwards.  The cluster-router cases pin the
ops only a router serves and the ones it does not.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

np = pytest.importorskip("numpy")

from repro.service import (
    ClusterRouter,
    HttpFrontend,
    ServiceClient,
    StreamEngine,
    StreamServer,
)
from repro.service.errors import ServiceError, http_status
from repro.service.http import stream_path

TRANSPORTS = ("json", "binary", "rest")

_REST_ROUTES = {
    "query": ("GET", "{base}/histogram"),
    "stats": ("GET", "{base}/stats", "/v1/stats"),
    "checkpoint": ("POST", "{base}:checkpoint", "/v1/streams:checkpoint"),
    "append": ("POST", "{base}:append"),
    "adopt": ("POST", "{base}:adopt"),
    "release": ("POST", "{base}:release"),
    "streams": ("GET", "/v1/streams"),
    "drain": ("POST", "/v1/streams:drain"),
    "ping": ("GET", "/v1/ping"),
    "cluster": ("GET", "/v1/cluster"),
    "rebalance": ("POST", "/v1/cluster/rebalance"),
    "grow": ("POST", "/v1/cluster/grow"),
    "restart": ("POST", "/v1/cluster/restart"),
}


def _send_rest(port: int, op: str, args: dict) -> dict:
    """One op in its REST form (``docs/REST.md``); returns the body."""
    args = dict(args)
    stream = args.pop("stream", None)
    method, *paths = _REST_ROUTES.get(op, ("GET", f"/v1/{op}"))
    path = paths[0] if stream is not None else paths[-1]
    path = path.format(base=stream_path(stream) if stream is not None else "")
    if args.pop("drain", False):
        path += "?drain=1"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(args) if args else None,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        document = json.loads(response.read())
    finally:
        conn.close()
    expected = 200 if document["ok"] else http_status(document["error"])
    assert response.status == expected, (op, document)
    return document


def _send_tcp(client: ServiceClient, op: str, args: dict) -> dict:
    """One op as a JSON line or binary frame; returns the response.

    A numeric append list over the binary transport travels as a raw
    float64 ``OP_APPEND`` frame; everything else as a JSON request.
    """
    transport = client.transport
    try:
        if (
            op == "append"
            and transport.proto == 2
            and isinstance(args.get("values"), list)
            and all(type(v) in (int, float) for v in args["values"])
        ):
            config = {k: v for k, v in args.items() if k not in ("stream", "values")}
            return transport.append(
                args["stream"], np.asarray(args["values"], dtype=float), config
            )
        return transport.call({"op": op, **args})
    except ServiceError as exc:
        return {"ok": False, "error": str(exc.code), "message": exc.message}


class _Stacks:
    """One fresh engine per transport, each behind a TCP and a REST front."""

    def __init__(self, root) -> None:
        self._closers = []
        self.senders = {}
        for name in TRANSPORTS:
            engine = StreamEngine(checkpoint_dir=root / name)
            self._closers.append(engine.close)
            server = StreamServer(engine).start_in_background()
            self._closers.append(server.stop)
            front = HttpFrontend(engine).start_in_background()
            self._closers.append(front.stop)
            if name == "rest":
                self.senders[name] = (
                    lambda op, args, port=front.port: _send_rest(port, op, args)
                )
            else:
                client = ServiceClient(port=server.port, transport=name)
                self._closers.append(client.close)
                self.senders[name] = (
                    lambda op, args, client=client: _send_tcp(client, op, args)
                )

    def send(self, op: str, args: dict) -> dict:
        return {name: send(op, args) for name, send in self.senders.items()}

    def close(self) -> None:
        for close in reversed(self._closers):
            close()


@pytest.fixture()
def stacks(tmp_path):
    built = _Stacks(tmp_path)
    try:
        yield built
    finally:
        built.close()


_VALUES = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
_CREATE = (
    "append",
    {"stream": "s", "values": _VALUES, "method": "min-merge", "buckets": 4},
)

#: ``id -> (setup requests, probed request, error code or None)``.
CASES = {
    "append-creates": ([], _CREATE, None),
    "append-defaults": ([], ("append", {"stream": "s", "values": [1.5, 2.5]}), None),
    "append-existing": ([_CREATE], ("append", {"stream": "s", "values": [7.0]}), None),
    "append-scalar": ([_CREATE], ("append", {"stream": "s", "values": 7}), None),
    "query": ([_CREATE], ("query", {"stream": "s", "drain": True}), None),
    "stats-stream": ([_CREATE], ("stats", {"stream": "s"}), None),
    "stats-all": ([_CREATE], ("stats", {}), None),
    "checkpoint-stream": ([_CREATE], ("checkpoint", {"stream": "s"}), None),
    "checkpoint-all": ([_CREATE], ("checkpoint", {}), None),
    "streams": ([_CREATE], ("streams", {}), None),
    "drain": ([_CREATE], ("drain", {}), None),
    "ping": ([], ("ping", {}), None),
    "release": ([_CREATE], ("release", {"stream": "s"}), None),
    "adopt": (
        [_CREATE, ("release", {"stream": "s"})],
        ("adopt", {"stream": "s"}),
        None,
    ),
    "unknown-stream": ([], ("query", {"stream": "nope"}), "unknown-stream"),
    "empty": (
        [("append", {"stream": "s", "values": [], "method": "min-merge"})],
        ("query", {"stream": "s"}),
        "empty",
    ),
    "nan": (
        [_CREATE],
        ("append", {"stream": "s", "values": [1.0, float("nan")]}),
        "bad-request",
    ),
    "inf": (
        [_CREATE],
        ("append", {"stream": "s", "values": [float("-inf")]}),
        "bad-request",
    ),
    "bool-values": (
        [_CREATE],
        ("append", {"stream": "s", "values": True}),
        "bad-request",
    ),
    "bool-item": (
        [_CREATE],
        ("append", {"stream": "s", "values": [1, True]}),
        "bad-request",
    ),
    "missing-values": ([_CREATE], ("append", {"stream": "s"}), "bad-request"),
    "bad-method": (
        [],
        ("append", {"stream": "s", "values": [1.0], "method": "no-such-method"}),
        "invalid",
    ),
    "bad-buckets": (
        [],
        ("append", {"stream": "s", "values": [1.0], "buckets": "many"}),
        "invalid",
    ),
    "conflicting-config": (
        [_CREATE],
        ("append", {"stream": "s", "values": [1.0], "method": "min-increment"}),
        "invalid",
    ),
    "cluster-op-on-engine": ([], ("cluster", {}), "unknown-op"),
    "grow-on-engine": ([], ("grow", {"count": 1}), "unknown-op"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_transport_answers_alike(stacks, case):
    setup, (op, args), code = CASES[case]
    for setup_op, setup_args in setup:
        for name, response in stacks.send(setup_op, setup_args).items():
            assert response["ok"], (name, response)
    responses = stacks.send(op, args)
    assert responses["json"] == responses["binary"] == responses["rest"], responses
    assert responses["json"]["ok"] is (code is None)
    assert responses["json"].get("error") == code
    after = stacks.send("stats", {})
    assert after["json"] == after["binary"] == after["rest"]


def test_unknown_op_on_every_transport(stacks):
    responses = stacks.send("no-such-op", {})
    assert {r["error"] for r in responses.values()} == {"unknown-op"}


# -- a cluster router front ------------------------------------------------------


@pytest.fixture(scope="module")
def router(tmp_path_factory):
    with ClusterRouter(
        tmp_path_factory.mktemp("cluster"), workers=1, http_port=0
    ) as running:
        yield running


def _router_senders(router):
    clients = [ServiceClient(port=router.port, transport=t) for t in ("json", "binary")]
    senders = {
        "json": lambda op, args: _send_tcp(clients[0], op, args),
        "binary": lambda op, args: _send_tcp(clients[1], op, args),
        "rest": lambda op, args: _send_rest(router.http_port, op, args),
    }
    return clients, senders


class TestRouterFront:
    def test_worker_ops_answer_unknown_op_and_keep_the_connection(self, router):
        with socket.create_connection(("127.0.0.1", router.port), timeout=30.0) as raw:
            lines = raw.makefile("rb")
            for op in ("adopt", "release"):
                raw.sendall(json.dumps({"op": op, "stream": "s"}).encode() + b"\n")
                response = json.loads(lines.readline())
                assert response["ok"] is False
                assert response["error"] == "unknown-op"
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(lines.readline()) == {"ok": True, "pong": True}

    def test_cluster_ops_alike_on_every_transport(self, router):
        clients, senders = _router_senders(router)
        try:
            for op, args in (
                ("cluster", {}),
                ("adopt", {"stream": "s"}),
                ("restart", {}),
                ("rebalance", {"max_moves": "x"}),
            ):
                responses = {name: send(op, args) for name, send in senders.items()}
                assert responses["json"] == responses["binary"] == responses["rest"]
            assert responses["json"]["error"] == "bad-request"
        finally:
            for client in clients:
                client.close()

    def test_configless_append_makes_no_fan_out(self, router, monkeypatch):
        calls = []
        fan_out = router.fan_out
        monkeypatch.setattr(
            router, "fan_out", lambda payload: calls.append(payload) or fan_out(payload)
        )
        with ServiceClient(port=router.port) as client:
            assert client.append("fresh", [1.0, 2.0]).accepted == 2
            assert client.append("fresh", [3.0]).accepted == 1
            assert calls == []
            stats = client.stats("fresh")
        assert stats["method"] == "min-increment"  # the engine default
        assert stats["items_seen"] == 3
