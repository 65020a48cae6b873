"""HTTP/REST facade tests (``docs/REST.md``).

Pins the tentpole guarantees of the REST surface:

* REST, JSON, and binary clients hitting the same engine observe
  bit-identical histograms (and all match the one-shot ``summarize()``
  oracle) -- the facade is a view, not a fork.
* The unified error taxonomy maps to its fixed HTTP statuses
  (``backpressure`` -> 429 + ``Retry-After``, ``unknown-stream`` -> 404,
  malformed bodies -> 400, ``empty`` -> 409, wrong method -> 405).
* ``Idempotency-Key`` replays an acked append instead of double-applying.
* ``ServiceClient.from_url`` selects the transport family by scheme and
  the typed client API is identical over REST.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

np = pytest.importorskip("numpy")

from repro.api import summarize
from repro.exceptions import BackpressureError, InvalidParameterError
from repro.service import (
    HttpFrontend,
    ServiceClient,
    StreamEngine,
    StreamServer,
)
from repro.service.errors import (
    EmptyStreamError,
    ServiceError,
    UnknownStreamError,
)
from repro.service.http import PROTO_HTTP


@pytest.fixture()
def stack():
    """One engine fronted by both a TCP server and the REST facade."""
    engine = StreamEngine()
    server = StreamServer(engine).start_in_background()
    front = HttpFrontend(engine).start_in_background()
    try:
        yield engine, server, front
    finally:
        front.stop()
        server.stop()
        engine.close()


def _raw(front, method, path, body=None, headers=None):
    """One raw HTTP round trip; returns (status, headers, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=10.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), json.loads(data)
    finally:
        conn.close()


def _segments(histogram):
    return [[s.beg, s.end, s.left, s.right] for s in histogram.segments]


class TestRestSurface:
    def test_meta_reports_capability_matrix(self, stack):
        _engine, _server, front = stack
        status, _headers, body = _raw(front, "GET", "/v1/meta")
        assert status == 200 and body["ok"]
        assert body["server"]["name"] == "repro-histogram"
        assert body["server"]["protocols"] == [PROTO_HTTP]
        assert body["server"]["cluster"] is False
        from repro import api

        assert body["methods"] == api.methods()
        assert any("append" in e for e in body["endpoints"])

    def test_json_append_query_stats_checkpointless(self, stack):
        _engine, _server, front = stack
        values = [4095.0] + [float(i % 4096) for i in range(499)]
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/sku-1:append?method=min-merge&buckets=16",
            body=json.dumps(values),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200 and body["accepted"] == 500
        status, _h, body = _raw(
            front, "GET", "/v1/streams/-/sku-1/histogram?drain=1"
        )
        assert status == 200
        oracle = summarize(values, 16, method="min-merge")
        served = body["histogram"]
        assert served["error"] == oracle.error
        status, _h, body = _raw(front, "GET", "/v1/streams/-/sku-1/stats")
        assert status == 200 and body["stats"]["items_seen"] == 500
        status, _h, body = _raw(front, "GET", "/v1/streams")
        assert body["streams"] == ["sku-1"]

    def test_json_object_body_carries_config(self, stack):
        _engine, _server, front = stack
        document = {"values": [1, 2, 3], "method": "min-merge", "buckets": 4}
        status, _h, body = _raw(
            front, "POST", "/v1/streams/-/obj:append", body=json.dumps(document)
        )
        assert status == 200 and body["accepted"] == 3

    def test_tenant_prefix_addresses_namespaced_stream(self, stack):
        engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/acme/sku:append?method=min-merge&buckets=4",
            body=json.dumps([1.0, 2.0]),
        )
        assert status == 200
        assert body["stream"] == "acme/sku"
        assert "acme/sku" in engine.streams()

    def test_octet_stream_append_is_bit_identical_across_transports(
        self, stack
    ):
        """REST raw-float64, binary TCP, and the oracle all agree."""
        _engine, server, front = stack
        values = np.asarray(
            [4095.0] + [float((37 * j) % 4096) for j in range(1, 800)]
        )
        half = len(values) // 2
        # First half over REST as raw little-endian float64 bytes ...
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/mix:append?method=min-merge&buckets=16",
            body=values[:half].tobytes(),
            headers={"Content-Type": "application/octet-stream"},
        )
        assert status == 200 and body["accepted"] == half
        # ... second half over the negotiated binary TCP transport.
        with ServiceClient(port=server.port) as tcp:
            assert tcp.info.proto == 2
            assert tcp.append("mix", values[half:]).accepted == len(values) - half
            via_tcp = tcp.query("mix", drain=True).histogram
        with ServiceClient.from_url(f"http://127.0.0.1:{front.port}") as rest:
            via_rest = rest.query("mix", drain=True).histogram
        oracle = summarize(values, 16, method="min-merge")
        assert _segments(via_rest) == _segments(via_tcp) == _segments(oracle)
        assert via_rest.error == via_tcp.error == oracle.error

    def test_checkpoint_routes(self, stack, tmp_path):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        front = HttpFrontend(engine).start_in_background()
        try:
            _raw(
                front,
                "POST",
                "/v1/streams/-/d:append?method=min-merge&buckets=4",
                body=json.dumps([1, 2, 3]),
            )
            status, _h, body = _raw(
                front, "POST", "/v1/streams/-/d:checkpoint"
            )
            assert status == 200 and body["generations"]["d"] >= 1
            status, _h, body = _raw(front, "POST", "/v1/streams:checkpoint")
            assert status == 200 and "d" in body["generations"]
        finally:
            front.stop()
            engine.close()


class TestErrorMapping:
    def test_unknown_stream_is_404(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(front, "GET", "/v1/streams/-/nope/histogram")
        assert status == 404
        assert body == {
            "ok": False,
            "error": "unknown-stream",
            "message": body["message"],
        }
        assert "nope" in body["message"]

    def test_unknown_route_is_404_unknown_op(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(front, "GET", "/v1/does-not-exist")
        assert status == 404 and body["error"] == "unknown-op"

    def test_method_mismatch_is_405_with_allow(self, stack):
        _engine, _server, front = stack
        status, headers, body = _raw(front, "GET", "/v1/streams/-/x:append")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert body["error"] == "bad-request"

    def test_malformed_json_body_is_400(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front, "POST", "/v1/streams/-/x:append", body=b"not json"
        )
        assert status == 400 and body["error"] == "bad-request"

    def test_ragged_octet_stream_is_400(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/x:append",
            body=b"\x00" * 11,  # not a whole number of float64s
            headers={"Content-Type": "application/octet-stream"},
        )
        assert status == 400 and body["error"] == "bad-request"

    def test_non_finite_values_rejected_400(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/x:append?method=min-merge&buckets=4",
            body=json.dumps([1.0, float("inf")]).replace("Infinity", "1e999"),
        )
        assert status == 400

    def test_empty_stream_is_409(self, stack):
        _engine, _server, front = stack
        _raw(
            front,
            "POST",
            "/v1/streams/-/e:append?method=min-merge&buckets=4",
            body=json.dumps([]),
        )
        status, _h, body = _raw(front, "GET", "/v1/streams/-/e/histogram")
        assert status == 409 and body["error"] == "empty"

    def test_cluster_routes_404_on_single_server(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(front, "GET", "/v1/cluster")
        assert status == 404 and body["error"] == "unknown-op"

    def test_backpressure_is_429_with_retry_after(self):
        gate = threading.Event()
        engine = StreamEngine(
            workers=1, max_pending=10, apply_hook=lambda s, n: gate.wait(10)
        )
        front = HttpFrontend(engine).start_in_background()
        try:
            _raw(
                front,
                "POST",
                "/v1/streams/-/b:append?method=min-merge&buckets=4",
                body=json.dumps(list(range(8))),
            )
            status, headers, body = _raw(
                front,
                "POST",
                "/v1/streams/-/b:append",
                body=json.dumps(list(range(8))),
            )
            assert status == 429
            assert body["error"] == "backpressure"
            assert headers["Retry-After"] == "1"
        finally:
            gate.set()
            front.stop()
            engine.close()


class _ClusterStub:
    """The two cluster methods the grow/restart routes call, recorded."""

    def __init__(self) -> None:
        self.calls = []

    def grow(self, count: int = 1) -> dict:
        self.calls.append(("grow", count))
        return {"workers": [], "moved": []}

    def restart_worker(self, name: str) -> dict:
        self.calls.append(("restart", name))
        return {"worker": name}


@pytest.fixture()
def cluster_front():
    stub = _ClusterStub()
    front = HttpFrontend(stub).start_in_background()
    try:
        yield stub, front
    finally:
        front.stop()


class TestClusterRouteBodies:
    def test_object_body_is_read_whatever_the_content_type(self, cluster_front):
        # curl -d sends application/x-www-form-urlencoded by default.
        stub, front = cluster_front
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/cluster/restart",
            body=json.dumps({"worker": "w0"}),
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert status == 200 and body["worker"] == "w0"
        assert stub.calls == [("restart", "w0")]

    def test_array_body_is_400_not_an_ignored_argument(self, cluster_front):
        stub, front = cluster_front
        status, _h, body = _raw(
            front, "POST", "/v1/cluster/grow", body=json.dumps([3])
        )
        assert status == 400 and body["error"] == "bad-request"
        assert stub.calls == []

    def test_grow_count_is_capped(self, cluster_front):
        from repro.service.ops import MAX_GROW

        stub, front = cluster_front
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/cluster/grow",
            body=json.dumps({"count": MAX_GROW + 1}),
        )
        assert status == 400 and body["error"] == "invalid"
        status, _h, body = _raw(
            front, "POST", "/v1/cluster/grow", body=json.dumps({"count": 2})
        )
        assert status == 200
        assert stub.calls == [("grow", 2)]

    def test_routes_without_arguments_ignore_the_body(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams:drain",
            body=b"not json",
            headers={"Content-Type": "text/plain"},
        )
        assert status == 200 and body["drained"] is True


class TestIdempotencyKey:
    def test_replay_returns_cached_ack_without_reapplying(self, stack):
        engine, _server, front = stack
        headers = {"Idempotency-Key": "batch-7"}
        status, h1, body1 = _raw(
            front,
            "POST",
            "/v1/streams/-/idem:append?method=min-merge&buckets=4",
            body=json.dumps([1, 2, 3]),
            headers=headers,
        )
        assert status == 200 and body1["accepted"] == 3
        assert "Idempotency-Replayed" not in h1
        status, h2, body2 = _raw(
            front,
            "POST",
            "/v1/streams/-/idem:append?method=min-merge&buckets=4",
            body=json.dumps([1, 2, 3]),
            headers=headers,
        )
        assert status == 200
        assert h2["Idempotency-Replayed"] == "true"
        assert body2["accepted"] == 3
        engine.drain()
        assert engine.items_seen("idem") == 3  # applied once, not twice

    def test_failed_append_is_not_cached(self, stack):
        engine, _server, front = stack
        headers = {"Idempotency-Key": "k1"}
        status, _h, _b = _raw(
            front, "POST", "/v1/streams/-/f:append",
            body=b"not json", headers=headers,
        )
        assert status == 400
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/f:append?method=min-merge&buckets=4",
            body=json.dumps([5]),
            headers=headers,
        )
        assert status == 200 and body["accepted"] == 1


class TestTypedClientOverRest:
    def test_from_url_schemes(self, stack):
        _engine, server, front = stack
        with ServiceClient.from_url(f"tcp://127.0.0.1:{server.port}") as c:
            assert c.info.proto == 2
        with ServiceClient.from_url(
            f"tcp://127.0.0.1:{server.port}?transport=json"
        ) as c:
            assert c.info.proto == 1
        with ServiceClient.from_url(f"127.0.0.1:{server.port}") as c:
            assert c.info.proto == 2  # bare host:port counts as tcp://
        with ServiceClient.from_url(f"http://127.0.0.1:{front.port}") as c:
            assert c.info.proto == PROTO_HTTP
            assert c.info.server == "repro-histogram"
        with pytest.raises(InvalidParameterError):
            ServiceClient.from_url("ftp://127.0.0.1:1")
        with pytest.raises(InvalidParameterError):
            ServiceClient.from_url("http://127.0.0.1")  # no port

    def test_typed_methods_and_errors_over_rest(self, stack):
        _engine, _server, front = stack
        client = ServiceClient.from_url(f"http://127.0.0.1:{front.port}")
        try:
            assert client.ping()
            result = client.append(
                "t", np.arange(10.0), method="min-merge", buckets=4
            )
            assert result.accepted == 10
            assert client.query("t", drain=True).histogram.meta.items_seen == 10
            assert client.stats("t")["items_seen"] == 10
            assert client.streams() == ("t",)
            with pytest.raises(UnknownStreamError) as excinfo:
                client.query("missing")
            assert excinfo.value.code == "unknown-stream"
            client.append("e2", [], method="min-merge", buckets=4)
            with pytest.raises(EmptyStreamError):
                client.query("e2")
            with pytest.raises(ServiceError) as excinfo:
                client.checkpoint("t")  # no checkpoint store
            assert excinfo.value.code == "invalid"
            with pytest.raises(TypeError, match="transport.call"):
                client.request({"op": "streams"})
        finally:
            client.close()

    def test_close_is_idempotent_over_every_scheme(self, stack):
        _engine, server, front = stack
        for url in (
            f"tcp://127.0.0.1:{server.port}",
            f"http://127.0.0.1:{front.port}",
        ):
            client = ServiceClient.from_url(url)
            client.close()
            client.close()  # second close is a no-op


class TestSessionErgonomics:
    def test_stream_handle_context_manager_checkpoints(self, tmp_path):
        from repro.service import Session

        with Session(checkpoint_dir=tmp_path) as session:
            with session.stream("cm", method="min-merge", buckets=4) as handle:
                handle.append([1.0, 2.0, 3.0])
                session.engine.drain()
            # __exit__ checkpointed the durable stream.
            stats = session.stats()
            assert stats["streams"]["cm"]["checkpoints"] >= 1
            handle.close()  # idempotent

    def test_session_close_is_idempotent(self):
        from repro.service import Session

        session = Session()
        session.stream("x", method="min-merge", buckets=4)
        session.close()
        session.close()

    def test_backpressure_error_typed_over_rest(self):
        gate = threading.Event()
        engine = StreamEngine(
            workers=1, max_pending=10, apply_hook=lambda s, n: gate.wait(10)
        )
        front = HttpFrontend(engine).start_in_background()
        try:
            client = ServiceClient.from_url(f"http://127.0.0.1:{front.port}")
            client.append("bp", list(range(8)), method="min-merge", buckets=4)
            with pytest.raises(BackpressureError):
                client.append("bp", list(range(8)))
            client.close()
        finally:
            gate.set()
            front.stop()
            engine.close()
