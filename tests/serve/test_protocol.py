"""HTTP/1.1 parsing and SSE framing round trips."""

import asyncio
import json

import pytest

from repro.serve.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    error_response,
    json_response,
    read_request,
    response_bytes,
    sse_event,
    sse_preamble,
)


def parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestReadRequest:
    def test_full_request(self):
        body = json.dumps({"kind": "sweep"}).encode()
        raw = (
            b"POST /jobs?x=1&x=2&name=a%20b HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.path == "/jobs"
        assert request.headers["host"] == "localhost"
        assert request.json() == {"kind": "sweep"}

    def test_clean_eof_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_malformed_header(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        raw = (
            b"POST /jobs HTTP/1.1\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 413

    def test_truncated_body_is_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 400

    def test_bad_content_length(self):
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")


class TestRequestJson:
    def test_empty_body_is_empty_object(self):
        assert Request(method="GET", path="/").json() == {}

    def test_invalid_json_is_400(self):
        request = Request(method="POST", path="/", body=b"{nope")
        with pytest.raises(ProtocolError) as err:
            request.json()
        assert err.value.status == 400

    def test_non_object_json_is_400(self):
        request = Request(method="POST", path="/", body=b"[1, 2]")
        with pytest.raises(ProtocolError):
            request.json()


class TestResponses:
    def test_response_shape(self):
        raw = response_bytes(200, b"hi", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in head
        assert b"Content-Length: 2" in head
        assert body == b"hi"

    def test_json_response_round_trips(self):
        raw = json_response(202, {"id": "j000001"})
        body = raw.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body) == {"id": "j000001"}

    def test_error_response_carries_status(self):
        raw = error_response(429, "queue full")
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests")
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body == {"error": "queue full", "status": 429}


class TestSse:
    def test_preamble_opens_event_stream(self):
        head = sse_preamble()
        assert b"200 OK" in head
        assert b"text/event-stream" in head
        assert head.endswith(b"\r\n\r\n")

    def test_event_framing_and_parse_round_trip(self):
        records = [
            {"kind": "sweep_start", "points": 3},
            {"kind": "point_done", "index": 0, "label": "p0"},
            {"kind": "end", "state": "done"},
        ]
        wire = b"".join(
            sse_event(r, seq=i) for i, r in enumerate(records)
        ).decode()
        assert "event: sweep_start" in wire
        assert "id: 2" in wire
        parsed = [
            json.loads(line[len("data:"):])
            for line in wire.splitlines()
            if line.startswith("data:")
        ]
        assert parsed == records
