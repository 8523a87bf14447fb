"""Unit tests for the wire protocol: framing, envelopes, error mapping."""

import socket
import struct
import threading

import pytest

from repro.core.ops import UpdateOp, hashable_vertex
from repro.errors import (
    OverloadedError,
    ProtocolError,
    ReproError,
    SerializationError,
    UnknownVertexError,
    VertexNotFoundError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    error_fields_for,
    error_response,
    ok_response,
    raise_for_error,
    recv_frame_file,
    send_frame_sync,
    encode_update_ops,
    wire_pairs,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "query", "pairs": [[1, 2]], "v": 1}
        frame = encode_frame(payload)
        length = struct.unpack("!I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == payload

    def test_round_trip_over_a_real_socket(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "id": 7, "blob": "x" * 100_000}
            sender = threading.Thread(
                target=send_frame_sync, args=(a, payload)
            )
            sender.start()
            assert recv_frame_file(b.makefile("rb")) == payload
            sender.join()
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame_file(b.makefile("rb")) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"op": "ping"})[:5])
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame_file(b.makefile("rb"))
        finally:
            b.close()

    def test_oversized_length_prefix_rejected_before_read(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds max"):
                recv_frame_file(b.makefile("rb"))
        finally:
            a.close()
            b.close()

    def test_non_json_payload_rejected(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_payload(b"\xff\xfe not json")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1, 2, 3]")


class TestEnvelopes:
    def test_ok_response_carries_version_and_id(self):
        resp = ok_response(42, results=[True])
        assert resp == {
            "v": PROTOCOL_VERSION, "id": 42, "ok": True, "results": [True],
        }

    def test_error_response_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            error_response(1, "no_such_code", "boom")

    def test_pairs_validation(self):
        assert wire_pairs([[1, 2], ["a", "b"]]) == [(1, 2), ("a", "b")]
        with pytest.raises(ProtocolError):
            wire_pairs("nope")
        with pytest.raises(ProtocolError):
            wire_pairs([[1]])

    def test_wire_vertex_restores_tuples(self):
        # JSON turns tuple vertices into lists; the wire restores them.
        assert wire_pairs([[[1, [2, 3]], "plain"]]) == [((1, (2, 3)), "plain")]
        assert hashable_vertex([1, [2, 3]]) == (1, (2, 3))
        assert hashable_vertex("plain") == "plain"

    def test_update_ops_must_be_update_op_values(self):
        assert encode_update_ops([UpdateOp.delete_vertex(1)]) == [
            {"kind": "delete_vertex", "vertex": 1}
        ]
        with pytest.raises(TypeError):
            encode_update_ops([{"kind": "delete_vertex", "vertex": 1}])


class TestErrorMapping:
    """Exceptions survive the wire as the same exception type."""

    @pytest.mark.parametrize("exc,code", [
        (UnknownVertexError(99), "unknown_vertex"),
        (VertexNotFoundError(99), "unknown_vertex"),
        (SerializationError("bad magic"), "serialization"),
        (OverloadedError("busy", 12.5), "overloaded"),
        (ProtocolError("garbled"), "bad_request"),
        (RuntimeError("surprise"), "internal"),
    ])
    def test_exception_to_code(self, exc, code):
        assert error_fields_for(exc)["code"] == code

    def test_unknown_vertex_round_trips_with_vertex(self):
        fields = error_fields_for(UnknownVertexError(99))
        with pytest.raises(UnknownVertexError) as info:
            raise_for_error(fields)
        assert info.value.vertex == 99

    def test_overloaded_round_trips_with_retry_hint(self):
        fields = error_fields_for(OverloadedError("busy", 12.5))
        with pytest.raises(OverloadedError) as info:
            raise_for_error(fields)
        assert info.value.retry_after_ms == 12.5

    def test_serialization_round_trips(self):
        with pytest.raises(SerializationError):
            raise_for_error(error_fields_for(SerializationError("torn")))

    def test_unknown_code_becomes_repro_error(self):
        with pytest.raises(ReproError):
            raise_for_error({"code": "internal", "message": "boom"})
