"""Wire-protocol parsing, classification and serialisation."""

import json

import pytest

from repro.service.protocol import (
    CLASS_RANK,
    ERROR_CODES,
    OP_CLASS,
    OPS,
    ProtocolError,
    encode_message,
    error_response,
    parse_request,
    result_response,
)


class TestParseRequest:
    def test_minimal(self):
        parsed = parse_request('{"op": "ping"}')
        assert parsed["op"] == "ping"
        assert parsed["class"] == "interactive"
        assert parsed["id"] is None
        assert parsed["params"] == {}

    def test_full(self):
        parsed = parse_request(
            json.dumps(
                {
                    "id": "r7",
                    "op": "rollout",
                    "params": {"spec": "a.nmsl"},
                    "deadline_s": 5.5,
                    "cost_s": 2,
                }
            )
        )
        assert parsed["id"] == "r7"
        assert parsed["class"] == "bulk"
        assert parsed["deadline_s"] == 5.5
        assert parsed["cost_s"] == 2

    def test_default_classes_cover_all_ops(self):
        for op in OPS:
            assert OP_CLASS[op] in CLASS_RANK

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("{nope")
        assert excinfo.value.kind == "bad-request"

    def test_empty_line(self):
        with pytest.raises(ProtocolError):
            parse_request("   \n")

    def test_unknown_op_preserves_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"id": "x1", "op": "reboot"}')
        assert excinfo.value.kind == "unknown-op"
        assert excinfo.value.request_id == "x1"
        assert excinfo.value.code == 404

    def test_demotion_allowed(self):
        parsed = parse_request(
            '{"op": "check", "class": "bulk", "params": {"spec": "a.nmsl"}}'
        )
        assert parsed["class"] == "bulk"

    def test_promotion_refused(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "rollout", "class": "interactive"}')
        assert excinfo.value.kind == "bad-request"
        assert "promote" in str(excinfo.value)

    def test_bad_deadline(self):
        with pytest.raises(ProtocolError):
            parse_request('{"op": "ping", "deadline_s": -1}')
        with pytest.raises(ProtocolError):
            parse_request('{"op": "ping", "deadline_s": "soon"}')

    def test_bad_params(self):
        with pytest.raises(ProtocolError):
            parse_request('{"op": "ping", "params": []}')


class TestResponses:
    def test_error_codes_are_http_like(self):
        assert ERROR_CODES["shed"] == 503
        assert ERROR_CODES["deadline"] == 504
        assert ERROR_CODES["vetoed"] == 403
        assert ERROR_CODES["internal"] == 500

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("teapot", "I'm one")

    def test_error_response_shape(self):
        message = error_response(
            "r1", "shed", "evicted", op="rollout", cls="bulk",
            retry_after_s=0.5,
        )
        assert message["ok"] is False
        assert message["error"]["code"] == 503
        assert message["error"]["retry_after_s"] == 0.5
        assert message["op"] == "rollout"

    def test_error_response_drops_none_details(self):
        message = error_response("r1", "queue-full", "full", hint=None)
        assert "hint" not in message["error"]

    def test_result_response_shape(self):
        message = result_response("r2", "check", "interactive", {"a": 1})
        assert message["ok"] is True
        assert message["result"] == {"a": 1}

    def test_encoding_is_deterministic(self):
        a = encode_message({"b": 1, "a": {"z": 2, "y": 3}})
        b = encode_message({"a": {"y": 3, "z": 2}, "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert " " not in a
