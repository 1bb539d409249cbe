"""Binary batch frames: big-int edges, round trips, malformed-frame rejection.

The wire format's job is to move RSA-sized operands without the two
classic big-int hazards: silent precision loss at the JavaScript float
boundary (2⁵³ — the JSON-lines format stringifies past it) and
unbounded allocation from a corrupt or hostile length prefix.  These
tests pin both, straddling ``2⁵³`` exactly and exercising RSA-2048-size
operands through the JSON *and* binary formats.
"""

from __future__ import annotations

import io
import json
import random
import struct

import pytest

from repro.errors import WireFormatError
from repro.serving.request import ModExpRequest
from repro.serving.wire import (
    MAX_FRAME,
    batch_frame_cheap_mode,
    decode_batch_frame,
    decode_nack_frame,
    decode_result_frame,
    encode_batch_frame,
    encode_nack_frame,
    encode_result_frame,
    iter_frames,
    parse_request_line,
    read_frame,
    request_to_json,
    result_to_json,
    write_frame,
)

_JSON_SAFE_INT = 1 << 53

# Values straddling the JavaScript float boundary: every one must
# survive any wire format bit-exactly.
EDGE_VALUES = (_JSON_SAFE_INT - 1, _JSON_SAFE_INT, _JSON_SAFE_INT + 1)


def _rsa2048_modulus() -> int:
    n = random.Random("wire-rsa2048").getrandbits(2048) | (1 << 2047)
    return n | 1  # odd, full 2048 bits


def _reseal(body: bytes) -> bytes:
    """Stamp a fresh crc32 trailer onto a hand-patched frame body."""
    import zlib

    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


class TestBigIntEdges:
    @pytest.mark.parametrize("edge", EDGE_VALUES)
    def test_binary_round_trip_straddles_json_safe_boundary(self, edge):
        modulus = (1 << 54) + 5  # odd, above every edge value
        requests = [
            ModExpRequest(edge, edge, modulus, request_id=f"edge-{edge}")
        ]
        payload = encode_batch_frame(17, requests)
        batch_id, attempt, want_telemetry, out = decode_batch_frame(payload)
        assert (batch_id, attempt, want_telemetry) == (17, 0, True)
        assert out[0].base == edge
        assert out[0].exponent == edge
        assert out[0].modulus == modulus

    @pytest.mark.parametrize("edge", EDGE_VALUES)
    def test_json_round_trip_straddles_json_safe_boundary(self, edge):
        modulus = (1 << 54) + 5
        original = ModExpRequest(edge, edge, modulus, request_id="edge")
        parsed = parse_request_line(request_to_json(original))
        assert parsed == original

    @pytest.mark.parametrize("edge", EDGE_VALUES)
    def test_json_result_value_representation(self, edge):
        # At or past 2^53 the value travels as a string so JavaScript
        # consumers cannot silently round it; below, as a number.
        from repro.serving.request import ModExpResult

        line = result_to_json(
            ModExpResult(request_id="r", ok=True, value=edge)
        )
        value = json.loads(line)["value"]
        if edge >= _JSON_SAFE_INT:
            assert isinstance(value, str) and int(value) == edge
        else:
            assert isinstance(value, int) and value == edge

    def test_rsa2048_round_trip_binary_and_json(self):
        n = _rsa2048_modulus()
        rng = random.Random("wire-rsa2048-ops")
        requests = [
            ModExpRequest(
                rng.randrange(2, n), 65537, n, request_id=f"rsa-{i}"
            )
            for i in range(3)
        ]
        # Binary: operands as raw bytes, modulus encoded once per frame.
        payload = encode_batch_frame(1, requests)
        _, _, _, out = decode_batch_frame(payload)
        assert [(r.base, r.exponent, r.modulus) for r in out] == [
            (r.base, r.exponent, r.modulus) for r in requests
        ]
        # The frame stores the 256-byte modulus once, not per request.
        assert payload.count(n.to_bytes(256, "big")) == 1
        # JSON: the same operands survive the string detour.
        for request in requests:
            assert parse_request_line(request_to_json(request)) == request

    def test_result_frame_round_trip_with_rsa2048_values(self):
        n = _rsa2048_modulus()
        rows = [
            {"id": "a", "value": n - 3, "cycles": 6150, "wall_us": 12.5},
            {"id": "b", "value": 0, "wall_us": 1.0},
            {
                "id": "c",
                "error_type": "FaultDetected",
                "check": "expected",
                "error": "corrupted",
            },
        ]
        telemetry = {"counters": [{"name": "x", "labels": {}, "value": 1}]}
        payload = encode_result_frame(
            9, rows, batch_wall_us=77.0, telemetry=telemetry
        )
        batch_id, wall_us, out, tele = decode_result_frame(payload)
        assert (batch_id, wall_us) == (9, 77.0)
        assert out[0]["value"] == n - 3 and out[0]["cycles"] == 6150
        assert out[1]["value"] == 0 and "cycles" not in out[1]
        assert out[2]["error_type"] == "FaultDetected"
        assert tele == telemetry

    def test_factors_travel_when_present(self):
        requests = [
            ModExpRequest(2, 7, 15, request_id="crt", factors=(3, 5))
        ]
        _, _, _, out = decode_batch_frame(encode_batch_frame(3, requests))
        assert out[0].factors == (3, 5)

    def test_telemetry_flag_round_trip(self):
        requests = [ModExpRequest(2, 3, 97, request_id="t")]
        for flag in (True, False):
            payload = encode_batch_frame(5, requests, want_telemetry=flag)
            _, _, want_telemetry, _ = decode_batch_frame(payload)
            assert want_telemetry is flag


class TestDeadlinePriorityWire:
    """Deadlines, priority classes and the degradation control frames."""

    def test_deadline_and_priority_ride_the_binary_frame(self):
        requests = [
            ModExpRequest(
                2, 3, 97, request_id="i",
                priority="interactive", expires_at=1234.5,
            ),
            ModExpRequest(4, 5, 97, request_id="b"),
        ]
        _, _, _, out = decode_batch_frame(encode_batch_frame(8, requests))
        assert out[0].priority == "interactive"
        assert out[0].expires_at == 1234.5  # f64 is bit-exact
        assert out[1].priority == "batch"
        assert out[1].expires_at is None

    def test_nack_frame_round_trip(self):
        payload = encode_nack_frame(42, "unknown batch flags 0xf0")
        assert decode_nack_frame(payload) == (42, "unknown batch flags 0xf0")
        # batch_id 0 is the "header unreadable" sentinel.
        assert decode_nack_frame(encode_nack_frame(0, "garbage"))[0] == 0

    def test_nack_decoder_rejects_other_kinds(self):
        batch = encode_batch_frame(
            1, [ModExpRequest(4, 13, 497, request_id="x")]
        )
        with pytest.raises(WireFormatError, match="nack frame"):
            decode_nack_frame(batch)

    def test_cheap_mode_flag_peekable_without_full_decode(self):
        requests = [ModExpRequest(2, 3, 97, request_id="c")]
        cheap = encode_batch_frame(6, requests, cheap_mode=True)
        plain = encode_batch_frame(6, requests)
        assert batch_frame_cheap_mode(cheap) is True
        assert batch_frame_cheap_mode(plain) is False
        # The flag is a legal bflag: the full decoder still accepts it.
        _, _, want_telemetry, out = decode_batch_frame(cheap)
        assert want_telemetry and out[0].request_id == "c"

    def test_budget_and_priority_round_trip_through_json(self):
        original = ModExpRequest(
            2, 3, 97, request_id="j", priority="interactive", budget_s=0.25
        )
        parsed = parse_request_line(request_to_json(original))
        assert parsed == original
        assert json.loads(request_to_json(original))["budget_ms"] == 250.0

    def test_non_positive_budget_ms_rejected(self):
        line = json.dumps(
            {"id": "z", "base": 2, "exponent": 3, "modulus": 97, "budget_ms": 0}
        )
        with pytest.raises(WireFormatError, match="budget_ms"):
            parse_request_line(line)

    def test_unknown_priority_class_rejected(self):
        line = json.dumps(
            {"base": 2, "exponent": 3, "modulus": 97, "priority": "urgent"}
        )
        with pytest.raises(WireFormatError):
            parse_request_line(line)


class TestFraming:
    def test_stream_round_trip(self):
        requests = [ModExpRequest(4, 13, 497, request_id="s")]
        payload = encode_batch_frame(2, requests)
        buf = io.BytesIO()
        write_frame(buf, payload)
        write_frame(buf, payload)
        buf.seek(0)
        assert read_frame(buf) == payload
        assert read_frame(buf) == payload
        assert read_frame(buf) is None  # clean EOF

    def test_iter_frames(self):
        buf = io.BytesIO()
        for blob in (b"\x01abc", b"\x02defg"):
            write_frame(buf, blob)
        buf.seek(0)
        assert list(iter_frames(buf)) == [b"\x01abc", b"\x02defg"]

    def test_truncated_length_prefix_rejected(self):
        buf = io.BytesIO(b"\x00\x00\x01")  # 3 of 4 prefix bytes
        with pytest.raises(WireFormatError, match="length prefix"):
            read_frame(buf)

    def test_oversized_declared_length_rejected(self):
        # A hostile prefix declaring more than MAX_FRAME must be refused
        # before any allocation, not after.
        buf = io.BytesIO(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(WireFormatError, match="exceeds"):
            read_frame(buf)

    def test_payload_shorter_than_declared_rejected(self):
        buf = io.BytesIO(struct.pack(">I", 100) + b"short")
        with pytest.raises(WireFormatError, match="truncated"):
            read_frame(buf)

    def test_truncated_batch_payload_rejected(self):
        payload = encode_batch_frame(
            1, [ModExpRequest(4, 13, 497, request_id="x")]
        )
        for cut in (1, 5, len(payload) // 2, len(payload) - 1):
            with pytest.raises(WireFormatError):
                decode_batch_frame(payload[:cut])

    def test_trailing_garbage_rejected(self):
        payload = encode_batch_frame(
            1, [ModExpRequest(4, 13, 497, request_id="x")]
        )
        # Appended bytes break the checksum before structural parsing...
        with pytest.raises(WireFormatError, match="checksum"):
            decode_batch_frame(payload + b"\x00")
        # ...and even a correctly re-sealed payload with junk between the
        # last request and the trailer is rejected structurally.
        with pytest.raises(WireFormatError, match="trailing"):
            decode_batch_frame(_reseal(payload[:-4] + b"\x00"))

    def test_wrong_frame_kind_rejected(self):
        batch = encode_batch_frame(
            1, [ModExpRequest(4, 13, 497, request_id="x")]
        )
        result = encode_result_frame(1, [{"id": "x", "value": 1}])
        with pytest.raises(WireFormatError, match="batch frame"):
            decode_batch_frame(result)
        with pytest.raises(WireFormatError, match="result frame"):
            decode_result_frame(batch)

    def test_invalid_request_in_frame_rejected(self):
        # An even modulus is structurally well-formed on the wire but
        # violates the Montgomery requirement; the decoder surfaces it
        # as a wire error, not a raw ParameterError from deep inside.
        good = encode_batch_frame(
            1, [ModExpRequest(4, 13, 497, request_id="x")]
        )
        # Patch the modulus bytes (497 = 0x01F1) to an even value and
        # re-seal so the semantic check is reached, not the checksum.
        bad = good.replace((497).to_bytes(2, "big"), (498).to_bytes(2, "big"), 1)
        with pytest.raises(WireFormatError, match="invalid request"):
            decode_batch_frame(_reseal(bad[:-4]))

    def test_multi_modulus_frame_round_trip(self):
        # A lane batch cut by width spans several moduli: each distinct
        # (modulus, l) rides the key table once, requests index it.
        requests = [
            ModExpRequest(4, 13, 497, request_id="a"),
            ModExpRequest(5, 13, 499, request_id="b", l=12),
            ModExpRequest(6, 17, 497, request_id="c"),
            ModExpRequest(7, 13, 499, request_id="d", l=12, priority="interactive"),
            ModExpRequest(8, 13, 501, request_id="e"),
        ]
        payload = encode_batch_frame(4, requests)
        _, _, _, out = decode_batch_frame(payload)
        assert out == requests
        assert payload.count((497).to_bytes(2, "big")) == 1
        assert payload.count((499).to_bytes(2, "big")) == 1
        # Header, then the u16 key count: three distinct (modulus, l).
        assert struct.unpack(">H", payload[11:13]) == (3,)

    def test_key_index_past_the_table_rejected(self):
        requests = [ModExpRequest(4, 13, 497, request_id="x")]
        body = bytearray(encode_batch_frame(1, requests)[:-4])
        # header 11 | u16 keys | u32 len + 2 modulus bytes | u32 l
        # | u16 count | u16 len + "x" | u16 key index
        at = 11 + 2 + 4 + 2 + 4 + 2 + 2 + 1
        assert body[at : at + 2] == b"\x00\x00"
        body[at : at + 2] = struct.pack(">H", 1)
        with pytest.raises(WireFormatError, match="key index 1 past"):
            decode_batch_frame(_reseal(bytes(body)))

    def test_key_table_holds_at_most_65535_keys(self):
        # The key count is a u16: a batch of 65536 distinct moduli is
        # refused at encode time instead of wrapping the count.
        requests = [ModExpRequest(1, 3, 2 * i + 3) for i in range(0x10000)]
        _, _, _, out = decode_batch_frame(encode_batch_frame(1, requests[:-1]))
        assert len(out) == 0xFFFF
        with pytest.raises(WireFormatError, match="at most 65535"):
            encode_batch_frame(1, requests)

    def test_single_modulus_frame_grows_two_bytes_per_request(self):
        # Frame lengths of the layout that carried one modulus field per
        # frame, for these exact requests.  The key table adds one u16
        # index per request and one u16 key count per frame.
        before = {1: 50, 2: 67, 64: 1175}
        n = (1 << 61) - 1
        for k, old_len in before.items():
            requests = [
                ModExpRequest(3 + i, 65537, n, request_id=f"r{i}") for i in range(k)
            ]
            grown = len(encode_batch_frame(9, requests)) - old_len
            assert grown == 2 * k + 2

    def test_empty_batch_refused(self):
        with pytest.raises(WireFormatError, match="at least one"):
            encode_batch_frame(1, [])
