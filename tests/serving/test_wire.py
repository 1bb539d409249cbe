"""JSON-lines wire format: parsing, serialization, alignment."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.serving.request import ModExpRequest, ModExpResult
from repro.serving.wire import (
    parse_request_line,
    read_requests,
    request_to_json,
    result_to_dict,
    result_to_json,
)


class TestParse:
    def test_minimal_request(self):
        request = parse_request_line('{"base": 4, "exponent": 13, "modulus": 497}')
        assert (request.base, request.exponent, request.modulus) == (4, 13, 497)
        assert request.request_id == ""

    def test_all_fields(self):
        line = json.dumps(
            {
                "id": "job-1",
                "base": 2,
                "exponent": 7,
                "modulus": 15,
                "p": 3,
                "q": 5,
                "l": 8,
                "timeout": 1.5,
                "deadline": 9,
            }
        )
        request = parse_request_line(line)
        assert request.request_id == "job-1"
        assert request.factors == (3, 5)
        assert request.l == 8
        assert request.timeout == 1.5
        assert request.deadline == 9.0

    def test_hex_string_operands(self):
        request = parse_request_line(
            '{"base": "0x10", "exponent": "3", "modulus": "0xFFEF"}'
        )
        assert (request.base, request.exponent, request.modulus) == (16, 3, 0xFFEF)

    def test_big_int_string_operands_roundtrip(self):
        n = (1 << 255) + 95  # far beyond 2^53
        original = ModExpRequest(12345, 65537, n, request_id="big")
        request = parse_request_line(request_to_json(original))
        assert request == original
        # On the wire the modulus travelled as a string.
        assert isinstance(json.loads(request_to_json(original))["modulus"], str)

    def test_integer_id_echoed_as_string(self):
        request = parse_request_line('{"id": 7, "base": 2, "exponent": 3, "modulus": 9}')
        assert request.request_id == "7"

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("not json at all", "invalid JSON"),
            ("[1, 2, 3]", "JSON object"),
            ('{"base": 2, "exponent": 3}', "modulus"),
            ('{"base": 2, "exponent": 3, "modulus": 9, "bogus": 1}', "bogus"),
            ('{"base": true, "exponent": 3, "modulus": 9}', "base"),
            ('{"base": "xyz", "exponent": 3, "modulus": 9}', "parseable"),
            ('{"base": 2, "exponent": 3, "modulus": 9, "p": 3}', "together"),
            ('{"base": 2, "exponent": 3, "modulus": 9, "timeout": "soon"}', "number"),
            ('{"base": 2, "exponent": 3, "modulus": 8}', "odd"),
        ],
    )
    def test_malformed_lines_raise_wire_format_error(self, line, fragment):
        with pytest.raises(WireFormatError, match=fragment):
            parse_request_line(line)

    def test_recoverable_id_attached_to_error(self):
        with pytest.raises(WireFormatError) as excinfo:
            parse_request_line('{"id": "r9", "base": 2, "exponent": 3, "modulus": 8}')
        assert excinfo.value.request_id == "r9"


class TestResultSerialization:
    def test_success_result_fields(self):
        request = ModExpRequest(4, 13, 497, request_id="ok-1")
        result = ModExpResult.success(
            request, request.expected(), backend="integer", cycles=1234,
            wall_us=56.789, batch_index=2,
        )
        obj = result_to_dict(result)
        assert obj == {
            "id": "ok-1",
            "ok": True,
            "value": request.expected(),
            "cycles": 1234,
            "wall_us": 56.8,
            "backend": "integer",
            "batch": 2,
        }

    def test_large_value_stringified(self):
        n = (1 << 127) + 1
        request = ModExpRequest(3, 5, n, request_id="w")
        result = ModExpResult.success(
            request, (1 << 100) + 7, backend="integer", cycles=None, wall_us=None,
            batch_index=None,
        )
        obj = result_to_dict(result)
        assert obj["value"] == str((1 << 100) + 7)
        assert "cycles" not in obj and "wall_us" not in obj and "batch" not in obj

    def test_failure_result_fields(self):
        result = ModExpResult.failure("bad-1", ValueError("boom"), backend="rtl")
        obj = json.loads(result_to_json(result))
        assert obj["ok"] is False
        assert obj["error"] == "boom"
        assert obj["error_type"] == "ValueError"
        assert obj["backend"] == "rtl"


#: Every error branch of ``parse_request_line``: (case, line, message,
#: attached request_id).  Recorded from the implementation that built a
#: field set and a ``_number`` closure per call; the lean parser must
#: raise the same message with the same id, in the same precedence.
PARSE_ERRORS = [
    ("invalid-json", "not json",
     "invalid JSON: Expecting value: line 1 column 1 (char 0)", ""),
    ("truncated-json", '{"id": "t", "base": 2',
     "invalid JSON: Expecting ',' delimiter: line 1 column 22 (char 21)", ""),
    ("non-object", "[1, 2]", "request line must be a JSON object, got list", ""),
    ("non-object-str", '"text"', "request line must be a JSON object, got str", ""),
    ("unknown-fields",
     '{"id": "u1", "base": 2, "exponent": 3, "modulus": 9, "zeta": 1, "alpha": 2}',
     "unknown request fields: alpha, zeta", "u1"),
    ("unknown-before-missing", '{"id": "u2", "bogus": 1}',
     "unknown request fields: bogus", "u2"),
    ("missing-base", '{"id": "m1", "exponent": 3, "modulus": 9}',
     "missing required field 'base'", "m1"),
    ("missing-exponent", '{"id": "m2", "base": 2, "modulus": 9}',
     "missing required field 'exponent'", "m2"),
    ("missing-modulus", '{"id": "m3", "base": 2, "exponent": 3}',
     "missing required field 'modulus'", "m3"),
    ("p-without-q", '{"id": "f1", "base": 2, "exponent": 3, "modulus": 15, "p": 3}',
     "factors p and q must be given together", "f1"),
    ("q-without-p", '{"id": "f2", "base": 2, "exponent": 3, "modulus": 15, "q": 5}',
     "factors p and q must be given together", "f2"),
    ("bool-base", '{"id": "b1", "base": true, "exponent": 3, "modulus": 9}',
     "field 'base' must be an integer", "b1"),
    ("bool-modulus", '{"id": "b2", "base": 2, "exponent": 3, "modulus": false}',
     "field 'modulus' must be an integer", "b2"),
    ("bool-p", '{"id": "b3", "base": 2, "exponent": 3, "modulus": 15, "p": true, "q": 5}',
     "field 'p' must be an integer", "b3"),
    ("unparseable-exponent", '{"id": "s1", "base": 2, "exponent": "xyz", "modulus": 9}',
     "field 'exponent' is not a parseable integer: 'xyz'", "s1"),
    ("unparseable-q",
     '{"id": "s2", "base": 2, "exponent": 3, "modulus": 15, "p": 3, "q": "0xZZ"}',
     "field 'q' is not a parseable integer: '0xZZ'", "s2"),
    ("float-base", '{"id": "t1", "base": 1.5, "exponent": 3, "modulus": 9}',
     "field 'base' must be an integer or integer string, got float", "t1"),
    ("list-l", '{"id": "t2", "base": 2, "exponent": 3, "modulus": 9, "l": [8]}',
     "field 'l' must be an integer or integer string, got list", "t2"),
    ("null-l", '{"id": "t3", "base": 2, "exponent": 3, "modulus": 9, "l": null}',
     "field 'l' must be an integer or integer string, got NoneType", "t3"),
    ("string-timeout",
     '{"id": "n1", "base": 2, "exponent": 3, "modulus": 9, "timeout": "soon"}',
     "field 'timeout' must be a number", "n1"),
    ("bool-deadline",
     '{"id": "n2", "base": 2, "exponent": 3, "modulus": 9, "deadline": true}',
     "field 'deadline' must be a number", "n2"),
    ("string-budget",
     '{"id": "n3", "base": 2, "exponent": 3, "modulus": 9, "budget_ms": "5"}',
     "field 'budget_ms' must be a number", "n3"),
    ("zero-budget", '{"id": "z1", "base": 2, "exponent": 3, "modulus": 9, "budget_ms": 0}',
     "field 'budget_ms' must be > 0", "z1"),
    ("negative-budget",
     '{"id": "z2", "base": 2, "exponent": 3, "modulus": 9, "budget_ms": -1.5}',
     "field 'budget_ms' must be > 0", "z2"),
    ("int-priority", '{"id": "y1", "base": 2, "exponent": 3, "modulus": 9, "priority": 1}',
     "field 'priority' must be a string", "y1"),
    ("null-priority",
     '{"id": "y2", "base": 2, "exponent": 3, "modulus": 9, "priority": null}',
     "field 'priority' must be a string", "y2"),
    ("even-modulus", '{"id": "r9", "base": 2, "exponent": 3, "modulus": 8}',
     "modulus must be odd, got 8", "r9"),
    ("zero-exponent", '{"id": "r10", "base": 2, "exponent": 0, "modulus": 9}',
     "exponent must be >= 1, got 0", "r10"),
    ("unknown-priority",
     '{"id": "r11", "base": 2, "exponent": 3, "modulus": 9, "priority": "urgent"}',
     "priority must be one of ('interactive', 'batch'), got 'urgent'", "r11"),
    ("bad-factors", '{"id": "r12", "base": 2, "exponent": 3, "modulus": 15, "p": 3, "q": 7}',
     "factors (3, 7) do not multiply to modulus 15", "r12"),
    ("integer-id", '{"id": 7, "base": 2, "exponent": 3, "modulus": 8}',
     "modulus must be odd, got 8", "7"),
    ("null-id", '{"id": null, "base": 2, "exponent": 3, "modulus": 8}',
     "modulus must be odd, got 8", ""),
    ("no-id", '{"base": 2, "exponent": 3, "modulus": 8}',
     "modulus must be odd, got 8", ""),
    ("budget-before-base",
     '{"id": "o1", "base": true, "exponent": 3, "modulus": 9, "budget_ms": 0}',
     "field 'budget_ms' must be > 0", "o1"),
    ("priority-before-budget",
     '{"id": "o2", "base": 2, "exponent": 3, "modulus": 9, "budget_ms": "x", "priority": 3}',
     "field 'priority' must be a string", "o2"),
    ("timeout-before-deadline",
     '{"id": "o3", "base": 2, "exponent": 3, "modulus": 9, "timeout": "a", "deadline": "b"}',
     "field 'timeout' must be a number", "o3"),
    ("factors-before-base",
     '{"id": "o4", "base": "zz", "exponent": 3, "modulus": 15, "p": "yy", "q": 5}',
     "field 'p' is not a parseable integer: 'yy'", "o4"),
]


class TestParseErrorTable:
    @pytest.mark.parametrize(
        "line, message, request_id",
        [case[1:] for case in PARSE_ERRORS],
        ids=[case[0] for case in PARSE_ERRORS],
    )
    def test_message_and_request_id(self, line, message, request_id):
        with pytest.raises(WireFormatError) as excinfo:
            parse_request_line(line)
        assert str(excinfo.value) == message
        assert excinfo.value.request_id == request_id


#: Ids that stress string escaping: quotes, backslashes, control
#: characters, non-ASCII text and a lone surrogate.
AWKWARD_TEXT = [
    "", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x01\x1f\x7f",
    "caf\u00e9", "\u65e5\u672c", "\U0001f600", "\ud800", "\u2028\u2029",
]
JSON_SAFE = 1 << 53


def _text():
    return st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(max_size=12))


def _wall_us():
    return st.one_of(
        st.none(),
        st.sampled_from(
            [0.0, 0, 1e-12, 0.04, 0.05, 0.15, 0.25, 2.675, 1.45, 1e15 + 0.05, 1e300,
             -0.05, math.inf, -math.inf, math.nan]
        ),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=0, max_value=10**20),
    )


@st.composite
def _results(draw):
    ok = draw(st.booleans())
    value = None
    if ok:
        value = draw(
            st.one_of(
                st.integers(min_value=0, max_value=1 << 80),
                st.integers(min_value=JSON_SAFE - 3, max_value=JSON_SAFE + 3),
                st.integers(min_value=-JSON_SAFE - 3, max_value=-JSON_SAFE + 3),
            )
        )
    optional_int = st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 66))
    return ModExpResult(
        request_id=draw(_text()),
        ok=ok,
        value=value,
        error="" if ok else draw(_text()),
        error_type="" if ok else draw(st.sampled_from(["ValueError", "QueueFull", ""])),
        backend=draw(st.one_of(st.sampled_from(["", "integer", "rtl"]), _text())),
        cycles=draw(optional_int) if ok else None,
        wall_us=draw(_wall_us()) if ok else None,
        batch_index=draw(optional_int),
        bundle_path=None if ok else draw(st.one_of(st.none(), _text())),
    )


class TestResultJsonParity:
    @given(_results())
    @settings(max_examples=500)
    def test_byte_identical_to_json_dumps(self, result):
        assert result_to_json(result) == json.dumps(
            result_to_dict(result), sort_keys=True
        )

    def test_edge_values_byte_identical(self):
        request = ModExpRequest(4, 13, 497, request_id='q"\\\u00e9\x01')
        for value in (0, JSON_SAFE - 1, JSON_SAFE, JSON_SAFE + 1, 1 << 200):
            for wall_us in (None, 0.0, 1e-9, 12.345, 0.05, 1e300):
                result = ModExpResult.success(
                    request, value, backend="integer", cycles=7, wall_us=wall_us,
                    batch_index=0,
                )
                assert result_to_json(result) == json.dumps(
                    result_to_dict(result), sort_keys=True
                )
        failure = ModExpResult(
            request_id="\u2028", ok=False, error="bad\n\"x\"", error_type="FaultDetected",
            backend="rtl", bundle_path="/tmp/d\u00e9/b.json", batch_index=3,
        )
        assert result_to_json(failure) == json.dumps(
            result_to_dict(failure), sort_keys=True
        )


class TestReadRequests:
    def test_line_numbers_and_blank_skipping(self):
        lines = [
            '{"base": 2, "exponent": 3, "modulus": 9}\n',
            "\n",
            "garbage\n",
            '{"base": 3, "exponent": 5, "modulus": 11}\n',
        ]
        items = list(read_requests(lines))
        assert [lineno for lineno, _ in items] == [1, 3, 4]
        assert isinstance(items[0][1], ModExpRequest)
        assert isinstance(items[1][1], WireFormatError)
        assert isinstance(items[2][1], ModExpRequest)

    def test_roundtrip_workload(self):
        requests = [
            ModExpRequest(2, 3, 9, request_id="a"),
            ModExpRequest(3, 65537, (1 << 64) + 13, request_id="b", timeout=2.0),
            ModExpRequest(5, 7, 77, request_id="c", factors=(7, 11), l=8),
        ]
        lines = [request_to_json(r) + "\n" for r in requests]
        parsed = [item for _, item in read_requests(lines)]
        assert parsed == requests
