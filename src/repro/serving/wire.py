"""Wire formats of the modexp service: JSON-lines and binary batch frames.

**JSON-lines** (human-facing): one request per line, one result per
line, UTF-8, newline-delimited — the format both ``repro serve``
(streaming over stdin/stdout) and ``repro batch`` (file in, file out)
speak.

**Binary batch frames** (the sharded data plane, :mod:`repro.serving.shard`):
the scheduler's coalesced batches cross the parent↔shard-worker pipe as
*one* compact frame per shard per dispatch — every batch one dispatch
placed on that shard — instead of one pickled task per request.
Big-int operands travel as raw big-endian bytes (an RSA-2048 modulus is
256 bytes, not a 617-digit decimal string), and each distinct
``(modulus, l)`` of the frame is encoded once, in a key table the
requests index, not once per request.  A frame may therefore mix batch
keys.

Frame grammar (all integers unsigned, network byte order)::

    frame    := u32 length | payload            length = len(payload)
    payload  := (batch | results | nack) | u32 crc32
                crc32 covers every preceding payload byte; a mismatch
                raises :class:`WireFormatError` *before* any structural
                parsing, so a flipped byte inside a value bigint can
                never decode into a silently wrong answer — corruption
                on the shard wire always surfaces as detectable shard
                degradation
    batch    := 0x01 | u64 batch_id | u8 attempt | u8 bflags
                | u16 keys | key{keys} | u16 count | request*
                bflags bit 0: caller wants the telemetry snapshot
                (workers skip metrics capture entirely when clear)
                bflags bit 1: brownout cheap mode — the worker executes
                on its registry's cheapest capable backend instead of
                its primary
                bflags bit 2: caller has a tracer — the worker records
                one span session per request into the telemetry blob
    key      := bigint modulus | u32 l
                one distinct (modulus, l) of the frame: one entry per
                modulus of the batches it carries
    request  := str16 id | u16 key | bigint base | bigint exponent | u8 flags
                | [bigint p | bigint q]         when flags bit 0
                | [f64 expires_at]              when flags bit 1
                ``key`` indexes the key table; an index past the table
                is a WireFormatError (the worker NACKs the batch)
                flags bit 2: priority class is interactive (batch when
                clear); ``expires_at`` is the absolute deadline on the
                ``time.monotonic()`` clock — valid across forked
                workers, checked worker-side before execution
    results  := 0x02 | u64 batch_id | f64 batch_wall_us | u16 count
                | result* | u32 tlen | telemetry-json
    nack     := 0x03 | u64 batch_id | str16 message
                the worker's decode-failure report: a batch frame it
                could not parse (``batch_id`` is 0 when even the header
                was unreadable); the parent degrades the shard and
                requeues the batch instead of killing the worker
    result   := str16 id | u8 ok
                ok=1: bigint value | u8 has_cycles | [u64 cycles] | f64 wall_us
                ok=0: str16 error_type | str16 check | str16 message
    bigint   := u32 n | n bytes, big-endian, minimal (0 encodes as n=0)
    str16    := u16 n | n bytes utf-8

``length`` is bounded by :data:`MAX_FRAME`; a declared length past the
bound, a truncated length prefix, or a payload shorter than its declared
structure all raise :class:`~repro.errors.WireFormatError` — a corrupt
pipe can never allocate unbounded memory or be half-parsed silently.
The trailing telemetry blob is the worker's per-batch metrics snapshot
(JSON — it is cold-path, per batch, and schema-free by design); with
batch-flag bit 2 it also carries ``spans``: request id → ``{"cycles",
"events"}``, one span session per executed request.

Request line fields
-------------------
``base``, ``exponent``, ``modulus``
    Required.  Integers, or strings parsed with base auto-detection
    (``"0x..."`` hex works — RSA-sized operands don't fit JSON numbers
    losslessly in every tool chain).
``id``
    Optional correlation id (string or integer; echoed back verbatim).
``l``
    Optional circuit width in bits.
``p``, ``q``
    Optional factors of the modulus for the CRT backend.
``timeout``
    Optional per-request wall-clock limit in seconds.
``deadline``
    Optional urgency key (earliest dispatches first).
``budget_ms``
    Optional completion budget in milliseconds.  Deadlines are
    *relative* on the JSON wire (an absolute monotonic timestamp means
    nothing to a remote client); the service converts the budget to an
    absolute ``expires_at`` at admission.
``priority``
    Optional priority class, ``"interactive"`` or ``"batch"``
    (default).  Under overload, batch traffic is shed first.

Result line fields
------------------
``id``, ``ok`` always; ``value`` (as a string when ≥ 2⁵³, so JavaScript
consumers cannot silently lose precision), ``cycles``, ``wall_us``,
``batch`` and ``backend`` on success; ``error`` / ``error_type`` on
failure.  A rejected request (backpressure) is ``ok: false`` with
``error_type: "QueueFull"``.

A blank input line is a **flush marker**: the serve loop dispatches its
buffered batch immediately instead of waiting for ``max_batch`` lines.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ParameterError, WireFormatError
from repro.serving.request import ModExpRequest, ModExpResult

__all__ = [
    "parse_request_line",
    "request_to_json",
    "result_to_dict",
    "result_to_json",
    "read_requests",
    "MAX_FRAME",
    "encode_batch_frame",
    "decode_batch_frame",
    "batch_frame_cheap_mode",
    "batch_frame_wants_spans",
    "encode_result_frame",
    "decode_result_frame",
    "encode_nack_frame",
    "decode_nack_frame",
    "write_frame",
    "read_frame",
    "iter_frames",
]

#: Integers at or above 2^53 are emitted as strings on the wire.
_JSON_SAFE_INT = 1 << 53


def _wire_error(message: str, request_id: str = "") -> WireFormatError:
    exc = WireFormatError(message)
    exc.request_id = request_id  # type: ignore[attr-defined]
    return exc


def _to_int(value: Any, field: str, request_id: str) -> int:
    if isinstance(value, bool):
        raise _wire_error(f"field {field!r} must be an integer", request_id)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            raise _wire_error(
                f"field {field!r} is not a parseable integer: {value!r}", request_id
            ) from None
    raise _wire_error(
        f"field {field!r} must be an integer or integer string, "
        f"got {type(value).__name__}",
        request_id,
    )


def parse_request_line(line: str) -> ModExpRequest:
    """Parse one JSON request line into a :class:`ModExpRequest`.

    Raises :class:`~repro.errors.WireFormatError` on malformed input;
    when an ``id`` was recoverable it is attached to the exception as
    ``request_id`` so the error response can still correlate.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _wire_error(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise _wire_error(f"request line must be a JSON object, got {type(obj).__name__}")

    raw_id = obj.get("id", "")
    request_id = str(raw_id) if raw_id is not None else ""

    unknown = set(obj) - {
        "id", "base", "exponent", "modulus", "l", "p", "q", "timeout", "deadline",
        "budget_ms", "priority",
    }
    if unknown:
        raise _wire_error(
            f"unknown request fields: {', '.join(sorted(unknown))}", request_id
        )
    for field in ("base", "exponent", "modulus"):
        if field not in obj:
            raise _wire_error(f"missing required field {field!r}", request_id)

    factors: Optional[Tuple[int, int]] = None
    if ("p" in obj) != ("q" in obj):
        raise _wire_error("factors p and q must be given together", request_id)
    if "p" in obj:
        factors = (
            _to_int(obj["p"], "p", request_id),
            _to_int(obj["q"], "q", request_id),
        )

    def _number(field: str) -> Optional[float]:
        if field not in obj or obj[field] is None:
            return None
        value = obj[field]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _wire_error(f"field {field!r} must be a number", request_id)
        return float(value)

    priority = obj.get("priority", "batch")
    if not isinstance(priority, str):
        raise _wire_error("field 'priority' must be a string", request_id)
    budget_ms = _number("budget_ms")
    if budget_ms is not None and budget_ms <= 0:
        raise _wire_error("field 'budget_ms' must be > 0", request_id)

    try:
        return ModExpRequest(
            base=_to_int(obj["base"], "base", request_id),
            exponent=_to_int(obj["exponent"], "exponent", request_id),
            modulus=_to_int(obj["modulus"], "modulus", request_id),
            request_id=request_id,
            l=_to_int(obj.get("l", 0), "l", request_id),
            factors=factors,
            timeout=_number("timeout"),
            deadline=_number("deadline"),
            priority=priority,
            budget_s=None if budget_ms is None else budget_ms / 1000.0,
        )
    except ParameterError as exc:
        raise _wire_error(str(exc), request_id) from None


def _wire_int(value: int) -> Union[int, str]:
    return value if abs(value) < _JSON_SAFE_INT else str(value)


def request_to_json(request: ModExpRequest) -> str:
    """Serialize a request back to its wire form (workload generators)."""
    obj: Dict[str, Any] = {
        "base": _wire_int(request.base),
        "exponent": _wire_int(request.exponent),
        "modulus": _wire_int(request.modulus),
    }
    if request.request_id:
        obj["id"] = request.request_id
    if request.l:
        obj["l"] = request.l
    if request.factors is not None:
        obj["p"], obj["q"] = map(_wire_int, request.factors)
    if request.timeout is not None:
        obj["timeout"] = request.timeout
    if request.deadline is not None:
        obj["deadline"] = request.deadline
    if request.priority != "batch":
        obj["priority"] = request.priority
    if request.budget_s is not None:
        obj["budget_ms"] = request.budget_s * 1000.0
    return json.dumps(obj, sort_keys=True)


def result_to_dict(result: ModExpResult) -> Dict[str, Any]:
    obj: Dict[str, Any] = {"id": result.request_id, "ok": result.ok}
    if result.ok:
        assert result.value is not None
        obj["value"] = _wire_int(result.value)
        if result.cycles is not None:
            obj["cycles"] = result.cycles
        if result.wall_us is not None:
            obj["wall_us"] = round(result.wall_us, 1)
    else:
        obj["error"] = result.error
        obj["error_type"] = result.error_type
        if result.bundle_path:
            obj["bundle_path"] = result.bundle_path
    if result.backend:
        obj["backend"] = result.backend
    if result.batch_index is not None:
        obj["batch"] = result.batch_index
    return obj


def result_to_json(result: ModExpResult) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def read_requests(
    lines: Iterable[str],
) -> Iterator[Tuple[int, Union[ModExpRequest, WireFormatError]]]:
    """Parse a JSON-lines workload, yielding ``(line_number, item)``.

    Blank lines are skipped (they are flush markers, meaningless in a
    file); malformed lines yield the :class:`WireFormatError` instead of
    a request so ``repro batch`` can keep input/output line alignment.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield lineno, parse_request_line(stripped)
        except WireFormatError as exc:
            yield lineno, exc


# ----------------------------------------------------------------------
# Binary batch frames (the sharded data plane)
# ----------------------------------------------------------------------

#: Hard ceiling on one frame's payload.  Generous — a 4096-entry batch of
#: RSA-4096 operands is under 7 MiB — while keeping a corrupt or hostile
#: length prefix from asking the receiver to allocate gigabytes.
MAX_FRAME = 1 << 26  # 64 MiB

BATCH_FRAME = 0x01
RESULT_FRAME = 0x02
NACK_FRAME = 0x03

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

#: request flags
_HAS_FACTORS = 0x01
_HAS_DEADLINE = 0x02
_INTERACTIVE = 0x04

#: batch flags
_WANT_TELEMETRY = 0x01
_CHEAP_MODE = 0x02
_WANT_SPANS = 0x04


def _seal(buf: bytearray) -> bytes:
    """Append the payload checksum: u32 crc32 over every byte so far."""
    buf += _U32.pack(zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    return bytes(buf)


def _open(payload: bytes, what: str) -> bytes:
    """Verify and strip a payload's crc32 trailer before parsing."""
    if len(payload) < 5:
        raise WireFormatError(f"{what}: payload too short for a checksum")
    body, (crc,) = payload[:-4], _U32.unpack(payload[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise WireFormatError(f"{what}: checksum mismatch (corrupt frame)")
    return body


def _put_bigint(buf: bytearray, value: int, field: str) -> None:
    if value < 0:
        raise WireFormatError(f"field {field!r} must be non-negative, got {value}")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    buf += _U32.pack(len(raw))
    buf += raw


def _put_str(buf: bytearray, text: str, field: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireFormatError(f"field {field!r} exceeds 65535 encoded bytes")
    buf += _U16.pack(len(raw))
    buf += raw


class _Reader:
    """Bounds-checked cursor over one frame payload.

    Every read validates against the payload length first, so a frame
    whose declared structure outruns its bytes fails with a precise
    :class:`WireFormatError` instead of a ``struct.error`` mid-field.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if n > len(self.data) - self.pos:
            raise WireFormatError(
                f"truncated frame: {what} wants {n} bytes, "
                f"{len(self.data) - self.pos} remain"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return _F64.unpack(self.take(8, what))[0]

    def bigint(self, what: str) -> int:
        n = self.u32(what + " length")
        if n > MAX_FRAME:
            raise WireFormatError(
                f"{what}: declared integer length {n} exceeds frame bound"
            )
        return int.from_bytes(self.take(n, what), "big")

    def string(self, what: str) -> str:
        n = self.u16(what + " length")
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"{what}: invalid UTF-8 ({exc})") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireFormatError(
                f"frame has {len(self.data) - self.pos} trailing bytes"
            )


def encode_batch_frame(
    batch_id: int,
    requests: Sequence[ModExpRequest],
    *,
    attempt: int = 0,
    want_telemetry: bool = True,
    want_spans: bool = False,
    cheap_mode: bool = False,
) -> bytes:
    """One frame's requests — the batches one dispatch placed on one
    shard — as a binary frame payload.

    Each distinct ``(modulus, l)`` of the frame is encoded once, in the
    frame's key table; every request carries a ``u16`` index into it, so
    each modulus is sent once per frame whatever batch key (see
    :func:`repro.serving.scheduler.batch_key`) its batch had.
    ``want_telemetry`` sets batch-flag bit 0: when clear, the
    worker skips metrics capture for the batch (observation hooks on the
    engine hot path are not free) and answers with an empty telemetry
    blob.  ``cheap_mode`` sets bit 1 — the brownout lever: the worker
    executes the batch on its registry's cheapest capable backend
    instead of its primary.  ``want_spans`` sets bit 2: the worker
    records one span session per request into the telemetry blob.  A
    request's absolute deadline and priority class ride per-request
    flags, so expiry is checkable worker-side.
    """
    if not requests:
        raise WireFormatError("a batch frame needs at least one request")
    # One pass: the requests go to ``body`` while the key table fills in
    # first-appearance order; the header and table are written after.
    table: Dict[Tuple[int, int], bytes] = {}  # (modulus, l) -> packed index
    body = bytearray()
    for request in requests:
        key = request.coalesce_key
        index = table.get(key)
        if index is None:
            if len(table) == 0xFFFF:  # the key count is a u16
                raise WireFormatError(
                    "a batch frame holds at most 65535 (modulus, l) keys"
                )
            index = table[key] = _U16.pack(len(table))
        _put_str(body, request.request_id, "id")
        body += index
        _put_bigint(body, request.base, "base")
        _put_bigint(body, request.exponent, "exponent")
        flags = _HAS_FACTORS if request.factors is not None else 0
        if request.expires_at is not None:
            flags |= _HAS_DEADLINE
        if request.priority == "interactive":
            flags |= _INTERACTIVE
        body.append(flags)
        if request.factors is not None:
            _put_bigint(body, request.factors[0], "p")
            _put_bigint(body, request.factors[1], "q")
        if request.expires_at is not None:
            body += _F64.pack(request.expires_at)
    buf = bytearray([BATCH_FRAME])
    buf += _U64.pack(batch_id)
    buf.append(attempt & 0xFF)
    bflags = _WANT_TELEMETRY if want_telemetry else 0
    if cheap_mode:
        bflags |= _CHEAP_MODE
    if want_spans:
        bflags |= _WANT_SPANS
    buf.append(bflags)
    buf += _U16.pack(len(table))
    for modulus, l in table:
        _put_bigint(buf, modulus, "modulus")
        buf += _U32.pack(l)
    buf += _U16.pack(len(requests))
    buf += body
    return _seal(buf)


def decode_batch_frame(
    payload: bytes,
) -> Tuple[int, int, bool, List[ModExpRequest]]:
    """Parse a batch frame payload.

    Returns ``(batch_id, attempt, want_telemetry, requests)``; each
    request carries the ``(modulus, l)`` its key-table index names.  The
    cheap-mode and span flags are available separately via
    :func:`batch_frame_cheap_mode` and :func:`batch_frame_wants_spans`
    so this signature stays stable.
    """
    r = _Reader(_open(payload, "batch frame"))
    kind = r.u8("frame kind")
    if kind != BATCH_FRAME:
        raise WireFormatError(f"expected batch frame (0x01), got 0x{kind:02x}")
    batch_id = r.u64("batch id")
    attempt = r.u8("attempt")
    bflags = r.u8("batch flags")
    if bflags & ~(_WANT_TELEMETRY | _CHEAP_MODE | _WANT_SPANS):
        raise WireFormatError(f"unknown batch flags 0x{bflags:02x}")
    want_telemetry = bool(bflags & _WANT_TELEMETRY)
    keys = [
        (r.bigint("modulus"), r.u32("l")) for _ in range(r.u16("key count"))
    ]
    count = r.u16("request count")
    requests: List[ModExpRequest] = []
    for _ in range(count):
        request_id = r.string("request id")
        index = r.u16("key index")
        try:
            modulus, l = keys[index]
        except IndexError:
            raise WireFormatError(
                f"request {request_id!r}: key index {index} past the "
                f"{len(keys)}-entry key table"
            ) from None
        base = r.bigint("base")
        exponent = r.bigint("exponent")
        flags = r.u8("request flags")
        if flags & ~(_HAS_FACTORS | _HAS_DEADLINE | _INTERACTIVE):
            raise WireFormatError(f"unknown request flags 0x{flags:02x}")
        factors: Optional[Tuple[int, int]] = None
        if flags & _HAS_FACTORS:
            factors = (r.bigint("p"), r.bigint("q"))
        expires_at: Optional[float] = None
        if flags & _HAS_DEADLINE:
            expires_at = r.f64("expires_at")
        try:
            requests.append(
                ModExpRequest(
                    base=base,
                    exponent=exponent,
                    modulus=modulus,
                    request_id=request_id,
                    l=l,
                    factors=factors,
                    priority="interactive" if flags & _INTERACTIVE else "batch",
                    expires_at=expires_at,
                )
            )
        except ParameterError as exc:
            raise WireFormatError(f"invalid request in batch frame: {exc}") from None
    r.done()
    return batch_id, attempt, want_telemetry, requests


def _batch_flag(payload: bytes, flag: int) -> bool:
    if len(payload) < 11 or payload[0] != BATCH_FRAME:
        return False
    return bool(payload[10] & flag)


def batch_frame_cheap_mode(payload: bytes) -> bool:
    """Peek the brownout cheap-mode flag of a batch frame payload."""
    return _batch_flag(payload, _CHEAP_MODE)


def batch_frame_wants_spans(payload: bytes) -> bool:
    """Peek the per-request span flag of a batch frame payload."""
    return _batch_flag(payload, _WANT_SPANS)


def encode_nack_frame(batch_id: int, message: str) -> bytes:
    """A worker's decode-failure report for one batch frame.

    ``batch_id`` is 0 when even the frame header was unreadable.  The
    parent treats a NACK as shard *degradation*, not death: the pipe's
    message boundaries survive a corrupt payload, so the stream is
    intact and the batch can be requeued without recycling the worker.
    """
    buf = bytearray([NACK_FRAME])
    buf += _U64.pack(batch_id)
    _put_str(buf, message, "nack message")
    return _seal(buf)


def decode_nack_frame(payload: bytes) -> Tuple[int, str]:
    """Parse a NACK frame into ``(batch_id, message)``."""
    r = _Reader(_open(payload, "nack frame"))
    kind = r.u8("frame kind")
    if kind != NACK_FRAME:
        raise WireFormatError(f"expected nack frame (0x03), got 0x{kind:02x}")
    batch_id = r.u64("batch id")
    message = r.string("nack message")
    r.done()
    return batch_id, message


def encode_result_frame(
    batch_id: int,
    results: Sequence[Dict[str, Any]],
    *,
    batch_wall_us: float = 0.0,
    telemetry: Optional[Dict[str, Any]] = None,
) -> bytes:
    """One batch's results (plus the worker's telemetry snapshot).

    Each result dict carries ``id`` and either ``value`` (with optional
    ``cycles`` / ``wall_us``) or ``error_type`` / ``check`` / ``error``.
    """
    buf = bytearray([RESULT_FRAME])
    buf += _U64.pack(batch_id)
    buf += _F64.pack(batch_wall_us)
    buf += _U16.pack(len(results))
    for res in results:
        _put_str(buf, str(res.get("id", "")), "id")
        if "value" in res:
            buf.append(1)
            _put_bigint(buf, res["value"], "value")
            cycles = res.get("cycles")
            if cycles is None:
                buf.append(0)
            else:
                buf.append(1)
                buf += _U64.pack(cycles)
            buf += _F64.pack(float(res.get("wall_us", 0.0)))
        else:
            buf.append(0)
            _put_str(buf, str(res.get("error_type", "RuntimeError")), "error type")
            _put_str(buf, str(res.get("check", "")), "check")
            _put_str(buf, str(res.get("error", "")), "error message")
    blob = b"" if telemetry is None else json.dumps(telemetry).encode("utf-8")
    buf += _U32.pack(len(blob))
    buf += blob
    return _seal(buf)


def decode_result_frame(
    payload: bytes,
) -> Tuple[int, float, List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Parse a result frame into ``(batch_id, wall_us, results, telemetry)``."""
    r = _Reader(_open(payload, "result frame"))
    kind = r.u8("frame kind")
    if kind != RESULT_FRAME:
        raise WireFormatError(f"expected result frame (0x02), got 0x{kind:02x}")
    batch_id = r.u64("batch id")
    batch_wall_us = r.f64("batch wall time")
    count = r.u16("result count")
    results: List[Dict[str, Any]] = []
    for _ in range(count):
        res: Dict[str, Any] = {"id": r.string("result id")}
        if r.u8("ok flag"):
            res["value"] = r.bigint("value")
            if r.u8("has-cycles flag"):
                res["cycles"] = r.u64("cycles")
            res["wall_us"] = r.f64("wall time")
        else:
            res["error_type"] = r.string("error type")
            res["check"] = r.string("check")
            res["error"] = r.string("error message")
        results.append(res)
    tlen = r.u32("telemetry length")
    telemetry: Optional[Dict[str, Any]] = None
    if tlen:
        try:
            telemetry = json.loads(r.take(tlen, "telemetry").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"corrupt telemetry blob: {exc}") from None
    r.done()
    return batch_id, batch_wall_us, results, telemetry


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    """Write one length-prefixed frame to a byte stream."""
    if len(payload) > MAX_FRAME:
        raise WireFormatError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    stream.write(_U32.pack(len(payload)) + payload)


def read_frame(stream: BinaryIO) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` at a clean end of stream.

    A partial length prefix, a declared length past :data:`MAX_FRAME`,
    or a payload cut short all raise :class:`WireFormatError`.
    """
    prefix = stream.read(4)
    if not prefix:
        return None
    if len(prefix) < 4:
        raise WireFormatError(
            f"truncated length prefix: got {len(prefix)} of 4 bytes"
        )
    (length,) = _U32.unpack(prefix)
    if length > MAX_FRAME:
        raise WireFormatError(
            f"declared frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
        )
    payload = stream.read(length)
    if len(payload) < length:
        raise WireFormatError(
            f"truncated frame: declared {length} bytes, got {len(payload)}"
        )
    return payload


def iter_frames(stream: BinaryIO) -> Iterator[bytes]:
    """Yield frame payloads until a clean end of stream."""
    while True:
        payload = read_frame(stream)
        if payload is None:
            return
        yield payload
