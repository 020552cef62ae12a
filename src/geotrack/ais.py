"""AIVDM/NMEA 0183 decoder for AIS message types 1, 2, 3, 18 and 5.

The pipeline is: checksum verification -> multi-fragment assembly -> 6-bit
payload de-armoring -> bit-field extraction.  Decoded fields that carry the
protocol's "not available" sentinels come back as ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

POSITION_SCALE_STANDARD = 1.0 / 600000.0  # raw 1/10000 arc-minute -> degrees
SOG_KNOT_TENTHS_TO_MPS = 0.51444 / 10.0

# raw positions beyond these, the 181/91 "not available" values included,
# decode as missing
LON_RAW_LIMIT = 180 * 600000
LAT_RAW_LIMIT = 90 * 600000
SOG_RAW_SENTINEL = 1023
HEADING_RAW_SENTINEL = 511

# A multi-fragment message goes out as consecutive sentences, and the
# sequence id that keys it cycles through 0-9 (IEC 61162-1), so a partial
# not completed within this many further sentences has lost a fragment.
# Counting sentences instead of seconds makes reassembly the same at any
# replay speed; the window also bounds the table, whose keys the feed sets.
FRAGMENT_WINDOW = 100

DYNAMIC_TYPES = (1, 2, 3, 18)
STATIC_TYPES = (5,)


class AisError(Exception):
    """Base class for all decoder errors."""


class MalformedSentence(AisError):
    pass


class InvalidCharacter(AisError):
    pass


class WrongMessageType(AisError):
    pass


class UnsupportedMessageType(AisError):
    pass


class TruncatedPayload(AisError):
    pass


class IncompleteMessage(AisError):
    pass


class ConflictingFragments(AisError):
    pass


@dataclass(frozen=True)
class NmeaSentence:
    tag: str
    fragment_count: int
    fragment_index: int
    sequence_id: Optional[int]
    channel: str
    payload: str
    fill_bits: int
    checksum: int
    raw: str


@dataclass(frozen=True)
class DynamicAisReport:
    mmsi: int
    msg_type: int
    lon: Optional[float]          # degrees
    lat: Optional[float]          # degrees
    sog: Optional[float]          # m/s
    cog: Optional[float]          # degrees
    heading: Optional[int]        # degrees
    timestamp_sec: Optional[int]  # UTC second of the report, 0-59


@dataclass(frozen=True)
class StaticAisReport:
    mmsi: int
    imo: int
    name: str
    type_code: int
    dim_to_bow: int
    dim_to_stern: int
    dim_to_port: int
    dim_to_starboard: int
    draught: float  # meters


def compute_checksum(body: str) -> int:
    """XOR of all characters between the leading '!'/'$' and the '*'."""
    acc = 0
    for ch in body:
        acc ^= ord(ch)
    return acc


def verify_checksum(line: str) -> bool:
    line = line.strip()
    if not line or line[0] not in "!$" or "*" not in line:
        raise MalformedSentence(f"not a checksummed NMEA sentence: {line[:40]!r}")
    body, _, tail = line[1:].partition("*")
    if len(tail) < 2:
        raise MalformedSentence("missing checksum digits")
    try:
        declared = int(tail[:2], 16)
    except ValueError as exc:
        raise MalformedSentence("non-hex checksum digits") from exc
    return compute_checksum(body) == declared


def parse_sentence(line: str) -> NmeaSentence:
    stripped = line.strip()
    if not verify_checksum(stripped):
        raise MalformedSentence("checksum mismatch")
    body = stripped[1:].split("*", 1)[0]
    fields = body.split(",")
    if len(fields) != 7:
        raise MalformedSentence(f"expected 7 fields, got {len(fields)}")
    tag, frag_count, frag_idx, seq, channel, payload, fill = fields
    if not tag.endswith("VDM") and not tag.endswith("VDO"):
        raise MalformedSentence(f"unexpected sentence tag {tag!r}")
    try:
        count = int(frag_count)
        index = int(frag_idx)
        fill_bits = int(fill)
    except ValueError as exc:
        raise MalformedSentence("non-numeric fragment/fill field") from exc
    seq_id = int(seq) if seq else None
    if count < 1 or not 1 <= index <= count or not 0 <= fill_bits <= 5:
        raise MalformedSentence("fragment bookkeeping out of range")
    checksum = int(stripped.split("*", 1)[1][:2], 16)
    return NmeaSentence(tag, count, index, seq_id, channel, payload,
                        fill_bits, checksum, stripped)


def dearmor(payload: str, fill_bits: int = 0) -> str:
    """6-bit armored payload text -> bit string ('0'/'1'), MSB first."""
    bits = []
    for ch in payload:
        v = ord(ch) - 48
        if v > 40:
            v -= 8
        if not 0 <= v <= 63:
            raise InvalidCharacter(f"invalid armor character {ch!r}")
        bits.append(format(v, "06b"))
    joined = "".join(bits)
    if fill_bits:
        if fill_bits > len(joined):
            raise TruncatedPayload("fill bits exceed payload length")
        joined = joined[:-fill_bits]
    return joined


def armor(bits: str) -> tuple[str, int]:
    """Bit string -> (armored payload text, fill bits); inverse of dearmor."""
    fill = (-len(bits)) % 6
    padded = bits + "0" * fill
    chars = []
    for i in range(0, len(padded), 6):
        v = int(padded[i:i + 6], 2)
        if v > 39:
            v += 8
        chars.append(chr(v + 48))
    return "".join(chars), fill


class FragmentAssembler:
    """Single-owner reassembly buffer for multi-fragment messages.

    Its clock is the number of sentences it has been given. A partial
    sequence is dropped once more than ``FRAGMENT_WINDOW`` sentences have
    followed its first fragment. A fragment that contradicts the partial
    held under its channel and sequence id (another fragment count, or a
    held index with another payload) starts that sequence afresh, and
    ConflictingFragments is raised for the partial it replaced.
    """

    def __init__(self):
        self._sentences = 0
        # (channel, sequence id) -> partial, oldest first
        self._pending: dict[tuple, dict] = {}

    def add(self, sentence: NmeaSentence) -> Optional[str]:
        """Ingest one fragment; returns the assembled bit string when complete."""
        self._expire()
        self._sentences += 1
        if sentence.fragment_count == 1:
            return dearmor(sentence.payload, sentence.fill_bits)
        key = (sentence.channel, sentence.sequence_id)
        part = (sentence.payload, sentence.fill_bits)
        entry = self._pending.get(key)
        conflict = entry is not None and (
            entry["count"] != sentence.fragment_count
            or entry["parts"].get(sentence.fragment_index, part) != part)
        if entry is None or conflict:
            self._pending.pop(key, None)
            entry = self._pending[key] = {"count": sentence.fragment_count,
                                          "parts": {}, "born": self._sentences}
        entry["parts"][sentence.fragment_index] = part
        if conflict:
            raise ConflictingFragments("fragment contradicts its partial sequence")
        if len(entry["parts"]) < entry["count"]:
            return None
        del self._pending[key]
        bits = []
        for idx in range(1, sentence.fragment_count + 1):
            payload, fill = entry["parts"][idx]
            # only the final fragment carries fill bits
            bits.append(dearmor(payload, fill if idx == sentence.fragment_count else 0))
        return "".join(bits)

    def _expire(self) -> None:
        pending = self._pending
        while pending:
            key, entry = next(iter(pending.items()))
            if self._sentences - entry["born"] <= FRAGMENT_WINDOW:
                return
            del pending[key]


def assemble_fragments(sentences: list[NmeaSentence]) -> str:
    """Assemble a complete fragment set (any order) into one bit string."""
    asm = FragmentAssembler()
    result = None
    for s in sorted(sentences, key=lambda s: s.fragment_index):
        result = asm.add(s)
    if result is None:
        raise IncompleteMessage("fragment set is not complete")
    return result


def _bits(bits: str, start: int, stop: int) -> int:
    """Unsigned integer from bits[start:stop+1] (inclusive bit map indices)."""
    if stop >= len(bits):
        raise TruncatedPayload(f"payload ends at bit {len(bits)}, need {stop}")
    return int(bits[start:stop + 1], 2)


def _signed_bits(bits: str, start: int, stop: int) -> int:
    raw = _bits(bits, start, stop)
    width = stop - start + 1
    if raw >= 1 << (width - 1):
        raw -= 1 << width
    return raw


def message_type(bits: str) -> int:
    return _bits(bits, 0, 5)


def decode_dynamic(bits: str) -> DynamicAisReport:
    """Decode a Class A (1/2/3) or Class B (18) position report."""
    mtype = message_type(bits)
    if mtype not in DYNAMIC_TYPES:
        raise WrongMessageType(f"message type {mtype} is not a dynamic report")
    if mtype == 18:
        sog_rng, lon_rng, lat_rng = (46, 55), (57, 84), (85, 111)
        cog_rng, hdg_rng, ts_rng = (112, 123), (124, 132), (133, 138)
    else:
        sog_rng, lon_rng, lat_rng = (50, 59), (61, 88), (89, 115)
        cog_rng, hdg_rng, ts_rng = (116, 127), (128, 136), (137, 142)

    mmsi = _bits(bits, 8, 37)

    lon_raw = _signed_bits(bits, *lon_rng)
    lat_raw = _signed_bits(bits, *lat_rng)
    lon = None if abs(lon_raw) > LON_RAW_LIMIT else lon_raw * POSITION_SCALE_STANDARD
    lat = None if abs(lat_raw) > LAT_RAW_LIMIT else lat_raw * POSITION_SCALE_STANDARD

    sog_raw = _bits(bits, *sog_rng)
    sog = None if sog_raw == SOG_RAW_SENTINEL else sog_raw * SOG_KNOT_TENTHS_TO_MPS

    cog_raw = _bits(bits, *cog_rng)
    cog = None if cog_raw >= 3600 else cog_raw / 10.0

    hdg_raw = _bits(bits, *hdg_rng)
    heading = None if hdg_raw == HEADING_RAW_SENTINEL else hdg_raw

    ts_raw = _bits(bits, *ts_rng)
    timestamp = None if ts_raw >= 60 else ts_raw

    return DynamicAisReport(mmsi, mtype, lon, lat, sog, cog, heading, timestamp)


_SIXBIT_ALPHABET = "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_ !\"#$%&'()*+,-./0123456789:;<=>?"


def sixbit_text(bits: str, start: int, stop: int) -> str:
    """Decode a 6-bit ASCII text field; '@' padding and edge whitespace removed."""
    chars = []
    for i in range(start, stop + 1, 6):
        chars.append(_SIXBIT_ALPHABET[_bits(bits, i, i + 5)])
    text = "".join(chars)
    return text.rstrip("@").strip()


def decode_static(bits: str) -> StaticAisReport:
    """Decode a Type 5 static voyage report."""
    mtype = message_type(bits)
    if mtype not in STATIC_TYPES:
        raise WrongMessageType(f"message type {mtype} is not a static report")
    return StaticAisReport(
        mmsi=_bits(bits, 8, 37),
        imo=_bits(bits, 40, 69),
        name=sixbit_text(bits, 112, 231),
        type_code=_bits(bits, 232, 239),
        dim_to_bow=_bits(bits, 240, 248),
        dim_to_stern=_bits(bits, 249, 257),
        dim_to_port=_bits(bits, 258, 263),
        dim_to_starboard=_bits(bits, 264, 269),
        draught=_bits(bits, 294, 301) / 10.0,
    )


def decode_payload(bits: str):
    """Dispatch an assembled payload to the right field decoder."""
    if len(bits) < 6:
        raise TruncatedPayload("payload shorter than the type field")
    mtype = message_type(bits)
    if mtype in DYNAMIC_TYPES:
        return decode_dynamic(bits)
    if mtype in STATIC_TYPES:
        return decode_static(bits)
    raise UnsupportedMessageType(f"message type {mtype} not handled")


@dataclass
class StreamCounters:
    lines: int = 0
    decoded: int = 0
    malformed: int = 0
    unsupported: int = 0
    pending_fragments: int = 0


def decode_lines(tagged_lines: Iterable[tuple[object, str]],
                 counters: StreamCounters | None = None):
    """Decode a stream of ``(tag, line)`` pairs lazily, yielding
    ``(tag, report)`` with the tag of the line that completed the report.

    Never raises on bad input; every malformed or unsupported line is counted
    and skipped.
    """
    counters = counters if counters is not None else StreamCounters()
    assembler = FragmentAssembler()
    for tag, line in tagged_lines:
        if not line.strip():
            continue
        counters.lines += 1
        try:
            sentence = parse_sentence(line)
            bits = assembler.add(sentence)
            if bits is None:
                counters.pending_fragments += 1
                continue
            report = decode_payload(bits)
        except UnsupportedMessageType:
            counters.unsupported += 1
            continue
        except AisError:
            counters.malformed += 1
            continue
        counters.decoded += 1
        yield tag, report
