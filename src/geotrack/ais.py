"""AIVDM/NMEA 0183 decoder for AIS message types 1, 2, 3, 18 and 5.

The pipeline is: sidecar time split -> checksum verification ->
multi-fragment assembly -> 6-bit payload de-armoring into one integer ->
bit-field extraction by shift and mask.  Decoded fields that carry the protocol's "not available" sentinels
come back as ``None``.
"""

from __future__ import annotations

import binascii
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

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


class AisError(Exception):
    """Base class for all decoder errors."""


class MalformedSentence(AisError):
    pass


class InvalidCharacter(AisError):
    pass


class UnsupportedMessageType(AisError):
    pass


class TruncatedPayload(AisError):
    pass


class ConflictingFragments(AisError):
    pass


class NmeaSentence(NamedTuple):
    fragment_count: int
    fragment_index: int
    sequence_id: Optional[int]
    channel: str
    payload: str
    fill_bits: int


# Reports are slotted and mutable only because that is the cheapest class
# to build, one per decoded line; they compare by class and fields.
@dataclass(slots=True)
class DynamicAisReport:
    mmsi: int
    msg_type: int
    lon: Optional[float]          # degrees
    lat: Optional[float]          # degrees
    sog: Optional[float]          # m/s
    cog: Optional[float]          # degrees
    heading: Optional[int]        # degrees
    timestamp_sec: Optional[int]  # UTC second of the report, 0-59


@dataclass(slots=True)
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
    """XOR of the bytes between the leading '!'/'$' and the '*'."""
    return functools.reduce(operator.xor, body.encode(), 0)


# every two-digit hex checksum, upper, lower and mixed case, by its text
_HEX_PAIRS = {a + b: int(a + b, 16) for a in "0123456789ABCDEFabcdef"
              for b in "0123456789ABCDEFabcdef"}


def parse_sentence(text: str) -> NmeaSentence:
    """Parse one stripped ``!``/``$`` sentence. Its checksum is two hex
    digits and its fragment, sequence and fill fields ASCII digits."""
    body, star, tail = text[1:].partition("*")
    if not star or text[0] not in "!$":
        raise MalformedSentence(f"not a checksummed NMEA sentence: {text[:40]!r}")
    declared = _HEX_PAIRS.get(tail[:2])
    if declared is None:
        raise MalformedSentence("missing or non-hex checksum digits")
    if not body.isascii():  # NMEA 0183 is ASCII
        raise MalformedSentence("non-ASCII sentence")
    if compute_checksum(body) != declared:
        raise MalformedSentence("checksum mismatch")
    fields = body.split(",")
    if len(fields) != 7:
        raise MalformedSentence(f"expected 7 fields, got {len(fields)}")
    tag, frag_count, frag_idx, seq, channel, payload, fill = fields
    if not tag.endswith(("VDM", "VDO")):
        raise MalformedSentence(f"unexpected sentence tag {tag!r}")
    # on ASCII text, isdigit() admits only '0'-'9'
    if not (frag_count.isdigit() and frag_idx.isdigit() and fill.isdigit()
            and (seq.isdigit() or not seq)):
        raise MalformedSentence("non-numeric fragment/sequence/fill field")
    count, index, fill_bits = int(frag_count), int(frag_idx), int(fill)
    if count < 1 or not 1 <= index <= count or fill_bits > 5:
        raise MalformedSentence("fragment bookkeeping out of range")
    return NmeaSentence(count, index, int(seq) if seq else None, channel, payload,
                        fill_bits)


# The armour alphabet (ITU-R M.1371-5, Annex 8): '0'-'W' (48-87) carry the
# 6-bit values 0-39 and '`'-'w' (96-119) carry 40-63. This byte table maps
# each to the base64 character of the same value, and every other byte to
# '!', which base64 lacks.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_ARMOR_TO_BASE64 = b"!" * 48 + _BASE64[:40] + b"!" * 8 + _BASE64[40:] + b"!" * 136
_NOT_ARMOR = ord("!")  # an int, which bytes search far faster than b"!"


def dearmor(payload: str, fill_bits: int = 0) -> tuple[int, int]:
    """6-bit armored payload text -> (value, bit count), the first bit the
    most significant."""
    # any non-ASCII character encodes to bytes above 127, which map to '!'
    text = payload.encode("utf-8", "surrogatepass").translate(_ARMOR_TO_BASE64)
    if _NOT_ARMOR in text:
        raise InvalidCharacter(f"invalid armor character in {payload!r}")
    nbits = 6 * len(payload)
    if fill_bits > nbits:
        raise TruncatedPayload("fill bits exceed payload length")
    pad = -len(text) % 4  # a2b_base64 decodes whole 4-character groups
    value = int.from_bytes(binascii.a2b_base64(text + b"A" * pad), "big")
    return value >> (6 * pad + fill_bits), nbits - fill_bits


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

    def add(self, sentence: NmeaSentence) -> Optional[tuple[int, int]]:
        """Ingest one fragment; returns the assembled (value, bit count) when
        complete."""
        if self._pending:
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
        value = nbits = 0
        for idx in range(1, sentence.fragment_count + 1):
            payload, fill = entry["parts"][idx]
            # only the final fragment carries fill bits
            v, n = dearmor(payload, fill if idx == sentence.fragment_count else 0)
            value = value << n | v
            nbits += n
        return value, nbits

    def _expire(self) -> None:
        pending = self._pending
        while pending:
            key, entry = next(iter(pending.items()))
            if self._sentences - entry["born"] <= FRAGMENT_WINDOW:
                return
            del pending[key]


# The last bit each decoded message type is read up to (ITU-R M.1371-5 bit
# map, bit 0 first): the time stamp of a position report, the draught of a
# type 5. Class B (18) fields from SOG on sit 4 bits before the Class A ones,
# so counted back from this bit, the fields of both classes line up.
_LAST_BIT = {1: 142, 2: 142, 3: 142, 18: 138, 5: 301}

_SIXBIT_ALPHABET = "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_ !\"#$%&'()*+,-./0123456789:;<=>?"


def decode_payload(payload: tuple[int, int]):
    """Decode an assembled ``(value, bit count)`` payload to its report.

    A field at bits start-stop is ``value >> (nbits - 1 - stop)`` masked to
    its width; below, every shift counts from the message's last bit.
    """
    value, nbits = payload
    if nbits < 6:
        raise TruncatedPayload("payload shorter than the type field")
    mtype = value >> (nbits - 6)
    last = _LAST_BIT.get(mtype)
    if last is None:
        raise UnsupportedMessageType(f"message type {mtype} not handled")
    if nbits <= last:
        raise TruncatedPayload(f"payload ends at bit {nbits}, need {last}")
    v = value >> (nbits - 1 - last)
    mmsi = v >> (last - 37) & 0x3FFFFFFF  # bits 8-37
    if mtype == 5:
        return _static_report(v, mmsi)

    # 28- and 27-bit two's complement positions
    lon_raw = ((v >> 54 & 0xFFFFFFF) ^ 0x8000000) - 0x8000000
    lat_raw = ((v >> 27 & 0x7FFFFFF) ^ 0x4000000) - 0x4000000
    lon = None if abs(lon_raw) > LON_RAW_LIMIT else lon_raw * POSITION_SCALE_STANDARD
    lat = None if abs(lat_raw) > LAT_RAW_LIMIT else lat_raw * POSITION_SCALE_STANDARD

    sog_raw = v >> 83 & 0x3FF
    sog = None if sog_raw == SOG_RAW_SENTINEL else sog_raw * SOG_KNOT_TENTHS_TO_MPS

    cog_raw = v >> 15 & 0xFFF
    cog = None if cog_raw >= 3600 else cog_raw / 10.0

    hdg_raw = v >> 6 & 0x1FF
    heading = None if hdg_raw == HEADING_RAW_SENTINEL else hdg_raw

    ts_raw = v & 0x3F
    timestamp = None if ts_raw >= 60 else ts_raw

    return DynamicAisReport(mmsi, mtype, lon, lat, sog, cog, heading, timestamp)


def _static_report(v: int, mmsi: int) -> StaticAisReport:
    """A type 5 report from its payload shifted to end at bit 301."""
    name_bits = v >> 70  # bits 112-231, twenty 6-bit characters
    name = "".join(_SIXBIT_ALPHABET[name_bits >> s & 0x3F] for s in range(114, -1, -6))
    return StaticAisReport(
        mmsi=mmsi,
        imo=v >> 232 & 0x3FFFFFFF,          # bits 40-69
        name=name.rstrip("@").strip(),      # '@' padding and edge spaces removed
        type_code=v >> 62 & 0xFF,           # bits 232-239
        dim_to_bow=v >> 53 & 0x1FF,         # bits 240-248
        dim_to_stern=v >> 44 & 0x1FF,       # bits 249-257
        dim_to_port=v >> 38 & 0x3F,         # bits 258-263
        dim_to_starboard=v >> 32 & 0x3F,    # bits 264-269
        draught=(v & 0xFF) / 10.0,          # bits 294-301
    )


@dataclass
class StreamCounters:
    lines: int = 0
    decoded: int = 0
    malformed: int = 0
    unsupported: int = 0


# A sidecar time must lie below this many seconds. Up to it, the float
# spacing of a time is at most 2**-10 s, far under the shortest replay tick
# (10 ms, at `track --rate 100`), so each tick step moves the clock; epoch
# seconds and epoch milliseconds fit, epoch nanoseconds do not.
MAX_SIDECAR_TIME_S = 2.0 ** 43


def _sidecar_split(text: str) -> tuple[float | None, str]:
    """(leading sidecar time, NMEA text) of one stripped line that does not
    start with a sentence.

    Only a finite number below MAX_SIDECAR_TIME_S in magnitude, written in
    ASCII without digit-group underscores, is a time; a line with any other
    head is passed on whole, and the decoder counts it as malformed.
    """
    head, comma, rest = text.partition(",")
    if comma and head.isascii() and "_" not in head:
        try:
            t = float(head)
        except ValueError:
            t = math.nan
        if abs(t) < MAX_SIDECAR_TIME_S:  # False for nan and inf
            return t, rest.lstrip()
    return None, text


def decode_lines(lines: Iterable[str], counters: StreamCounters | None = None):
    """Decode text lines lazily, yielding ``(t, report)``: ``t`` is the
    sidecar time of the line that completed the report, or None.

    A line is an NMEA sentence, optionally after a sidecar time and a comma
    (``12.5,!AIVDM,...``). Every non-blank line counts once in
    ``counters.lines``. Never raises on bad input; every malformed or
    unsupported line is counted and skipped.
    """
    counters = counters if counters is not None else StreamCounters()
    assembler = FragmentAssembler()
    for line in lines:
        text = line.strip()
        if not text:
            continue
        counters.lines += 1
        t = None
        if text[0] not in "!$":
            t, text = _sidecar_split(text)
        try:
            sentence = parse_sentence(text)
            payload = assembler.add(sentence)
            if payload is None:
                continue
            report = decode_payload(payload)
        except UnsupportedMessageType:
            counters.unsupported += 1
            continue
        except AisError:
            counters.malformed += 1
            continue
        counters.decoded += 1
        yield t, report
