import json
import math
import os
import random

import pytest

import make_ais_corpus as enc
from geotrack import ais
from geotrack.ais import (
    DynamicAisReport,
    FragmentAssembler,
    IncompleteMessage,
    ConflictingFragments,
    MalformedSentence,
    StaticAisReport,
    StreamCounters,
    UnsupportedMessageType,
    armor,
    assemble_fragments,
    compute_checksum,
    dearmor,
    decode_lines,
    decode_payload,
    parse_sentence,
    verify_checksum,
)
from conftest import DATA_DIR

CORPUS = os.path.join(DATA_DIR, "ais_corpus.nmea")
TRUTH = os.path.join(DATA_DIR, "ais_corpus_truth.json")


def corpus_lines():
    with open(CORPUS, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip()]


def truth():
    with open(TRUTH, encoding="utf-8") as fh:
        return json.load(fh)


def fields_match(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if isinstance(want, float):
        return got == pytest.approx(want, rel=1e-12, abs=1e-300) or got == want
    return got == want


class TestCorpusAgreement:
    def test_every_field_of_every_report(self):
        expected = truth()
        counters = StreamCounters()
        reports = list(decode_lines(corpus_lines(), counters))
        assert len(reports) == expected["n_reports"]
        assert counters.lines == expected["n_lines"]
        assert counters.malformed == expected["n_malformed"]
        assert counters.unsupported == expected["n_unsupported"]
        assert counters.decoded == expected["n_reports"]
        for got, want in zip(reports, expected["reports"]):
            if want["kind"] == "dynamic":
                assert isinstance(got, DynamicAisReport)
                for key in ("msg_type", "mmsi", "lon", "lat", "sog", "cog",
                            "heading", "timestamp_sec"):
                    assert fields_match(getattr(got, key), want[key]), (
                        key, got, want)
            else:
                assert isinstance(got, StaticAisReport)
                for key in ("msg_type", "mmsi", "imo", "name", "type_code",
                            "dim_to_bow", "dim_to_stern", "dim_to_port",
                            "dim_to_starboard", "draught"):
                    if key == "msg_type":
                        continue  # static reports are type 5 by construction
                    assert fields_match(getattr(got, key), want[key]), (
                        key, got, want)

    def test_known_vessel_static_report(self):
        statics = [r for r in decode_lines(corpus_lines())
                   if isinstance(r, StaticAisReport)]
        by_mmsi = {r.mmsi: r for r in statics}
        glovis = by_mmsi[440292000]
        assert glovis.name == "GLOVIS CHORUS"
        assert glovis.imo == 9674907
        assert glovis.draught == pytest.approx(9.8)

    def test_sog_worked_example(self):
        # raw 100 tenths-of-knots -> 5.1444 m/s
        first = next(iter(decode_lines(corpus_lines())))
        assert first.sog == pytest.approx(5.1444, rel=1e-12)


class TestArmoring:
    def test_dearmor_examples(self):
        assert dearmor("w") == "111111"
        assert dearmor("0") == "000000"
        assert dearmor("?") == "001111"

    def test_round_trip_all_corpus_payloads(self):
        for line in corpus_lines():
            try:
                s = parse_sentence(line)
            except MalformedSentence:
                continue
            bits = dearmor(s.payload, 0)
            back, fill = armor(bits)
            assert back == s.payload
            assert fill == 0

    def test_fill_bits_trim(self):
        bits = "101010101"  # 9 bits -> 2 chars + 3 fill
        payload, fill = armor(bits)
        assert fill == 3
        assert dearmor(payload, fill) == bits

    def test_invalid_character(self):
        with pytest.raises(ais.InvalidCharacter):
            dearmor("\x7f")


class TestSentenceParsing:
    def test_checksum_flip_detected(self):
        good = next(ln for ln in corpus_lines() if ln.startswith("!AIVDM"))
        body, _, tail = good[1:].partition("*")
        flipped = f"!{body}*{(int(tail[:2], 16) ^ 0x01):02X}"
        assert verify_checksum(good) is True
        assert verify_checksum(flipped) is False

    def test_compute_checksum(self):
        body = "AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0"
        line = f"!{body}*{compute_checksum(body):02X}"
        assert verify_checksum(line)

    def test_malformed_field_count(self):
        with pytest.raises(MalformedSentence):
            parse_sentence("!AIVDM,1,1,,A*27")

    def test_unsupported_type_counted(self):
        counters = StreamCounters()
        base4 = format(4, "06b") + "0" * 162
        payload, fill = armor(base4)
        body = f"AIVDM,1,1,,A,{payload},{fill}"
        line = f"!{body}*{compute_checksum(body):02X}"
        out = list(decode_lines([line], counters))
        assert out == []
        assert counters.unsupported == 1
        assert counters.malformed == 0


class TestFragmentAssembly:
    def _static_pair(self):
        lines = corpus_lines()
        for i, ln in enumerate(lines):
            if ",2,1," in ln:
                for j in range(max(0, i - 2), min(len(lines), i + 3)):
                    if ",2,2," in lines[j]:
                        return parse_sentence(lines[i]), parse_sentence(lines[j])
        raise AssertionError("no fragment pair in corpus")

    def test_order_independence(self):
        s1, s2 = self._static_pair()
        assert assemble_fragments([s1, s2]) == assemble_fragments([s2, s1])
        report = decode_payload(assemble_fragments([s2, s1]))
        assert isinstance(report, StaticAisReport)

    def test_incomplete_raises(self):
        s1, _ = self._static_pair()
        with pytest.raises(IncompleteMessage):
            assemble_fragments([s1])

    def test_timeout_discards_partials(self):
        s1, s2 = self._static_pair()
        asm = FragmentAssembler(timeout=30.0)
        assert asm.add(s1, now=0.0) is None
        # the partner arrives too late; the partial was expired, so the late
        # fragment starts a fresh (still incomplete) sequence
        assert asm.add(s2, now=100.0) is None
        assert asm.add(s1, now=101.0) is not None

    def test_conflicting_fragment_count(self):
        s1, _ = self._static_pair()
        conflict = ais.NmeaSentence(s1.tag, 3, 1, s1.sequence_id, s1.channel,
                                    s1.payload, s1.fill_bits, s1.checksum, s1.raw)
        asm = FragmentAssembler()
        asm.add(s1, now=0.0)
        with pytest.raises(ConflictingFragments):
            asm.add(conflict, now=0.0)


class TestScaleOptions:
    def test_sentinels_map_to_missing(self):
        reports = list(decode_lines(corpus_lines()))
        dyn = [r for r in reports if isinstance(r, DynamicAisReport)]
        assert any(r.lon is None for r in dyn)
        assert any(r.sog is None for r in dyn)
        assert any(r.cog is None for r in dyn)
        assert any(r.heading is None for r in dyn)
        assert any(r.timestamp_sec is None for r in dyn)
        for r in dyn:
            if r.cog is not None:
                assert 0.0 <= r.cog < 360.0
            if r.timestamp_sec is not None:
                assert 0 <= r.timestamp_sec <= 59

    def test_out_of_range_latitude_maps_to_missing(self):
        bits = enc.encode_class_a(1, 366999784, 70, int(-70.9 * 600000),
                                  95 * 600000, 900, 90, 0)
        report = decode_payload(bits)
        assert report.lat is None
        assert report.lon == pytest.approx(-70.9)


class TestFuzzing:
    def test_stream_decoder_never_crashes(self):
        rng = random.Random(0xA15)
        lines = []
        printable = "".join(chr(c) for c in range(32, 127))
        for i in range(100_000):
            mode = rng.random()
            if mode < 0.3:
                lines.append("".join(rng.choice(printable)
                                     for _ in range(rng.randrange(0, 60))))
            elif mode < 0.6:
                body = "AIVDM," + ",".join(
                    "".join(rng.choice(printable) for _ in range(rng.randrange(0, 10)))
                    for _ in range(rng.randrange(1, 9)))
                lines.append(f"!{body}*{compute_checksum(body):02X}")
            elif mode < 0.9:
                payload = "".join(rng.choice(printable)
                                  for _ in range(rng.randrange(0, 30)))
                body = (f"AIVDM,{rng.randrange(0, 4)},{rng.randrange(0, 4)},"
                        f"{rng.choice(['', '0', '5'])},{rng.choice('AB')},"
                        f"{payload},{rng.randrange(0, 7)}")
                lines.append(f"!{body}*{compute_checksum(body):02X}")
            else:
                lines.append(bytes(rng.randrange(0, 256)
                                   for _ in range(rng.randrange(0, 40))
                                   ).decode("latin-1"))
        counters = StreamCounters()
        for _ in decode_lines(lines, counters):
            pass
        assert counters.lines <= 100_000
        assert counters.malformed > 0
