import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import make_ais_corpus as enc
from geotrack import ais
from geotrack.ais import (
    DynamicAisReport,
    FragmentAssembler,
    ConflictingFragments,
    MalformedSentence,
    StaticAisReport,
    StreamCounters,
    UnsupportedMessageType,
    compute_checksum,
    dearmor,
    decode_lines,
    decode_payload,
    parse_sentence,
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
        reports = [r for _, r in decode_lines(corpus_lines(), counters)]
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
        statics = [r for _, r in decode_lines(corpus_lines())
                   if isinstance(r, StaticAisReport)]
        by_mmsi = {r.mmsi: r for r in statics}
        glovis = by_mmsi[440292000]
        assert glovis.name == "GLOVIS CHORUS"
        assert glovis.imo == 9674907
        assert glovis.draught == pytest.approx(9.8)

    def test_sog_worked_example(self):
        # raw 100 tenths-of-knots -> 5.1444 m/s
        _, first = next(decode_lines(corpus_lines()))
        assert first.sog == pytest.approx(5.1444, rel=1e-12)


class TestArmoring:
    def test_dearmor_examples(self):
        assert dearmor("w") == (63, 6)
        assert dearmor("0") == (0, 6)
        assert dearmor("?") == (15, 6)

    def test_round_trip_all_corpus_payloads(self):
        for line in corpus_lines():
            try:
                s = parse_sentence(line)
            except MalformedSentence:
                continue
            value, nbits = dearmor(s.payload, 0)
            back, fill = enc.armor_bits(format(value, f"0{nbits}b"))
            assert back == s.payload
            assert fill == 0

    def test_fill_bits_trim(self):
        bits = "101010101"  # 9 bits -> 2 chars + 3 fill
        payload, fill = enc.armor_bits(bits)
        assert fill == 3
        assert dearmor(payload, fill) == (int(bits, 2), len(bits))

    def test_invalid_character(self):
        with pytest.raises(ais.InvalidCharacter):
            dearmor("\x7f")


class TestSentenceParsing:
    def test_checksum_flip_detected(self):
        good = next(ln for ln in corpus_lines() if ln.startswith("!AIVDM"))
        body, _, tail = good[1:].partition("*")
        flipped = f"!{body}*{(int(tail[:2], 16) ^ 0x01):02X}"
        parse_sentence(good)
        with pytest.raises(MalformedSentence, match="checksum mismatch"):
            parse_sentence(flipped)

    def test_compute_checksum(self):
        body = "AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0"
        line = f"!{body}*{compute_checksum(body):02X}"
        assert parse_sentence(line).payload == "13u?etPv2;0n:dDPwUM1U1Cb069D"

    def test_malformed_field_count(self):
        with pytest.raises(MalformedSentence):
            parse_sentence("!AIVDM,1,1,,A*27")

    def test_unsupported_type_counted(self):
        counters = StreamCounters()
        base4 = format(4, "06b") + "0" * 162
        payload, fill = enc.armor_bits(base4)
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

    @staticmethod
    def assemble(sentences):
        """What one FragmentAssembler returns for each sentence, in order."""
        asm = FragmentAssembler()
        return [asm.add(s) for s in sentences]

    def test_order_independence(self):
        s1, s2 = self._static_pair()
        in_order, reversed_ = self.assemble([s1, s2]), self.assemble([s2, s1])
        assert in_order[0] is None and reversed_[0] is None
        assert in_order[1] == reversed_[1]
        assert isinstance(decode_payload(reversed_[1]), StaticAisReport)

    def test_incomplete_set_yields_nothing(self):
        s1, _ = self._static_pair()
        assert self.assemble([s1]) == [None]

    @staticmethod
    def type5_fragments(mmsi, name, draught_raw, seq=3):
        bits = enc.encode_type5(mmsi, 9000001, "CALL", name, 70, 100, 20, 5, 5, 1,
                                draught_raw, "BOSTON")
        payload, fill = enc.armor_bits(bits)
        # the split puts the draught (bits 294-301) in the second fragment
        return [enc.sentence(2, 1, seq, "A", payload[:40], 0),
                enc.sentence(2, 2, seq, "A", payload[40:], fill)]

    def test_partial_expires_after_window(self):
        first, second = self.type5_fragments(211000001, "ALPHA", 11)
        payload, fill = enc.armor_bits(enc.encode_class_a(
            1, 366999784, 70, int(-70.9 * 600000), int(42.3 * 600000), 900, 90, 0))
        single = enc.sentence(1, 1, None, "B", payload, fill)

        def statics(gap):
            lines = [first] + [single] * gap + [second]
            return [r for _, r in decode_lines(lines)
                    if isinstance(r, StaticAisReport)]

        assert [r.mmsi for r in statics(ais.FRAGMENT_WINDOW)] == [211000001]
        assert statics(ais.FRAGMENT_WINDOW + 1) == []

    def test_lost_fragment_does_not_corrupt_sequence_id_reuse(self):
        # message A loses its second fragment; B and C reuse A's sequence id
        a = self.type5_fragments(211000001, "ALPHA", 11)
        b = self.type5_fragments(211000002, "BRAVO", 22)
        c = self.type5_fragments(211000003, "CHARLIE", 33)
        counters = StreamCounters()
        reports = [r for _, r in decode_lines(a[:1] + b + c, counters)]
        assert [(r.mmsi, r.name, r.draught) for r in reports] == [
            (211000002, "BRAVO", 2.2), (211000003, "CHARLIE", 3.3)]
        assert counters.malformed == 1

    def test_conflicting_fragment_count(self):
        s1, _ = self._static_pair()
        conflict = ais.NmeaSentence(3, 1, s1.sequence_id, s1.channel,
                                    s1.payload, s1.fill_bits)
        asm = FragmentAssembler()
        asm.add(s1)
        with pytest.raises(ConflictingFragments):
            asm.add(conflict)


class TestScaleOptions:
    def test_sentinels_map_to_missing(self):
        reports = [r for _, r in decode_lines(corpus_lines())]
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
        report = decode_payload((int(bits, 2), len(bits)))
        assert report.lat is None
        assert report.lon == pytest.approx(-70.9)


def decode_bits(bits):
    """Decode one single-sentence message of raw bits; (reports, counters)."""
    payload, fill = enc.armor_bits(bits)
    counters = StreamCounters()
    line = enc.sentence(1, 1, None, "A", payload, fill)
    return [r for _, r in decode_lines([line], counters)], counters


class TestArmourAlphabet:
    PAYLOAD, FILL = enc.armor_bits(enc.encode_class_a(
        1, 366999784, 70, int(-70.9 * 600000), int(42.3 * 600000), 900, 90, 0))

    @pytest.mark.parametrize("char", "XYZ[\\]^_")
    def test_characters_between_the_two_ranges_are_malformed(self, char):
        # 'X'-'_' (88-95) lie between the two armour ranges '0'-'W' and '`'-'w'
        bad = self.PAYLOAD[:10] + char + self.PAYLOAD[11:]
        for text, decoded in ((self.PAYLOAD, 1), (bad, 0)):
            counters = StreamCounters()
            line = enc.sentence(1, 1, None, "A", text, self.FILL)
            assert len(list(decode_lines([line], counters))) == decoded
            assert counters.malformed == 1 - decoded

    def test_non_ascii_sentence_is_malformed(self):
        lines = [enc.sentence(1, 1, None, channel, self.PAYLOAD, self.FILL)
                 for channel in ("\u00e9", "\udcff")]
        counters = StreamCounters()
        assert list(decode_lines(lines, counters)) == []
        assert counters.malformed == 2


def checksummed(body, declared=None):
    """``!body*XX``; ``declared`` replaces the two checksum digits."""
    return f"!{body}*{compute_checksum(body):02X}" if declared is None else f"!{body}*{declared}"


class TestAsciiDigits:
    """Every number in a line is written in ASCII digits: anything else that
    Python's int() or float() would read makes the line malformed."""

    PAYLOAD, FILL = TestArmourAlphabet.PAYLOAD, TestArmourAlphabet.FILL
    # channel '0' and sequence id 9 give this body the checksum 0x0C
    LOW_SUM = f"AIVDM,1,1,9,0,{PAYLOAD},{FILL}"

    def test_low_checksum_body(self):
        assert compute_checksum(self.LOW_SUM) == 0x0C
        for declared in ("0C", "0c"):
            assert len(list(decode_lines([checksummed(self.LOW_SUM, declared)]))) == 1

    @pytest.mark.parametrize("line", [
        checksummed(f"AIVDM,+1,1,,A,{PAYLOAD},{FILL}"),    # signed fragment count
        checksummed(f"AIVDM, 1,1,,A,{PAYLOAD},{FILL}"),    # padded fragment count
        checksummed(f"AIVDM,1,+1,,A,{PAYLOAD},{FILL}"),    # signed fragment index
        checksummed(f"AIVDM,1,1,,A,{PAYLOAD},0_0"),        # digit-group underscore
        checksummed(f"AIVDM,1,1,+1,A,{PAYLOAD},{FILL}"),   # signed sequence id
        checksummed(f"AIVDM,1,1,x,A,{PAYLOAD},{FILL}"),    # non-numeric sequence id
        checksummed(LOW_SUM, "+C"),                        # signed checksum
        checksummed(LOW_SUM, " C"),                        # padded checksum
        "1_0," + checksummed(f"AIVDM,1,1,,A,{PAYLOAD},{FILL}"),           # reads as 10.0
        "\u0661\u0662," + checksummed(f"AIVDM,1,1,,A,{PAYLOAD},{FILL}"),  # Arabic-Indic 12
    ])
    def test_other_number_forms_are_malformed(self, line):
        counters = StreamCounters()
        assert list(decode_lines([line], counters)) == []
        assert (counters.lines, counters.malformed) == (1, 1)


class TestReportValues:
    """Reports are values: they compare by class and fields."""

    FIELDS = dict(mmsi=366999784, msg_type=1, lon=-70.9, lat=42.3, sog=4.6,
                  cog=9.0, heading=None, timestamp_sec=0)

    def test_equal_fields_compare_equal(self):
        assert DynamicAisReport(**self.FIELDS) == DynamicAisReport(**self.FIELDS)
        assert DynamicAisReport(**self.FIELDS) != DynamicAisReport(
            **{**self.FIELDS, "sog": 4.7})

    def test_class_is_part_of_the_value(self):
        report = DynamicAisReport(**self.FIELDS)
        assert report != tuple(self.FIELDS.values())
        static = StaticAisReport(366999784, 1, "", 70, 0, 0, 0, 0, 0.0)
        assert report != static and static != report
        assert report != ais.NmeaSentence(1, 1, None, "A", "", 0)


class TestSidecarTime:
    LINE = enc.sentence(1, 1, None, "A", TestArmourAlphabet.PAYLOAD,
                        TestArmourAlphabet.FILL)

    def test_time_is_framing(self):
        counters = StreamCounters()
        out = list(decode_lines([self.LINE, f"12.5,{self.LINE}", f" 3 ,{self.LINE}\n",
                                 f"1e3,{self.LINE}", f"-5, {self.LINE}"], counters))
        assert [t for t, _ in out] == [None, 12.5, 3.0, 1000.0, -5.0]
        assert all(report == out[0][1] for _, report in out)
        assert counters.lines == counters.decoded == 5

    def test_reports_stream_as_lines_arrive(self):
        pulled = []

        def feed():
            for t in range(3):
                pulled.append(t)
                yield f"{t},{self.LINE}\n"

        t, report = next(decode_lines(feed()))
        assert (t, report.mmsi) == (0.0, 366999784)
        assert pulled == [0]


def unsigned(width, *edges):
    """Any value of a ``width``-bit unsigned field, its ``edges`` drawn often."""
    return st.one_of(st.sampled_from(edges + (0, (1 << width) - 1)),
                     st.integers(0, (1 << width) - 1))


def signed(width, *edges):
    top = 1 << (width - 1)
    return st.one_of(st.sampled_from(edges + tuple(-e for e in edges) + (-top, top - 1)),
                     st.integers(-top, top - 1))


LON_LIMIT, LAT_LIMIT = 180 * 600000, 90 * 600000

# (msg_type, mmsi, sog, lon, lat, cog, heading, time stamp) as raw integers
DYNAMIC_FIELDS = st.tuples(
    st.sampled_from([1, 2, 3, 18]), unsigned(30),
    unsigned(10, 1022, 1023),
    signed(28, LON_LIMIT, LON_LIMIT + 1, 181 * 600000),
    signed(27, LAT_LIMIT, LAT_LIMIT + 1, 91 * 600000),
    unsigned(12, 3599, 3600), unsigned(9, 359, 510, 511), unsigned(6, 59, 60))


def sixbit_text(chars):
    return st.text(alphabet=enc.SIXBIT, max_size=chars)


# the arguments of make_ais_corpus.encode_type5
STATIC_FIELDS = st.tuples(
    unsigned(30), unsigned(30), sixbit_text(7), sixbit_text(20), unsigned(8),
    unsigned(9), unsigned(9), unsigned(6), unsigned(6), unsigned(4), unsigned(8),
    sixbit_text(20))


def encode_dynamic(msg_type, mmsi, *fields):
    if msg_type == 18:
        return enc.encode_class_b(mmsi, *fields)
    return enc.encode_class_a(msg_type, mmsi, *fields)


# (bits, the last bit the decoder reads) of any type 1/2/3/18 or 5 message
MESSAGES = st.one_of(
    DYNAMIC_FIELDS.map(lambda f: (encode_dynamic(*f), 138 if f[0] == 18 else 142)),
    STATIC_FIELDS.map(lambda f: (enc.encode_type5(*f), 301)))


class TestFieldRoundTrip:
    """The decoder against the independent encoder, over whole field widths."""

    @given(DYNAMIC_FIELDS)
    def test_position_report(self, fields):
        msg_type, mmsi, sog, lon, lat, cog, heading, ts = fields
        (report,), _ = decode_bits(encode_dynamic(*fields))
        assert isinstance(report, DynamicAisReport)
        assert (report.msg_type, report.mmsi) == (msg_type, mmsi)
        assert fields_match(report.lon, None if abs(lon) > LON_LIMIT else lon / 600000.0)
        assert fields_match(report.lat, None if abs(lat) > LAT_LIMIT else lat / 600000.0)
        assert fields_match(report.sog, None if sog == 1023 else sog * 0.51444 / 10.0)
        assert report.cog == (None if cog >= 3600 else cog / 10.0)
        assert report.heading == (None if heading == 511 else heading)
        assert report.timestamp_sec == (None if ts >= 60 else ts)

    @given(STATIC_FIELDS)
    def test_static_report(self, fields):
        (mmsi, imo, _, name, type_code, bow, stern, port, starboard, _,
         draught, _) = fields
        (report,), _ = decode_bits(enc.encode_type5(*fields))
        assert report == StaticAisReport(
            mmsi, imo, name.rstrip("@").strip(), type_code, bow, stern, port,
            starboard, draught / 10.0)

    @settings(max_examples=25)
    @given(MESSAGES)
    def test_every_prefix_short_of_the_last_bit_is_malformed(self, message):
        bits, last = message
        for stop in range(last + 1):  # bits[:stop] lacks bit ``last``
            reports, counters = decode_bits(bits[:stop])
            assert reports == [] and counters.malformed == 1, stop
        # the shortest payload that holds the last bit decodes in full
        assert decode_bits(bits[:last + 1])[0] == decode_bits(bits)[0]


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
