"""Seeded AIS feeds for the benchmark, with their expected decode and truth.

The sentences are built with the encoder in ``tests/data/make_ais_corpus.py``,
imported as it is: it works from the ITU-R M.1371 bit layout and shares no
code with ``geotrack.ais``, so what it expects is an independent oracle.
Vessel truth is propagated with this module's own spherical formulas.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests" / "data"))
import make_ais_corpus as enc  # noqa: E402

EARTH_RADIUS_M = 6.371e6  # mean radius; the tracker's sphere uses the same
LON_SENTINEL = 181 * 600000
LAT_SENTINEL = 91 * 600000
SOG_SENTINEL = 1023
COG_SENTINEL = 3600
HDG_SENTINEL = 511
MPS_PER_RAW_SOG = 0.51444 / 10.0

# (lon, lat) of the harbours the replay fleet sails from
HARBOURS = [(-71.0, 42.3), (4.05, 51.95), (103.8, 1.2), (-122.35, 37.8),
            (139.8, 35.5)]
NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def destination(lon, lat, bearing_deg, dist_m):
    """Great-circle direct problem on the mean-radius sphere, in degrees."""
    phi, lam = math.radians(lat), math.radians(lon)
    theta, delta = math.radians(bearing_deg), dist_m / EARTH_RADIUS_M
    sin_phi2 = (math.sin(phi) * math.cos(delta)
                + math.cos(phi) * math.sin(delta) * math.cos(theta))
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam + math.atan2(math.sin(theta) * math.sin(delta) * math.cos(phi),
                            math.cos(delta) - math.sin(phi) * sin_phi2)
    return (math.degrees(lam2) + 180.0) % 360.0 - 180.0, math.degrees(phi2)


def initial_bearing(lon1, lat1, lon2, lat2):
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = (math.cos(phi1) * math.sin(phi2)
         - math.sin(phi1) * math.cos(phi2) * math.cos(dlam))
    return math.degrees(math.atan2(y, x)) % 360.0


def haversine_m(lon1, lat1, lon2, lat2):
    """Great-circle distance on the mean-radius sphere; seam-safe in lon."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((phi2 - phi1) / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2)
         * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class Vessel:
    mmsi: int
    msg_type: int
    lon0: float
    lat0: float
    course0: float
    speed: float  # m/s

    def position(self, t: float) -> tuple[float, float]:
        return destination(self.lon0, self.lat0, self.course0, self.speed * t)

    def course(self, t: float) -> float:
        """Course over ground at t: the great circle's forward azimuth there."""
        if self.speed * t < 1e-3:
            return self.course0
        lon, lat = self.position(t)
        return (initial_bearing(lon, lat, self.lon0, self.lat0) + 180.0) % 360.0


def _mmsis(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(200000000, 776000000), n)


def _name(rng: random.Random, lo: int, hi: int) -> str:
    words = ["".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(2, 6)))
             for _ in range(3)]
    return " ".join(words)[:rng.randint(lo, hi)].strip()


def _static(rng: random.Random, mmsi: int) -> tuple[tuple, dict]:
    fields = (mmsi, rng.randrange(1000000, 9999999), _name(rng, 3, 7),
              _name(rng, 4, 20), rng.choice([30, 52, 60, 70, 80, 89]),
              rng.randint(5, 300), rng.randint(5, 100), rng.randint(1, 30),
              rng.randint(1, 30), rng.randint(1, 3), rng.randint(10, 200),
              _name(rng, 0, 20))
    expected = {"kind": "static", "msg_type": 5, "mmsi": mmsi, "imo": fields[1],
                "name": fields[3], "type_code": fields[4], "dim_to_bow": fields[5],
                "dim_to_stern": fields[6], "dim_to_port": fields[7],
                "dim_to_starboard": fields[8], "draught": fields[10] / 10.0}
    return fields, expected


def _type5_lines(rng: random.Random, fields: tuple, seq: int) -> list[str]:
    """A type 5 message as two fragments, delivered out of order half the time."""
    payload, fill = enc.armor_bits(enc.encode_type5(*fields))
    channel = rng.choice("AB")
    first = enc.sentence(2, 1, seq % 10, channel, payload[:60], 0)
    second = enc.sentence(2, 2, seq % 10, channel, payload[60:], fill)
    return [second, first] if rng.random() < 0.5 else [first, second]


def _dynamic_line(rng: random.Random, msg_type, mmsi, sog_raw, lon_raw, lat_raw,
                  cog_raw, hdg_raw, ts_raw) -> str:
    if msg_type == 18:
        bits = enc.encode_class_b(mmsi, sog_raw, lon_raw, lat_raw, cog_raw,
                                  hdg_raw, ts_raw)
    else:
        bits = enc.encode_class_a(msg_type, mmsi, sog_raw, lon_raw, lat_raw,
                                  cog_raw, hdg_raw, ts_raw)
    payload, fill = enc.armor_bits(bits)
    return enc.sentence(1, 1, None, rng.choice("AB"), payload, fill)


def _garbage(rng: random.Random, valid_line: str) -> str:
    """One line the decoder must count as malformed."""
    kind = rng.randrange(4)
    if kind == 0:  # wrong checksum on an otherwise valid sentence
        body, _, digits = valid_line.partition("*")
        return f"{body}*{(int(digits, 16) + rng.randint(1, 255)) % 256:02X}"
    if kind == 1:
        return "garbage " + "".join(rng.choice(NAME_CHARS) for _ in range(20))
    if kind == 2:
        return "!AIVDM,1,1,,A*00"  # too few fields
    # an armour character outside the 6-bit alphabet, under a valid checksum
    return enc.sentence(1, 1, None, "A", "15Mq4J0Px" + "0" * 19, 0)


def _unsupported_line(rng: random.Random) -> str:
    """A valid type 4 (base station) sentence, which the decoder does not handle."""
    payload, fill = enc.armor_bits(enc.u(4, 6) + enc.u(0, 2)
                                   + enc.u(rng.randrange(2000000, 9999999), 30)
                                   + enc.u(0, 130))
    return enc.sentence(1, 1, None, "A", payload, fill)


@dataclass
class HarborFeed:
    lines: list[str]          # "t,sentence" rows, time-ordered
    vessels: dict[int, Vessel]
    stats: dict


def harbor_feed(seed: int, n_vessels: int, duration_s: float) -> HarborFeed:
    """A time-stamped harbour replay.

    Class A vessels report every 10 s and Class B every 30 s, each from a
    random phase. A few vessels cross the 180th meridian during the replay,
    a few send a positionless first report, about 5 % of later reports lack
    SOG or COG, a third of the Class A fleet sends a two-fragment type 5,
    and about 1 % of lines are garbage.
    """
    rng = random.Random(seed)
    vessels: dict[int, Vessel] = {}
    mmsis = _mmsis(rng, n_vessels)
    n_cross = max(2, n_vessels // 25)
    n_positionless = max(1, n_vessels // 60)
    for i, mmsi in enumerate(mmsis):
        msg_type = 18 if rng.random() < 0.3 else rng.choice((1, 2, 3))
        speed = rng.uniform(2.0, 12.0)
        if i < n_cross:  # cross the dateline between 25 % and 75 % of the replay
            lat0 = rng.uniform(-18.0, -16.0)
            east = i % 2 == 0
            course0 = rng.uniform(80.0, 100.0) if east else rng.uniform(260.0, 280.0)
            dlon = math.degrees(speed * rng.uniform(0.25, 0.75) * duration_s
                                * abs(math.sin(math.radians(course0)))
                                / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
            lon0 = 180.0 - dlon if east else -180.0 + dlon
        else:
            hlon, hlat = rng.choice(HARBOURS)
            lon0, lat0 = hlon + rng.uniform(-0.3, 0.3), hlat + rng.uniform(-0.2, 0.2)
            course0 = rng.uniform(0.0, 360.0)
        vessels[mmsi] = Vessel(mmsi, msg_type, lon0, lat0, course0, speed)

    events: list[tuple[float, int, str]] = []  # (t, order, sentence)
    stats = dict(reports=0, masked_sog_or_cog=0, positionless=0, type5=0,
                 fragments=0, garbage=0)
    seq = 0
    for i, v in enumerate(vessels.values()):
        interval = 30.0 if v.msg_type == 18 else 10.0
        t = round(rng.uniform(0.0, interval), 3)
        k = 0
        while t < duration_s:
            lon, lat = v.position(t)
            cog = v.course(t)
            lon_raw, lat_raw = round(lon * 600000), round(lat * 600000)
            if lon_raw >= 180 * 600000:
                lon_raw -= 360 * 600000
            sog_raw = min(1022, round(v.speed / MPS_PER_RAW_SOG))
            cog_raw = round(cog * 10.0) % 3600
            hdg_raw = round(cog) % 360
            if k == 0 and i >= n_vessels - n_positionless:
                lon_raw, lat_raw = LON_SENTINEL, LAT_SENTINEL
                stats["positionless"] += 1
            elif k >= 2 and rng.random() < 0.05:
                if rng.random() < 0.5:
                    sog_raw = SOG_SENTINEL
                else:
                    cog_raw = rng.randint(COG_SENTINEL, 4095)
                    hdg_raw = HDG_SENTINEL
                stats["masked_sog_or_cog"] += 1
            line = _dynamic_line(rng, v.msg_type, v.mmsi, sog_raw, lon_raw, lat_raw,
                                 cog_raw, hdg_raw, int(t) % 60)
            events.append((t, len(events), line))
            stats["reports"] += 1
            if rng.random() < 0.01:
                events.append((t, len(events), _garbage(rng, line)))
                stats["garbage"] += 1
            t = round(t + interval, 3)
            k += 1
        if v.msg_type != 18 and rng.random() < 1.0 / 3.0:
            fields, _ = _static(rng, v.mmsi)
            t5 = round(rng.uniform(0.0, duration_s), 3)
            for frag in _type5_lines(rng, fields, seq):
                events.append((t5, len(events), frag))
            seq += 1
            stats["type5"] += 1
            stats["fragments"] += 2
    events.sort()
    stats["lines"] = len(events)
    return HarborFeed([f"{t:.3f},{s}" for t, _, s in events], vessels, stats)


@dataclass
class DecodeFeed:
    lines: list[str]
    expected: list[dict]           # one per decoded report, in output order
    lines_per_report: list[int]
    n_malformed: int
    n_unsupported: int
    stats: dict


def decode_feed(seed: int, n_lines: int) -> DecodeFeed:
    """A plain NMEA feed of Class A and B reports with sentinel fields,
    two-fragment type 5 messages (half out of order), unsupported type 4
    sentences and malformed lines."""
    rng = random.Random(seed)
    fleet = [(mmsi, 18 if rng.random() < 0.3 else rng.choice((1, 2, 3)))
             for mmsi in _mmsis(rng, 500)]
    lines: list[str] = []
    expected: list[dict] = []
    lines_per_report: list[int] = []
    n_malformed = n_unsupported = seq = 0
    stats = dict(sentinel_fields=0, type5=0)
    last_valid = None
    while len(lines) < n_lines:
        r = rng.random()
        if r < 0.015 and last_valid is not None:
            lines.append(_garbage(rng, last_valid))
            n_malformed += 1
            continue
        if r < 0.02:
            lines.append(_unsupported_line(rng))
            n_unsupported += 1
            continue
        mmsi, msg_type = rng.choice(fleet)
        if r < 0.05 and msg_type != 18:
            fields, exp = _static(rng, mmsi)
            lines.extend(_type5_lines(rng, fields, seq))
            seq += 1
            expected.append(exp)
            lines_per_report.append(2)
            stats["type5"] += 1
            continue
        raw = (
            LON_SENTINEL if rng.random() < 0.03
            else rng.randint(-180 * 600000, 180 * 600000 - 1),
            LAT_SENTINEL if rng.random() < 0.03
            else rng.randint(-90 * 600000, 90 * 600000),
            SOG_SENTINEL if rng.random() < 0.05 else rng.randint(0, 1022),
            rng.randint(COG_SENTINEL, 4095) if rng.random() < 0.05
            else rng.randint(0, 3599),
            HDG_SENTINEL if rng.random() < 0.1 else rng.randint(0, 359),
            rng.randint(60, 63) if rng.random() < 0.05 else rng.randint(0, 59),
        )
        lon_raw, lat_raw, sog_raw, cog_raw, hdg_raw, ts_raw = raw
        line = _dynamic_line(rng, msg_type, mmsi, sog_raw, lon_raw, lat_raw,
                             cog_raw, hdg_raw, ts_raw)
        lines.append(line)
        last_valid = line
        exp = enc.expected_dynamic(msg_type, mmsi, sog_raw, lon_raw, lat_raw,
                                   cog_raw, hdg_raw, ts_raw)
        stats["sentinel_fields"] += sum(exp[k] is None for k in
                                        ("lon", "lat", "sog", "cog", "heading",
                                         "timestamp_sec"))
        expected.append(exp)
        lines_per_report.append(1)
    stats["lines"] = len(lines)
    return DecodeFeed(lines, expected, lines_per_report, n_malformed,
                      n_unsupported, stats)
