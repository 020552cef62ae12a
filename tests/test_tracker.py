import dataclasses
import math
import os
import random
import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import make_ais_corpus as enc
from geotrack import ukf
from geotrack.ais import MAX_SIDECAR_TIME_S, DynamicAisReport, StreamCounters, decode_lines
from geotrack.tracker import (DEFAULT_STALE_TIMEOUT_S, OUT_OF_ORDER_TOLERANCE_S, TrackTable,
                              replay)
from geotrack.ukf import GeodeticUkf, Measurement
from conftest import DATA_DIR

CORPUS = os.path.join(DATA_DIR, "ais_corpus.nmea")


def report(mmsi, lon, lat, sog=7.0, cog=90.0, msg_type=1):
    return DynamicAisReport(mmsi=mmsi, msg_type=msg_type, lon=lon, lat=lat,
                            sog=sog, cog=cog, heading=None, timestamp_sec=None)


def measurement(r):
    """The masked measurement a table fuses for report ``r``."""
    return Measurement.from_fields(lon=r.lon, lat=r.lat, sog=r.sog, cog=r.cog)


class Track(NamedTuple):
    mean: np.ndarray  # lon, lat, sog, cog
    cov: np.ndarray
    time: float       # belief time
    last_seen: float  # latest accepted report time


def track(table, mmsi):
    """A copy of track ``mmsi`` read from the table's arrays."""
    row = table.rows[mmsi]
    return Track(table.filt.mean[row].copy(), table.filt.cov[row].copy(),
                 float(table.filt.time[row]), float(table.last_seen[row]))


def walk(mmsi, lon0, lat0, n, dt=10.0, dlat=1e-4):
    """A simple northbound report schedule for one vessel."""
    return [(k * dt, report(mmsi, lon0, lat0 + k * dlat, sog=1.1, cog=0.0))
            for k in range(n)]


class TestLifecycle:
    def test_first_report_creates_track(self):
        table = TrackTable()
        assert table.ingest(report(111000111, -71.0, 42.3), 0.0) == "created"
        table.fuse()
        assert list(table.rows) == [111000111]
        lon, lat, _, _ = track(table, 111000111).mean
        assert lon == pytest.approx(-71.0)
        assert lat == pytest.approx(42.3)

    def test_positionless_first_report_skipped(self):
        # a position is used only when lon and lat are finite
        for lon, lat in [(None, None), (math.nan, 42.3), (-71.0, math.nan),
                         (math.inf, 42.3), (-math.inf, 42.3), (-71.0, math.inf),
                         (-71.0, -math.inf)]:
            table = TrackTable()
            r = report(222000222, lon, lat, sog=3.0, cog=10.0)
            assert table.ingest(r, 0.0) == "skipped"
            table.fuse()
            assert table.rows == {} and not table.live.any()
            assert table.skipped_reports == 1

    def test_subsequent_report_updates(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        assert table.ingest(report(1, -71.0, 42.3005), 6.0) == "updated"
        table.fuse()
        assert track(table, 1).last_seen == 6.0

    def test_stale_track_retired(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        table.ingest(report(2, -70.9, 42.4001), 170.0)
        out = table.tick(0.1 + DEFAULT_STALE_TIMEOUT_S)
        assert table.mmsi[out].tolist() == [2]
        assert 1 not in table.rows

    def test_timed_out_tracks_are_counted(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 100.0)
        table.tick(DEFAULT_STALE_TIMEOUT_S)  # track 1 silent for exactly the timeout
        assert table.timed_out == 0
        table.tick(DEFAULT_STALE_TIMEOUT_S + 60.0)
        assert table.timed_out == 1
        assert table.ingest(report(1, -71.0, 42.3), 300.0) == "created"
        table.tick(600.0)
        assert table.timed_out == 3
        assert table.retired == 0 and table.rows == {}

    def test_late_report_does_not_shorten_the_track(self):
        # last_seen is the latest report time, so a report inside the
        # out-of-order tolerance cannot move the timeout earlier
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 100.0)
        assert table.ingest(report(1, -71.0, 42.3001), 99.5) == "updated"
        assert track(table, 1).last_seen == 100.0
        assert table.mmsi[table.tick(100.0 + DEFAULT_STALE_TIMEOUT_S)].tolist() == [1]
        assert table.timed_out == 0

    def test_out_of_order_report_dropped(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 100.0)
        table.ingest(report(1, -71.0, 42.301), 110.0)
        assert table.ingest(report(1, -71.0, 42.3005), 105.0) == "dropped_stale"
        assert table.stale_drops == 1
        # a time that is not finite is no report time, for a known or a new vessel
        for mmsi in (1, 2):
            for t in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    table.ingest(report(mmsi, -71.0, 42.3), t)
        assert list(table.rows) == [1] and table.stale_drops == 1
        assert track(table, 1).last_seen == 110.0

    def test_slightly_late_report_accepted(self):
        # reports inside the tolerance window fuse without rewinding time
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 100.0)
        table.ingest(report(1, -71.0, 42.301), 110.0)
        assert table.ingest(report(1, -71.0, 42.3011), 109.5) == "updated"


class TestIsolationOracle:
    def test_interleaved_equals_isolated(self):
        """Fusing two interleaved vessels must reproduce, track for track,
        the result of replaying each vessel's reports alone."""
        a = walk(101, -71.00, 42.30, 12, dt=7.0)
        b = walk(202, -70.85, 42.45, 12, dt=9.0)
        merged = sorted(a + b, key=lambda item: item[0])

        joint = TrackTable()
        for t, r in merged:
            joint.ingest(r, t)

        for reports in (a, b):
            solo = TrackTable()
            for t, r in reports:
                solo.ingest(r, t)
            mmsi = reports[0][1].mmsi
            # advance both copies to a common time before comparing
            t_end = max(reports[-1][0], merged[-1][0])
            joint.tick(t_end)
            solo.tick(t_end)
            joint_track, solo_track = track(joint, mmsi), track(solo, mmsi)
            assert np.allclose(joint_track.mean, solo_track.mean, atol=1e-12)
            assert np.allclose(joint_track.cov, solo_track.cov, atol=1e-12)

    def test_deterministic_replay(self):
        stream = sorted(walk(1, -71.0, 42.3, 8) + walk(2, -70.9, 42.2, 8),
                        key=lambda item: item[0])

        def run():
            table = TrackTable()
            for t, r in stream:
                table.ingest(r, t)
            rows = table.tick(stream[-1][0])
            return table.mmsi[rows], table.filt.mean[rows], table.filt.cov[rows]

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)


class TestPrediction:
    def test_tick_grows_uncertainty(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.fuse()
        tr0 = np.trace(track(table, 1).cov)
        table.tick(30.0)
        assert np.trace(track(table, 1).cov) > tr0

    def test_fixed_rate_stepping(self):
        # a 10.5 s gap at 1 Hz is 10 full steps plus one partial step,
        # landing the belief exactly on the tick time
        table = TrackTable(filter_rate_hz=1.0)
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.tick(10.5)
        assert track(table, 1).time == pytest.approx(10.5, abs=1e-9)

    @pytest.mark.parametrize("rate", [3, 7])
    def test_every_tick_lands_on_its_time(self, rate):
        # tracks born and updated off the tick grid reach each tick k / rate
        # exactly, not at a sum of float steps near it
        table = TrackTable(filter_rate_hz=rate)
        for k in range(1, 40 * rate):
            for mmsi, offset in ((1, 0.05), (2, 0.41), (3, 0.83)):
                t = (k - 1 + offset) / rate
                if k % (5 * mmsi) == 1:
                    table.ingest(report(mmsi, -71.0 + mmsi / 10, 42.3 + k * 1e-5), t)
            rows = table.tick(k / rate)
            assert len(rows) == 3
            assert (table.filt.time[rows] == k / rate).all()

    def test_speed_only_report_leaves_course(self):
        # a report carrying only SOG (zero residual) must not move the course
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3, sog=5.0, cog=77.0), 0.0)
        partial = DynamicAisReport(mmsi=1, msg_type=1, lon=None, lat=None,
                                   sog=5.0, cog=None, heading=None,
                                   timestamp_sec=None)
        table.ingest(partial, 6.0)
        table.fuse()
        _, _, sog, cog = track(table, 1).mean
        assert cog == pytest.approx(77.0, abs=0.5)
        assert sog == pytest.approx(5.0, abs=0.1)


class TestMeasurementMapping:
    def test_mask_follows_missing_fields(self):
        # a Class B report without SOG and COG, then a polar one whose
        # position is dropped: each fuses only the fields it carries, and a
        # field that is not finite is missing
        solo = GeodeticUkf.from_first_measurement(
            Measurement(np.array([-71.0, 42.3, 0.0, 0.0]), [True, True, False, False]),
            timestamp=0.0)
        solo.predict(1.0)
        solo.update(Measurement(np.array([0.0, 0.0, 4.0, 0.0]),
                                [False, False, True, False]))
        for missing in (None, math.nan, math.inf, -math.inf):
            first = DynamicAisReport(mmsi=1, msg_type=18, lon=-71.0, lat=42.3, sog=missing,
                                     cog=missing, heading=220, timestamp_sec=5)
            polar = DynamicAisReport(mmsi=1, msg_type=18, lon=-71.0, lat=90.0, sog=4.0,
                                     cog=missing, heading=None, timestamp_sec=None)
            table = TrackTable()
            table.ingest(first, 0.0)
            table.ingest(polar, 1.0)
            table.tick(1.0)
            assert_same_belief(table, 1, solo)

    def test_ingest_leaves_the_report_unchanged(self):
        table = TrackTable()
        for t, r in [(0.0, report(1, -71.0, 42.3)), (5.0, report(1, -71.0, 42.3005)),
                     (6.0, report(2, None, None)), (7.0, report(1, 10.0, 90.0))]:
            before = dataclasses.replace(r)
            table.ingest(r, t)
            table.tick(t)
            assert r == before

    def test_invalid_rate_rejected(self):
        # only constructed: an inf-rate table would never finish a tick
        for kwargs in [{"filter_rate_hz": 0.0}, {"filter_rate_hz": -1.0},
                       {"filter_rate_hz": math.inf}, {"filter_rate_hz": math.nan},
                       {"stale_timeout": 0.0}, {"stale_timeout": math.inf},
                       {"stale_timeout": math.nan}]:
            with pytest.raises(ValueError):
                TrackTable(**kwargs)


class TestStackedTick:
    def test_staggered_tracks_match_per_track_stepping(self, monkeypatch):
        """Tracks at different belief times share each stacked step and
        land exactly where stepping each filter alone would take them."""
        births = {1: (0.0, -71.0, 42.3), 2: (0.4, 179.9999, 10.0), 3: (2.7, -70.5, -33.0)}
        table = TrackTable()
        for mmsi, (t0, lon, lat) in births.items():
            table.ingest(report(mmsi, lon, lat, sog=6.0, cog=300.0), t0)

        calls = []
        stacked = ukf.predict_arrays
        monkeypatch.setattr(ukf, "predict_arrays",
                            lambda mean, *a: calls.append(len(mean)) or stacked(mean, *a))
        table.tick(5.5)
        # six steps from 0 and from 0.4, three from 2.7: one call per step
        # index, each over every track still short of 5.5
        assert calls == [3, 3, 3, 2, 2, 2]

        for mmsi, (t0, lon, lat) in births.items():
            r = report(mmsi, lon, lat, sog=6.0, cog=300.0)
            solo = GeodeticUkf.from_first_measurement(measurement(r),
                                                      timestamp=t0)
            t = t0
            while 5.5 - t > 1e-9:
                dt = min(1.0, 5.5 - t)
                solo.predict(dt)
                t += dt
            assert_same_belief(table, mmsi, solo)


class TestFailureIsolation:
    def test_nan_covariance_is_retired_by_tick(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        table.filt.cov[table.rows[2]] = np.nan
        out = table.tick(3.0)
        assert table.mmsi[out].tolist() == [1]
        assert table.retired == 1
        assert np.all(np.isfinite(table.filt.cov[out]))

    def test_poisoned_track_is_retired_at_the_next_tick(self):
        """A report to a poisoned track is queued like any other; the next
        tick retires the track before any filter step, counts it once, and
        leaves the other tracks and the row's next owner untouched."""
        table, alone = TrackTable(), TrackTable()  # alone never sees vessel 2
        for tab in (table, alone):
            tab.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        row = table.rows[2]
        table.filt.cov[row] = np.nan
        assert table.ingest(report(2, -70.9, 42.401), 5.0) == "updated"
        for t in (5.0, 5.5):
            for tab in (table, alone):
                assert tab.ingest(report(1, -71.0, 42.3 + 1e-4 * t), t) == "updated"
        assert table.retired == 0
        for t in (6.0, 7.0):
            out = table.tick(t)
            alone.tick(t)
            assert table.mmsi[out].tolist() == [1]
            assert table.retired == 1
        assert 2 not in table.rows

        assert table.ingest(report(3, -70.8, 42.5), 7.5) == "created"
        assert table.rows[3] == row  # the freed row is reused
        newborn = TrackTable()
        newborn.ingest(report(3, -70.8, 42.5), 7.5)
        out = table.tick(9.0)
        alone.tick(9.0)
        newborn.tick(9.0)
        assert table.mmsi[out].tolist() == [1, 3]
        assert table.retired == 1
        for mmsi, solo in [(1, alone), (3, newborn)]:
            for a, b in zip(track(table, mmsi), track(solo, mmsi)):
                assert np.array_equal(a, b)


def solo_filter(t0, r):
    return GeodeticUkf.from_first_measurement(measurement(r), timestamp=t0)


def assert_same_belief(table, mmsi, filt):
    """Track ``mmsi`` of a table equals a solo filter's belief, bit for bit."""
    row = table.rows[mmsi]
    assert table.filt.time[row] == filt.time
    assert np.array_equal(table.filt.mean[row], filt.mean)
    assert np.array_equal(table.filt.cov[row], filt.cov)


class TestQueuedFusion:
    """Reports are queued at ingest and fused at the next tick; the result is
    the sequential chain of one solo filter per vessel."""

    def test_reports_between_two_ticks_match_the_solo_chain(self):
        reports = [(t, report(7, -71.0 + 1e-5 * t, 42.3, sog=1.0 + 0.1 * t, cog=10.0 * t))
                   for t in (0.0, 2.0, 4.0, 6.0)]
        table = TrackTable(filter_rate_hz=0.1)
        assert [table.ingest(r, t) for t, r in reports] == ["created"] + ["updated"] * 3
        table.tick(10.0)

        solo = solo_filter(*reports[0])
        for t, r in reports[1:]:
            solo.predict(2.0)
            solo.update(measurement(r))
        solo.predict(4.0)
        assert_same_belief(table, 7, solo)

    def test_same_time_on_tick_and_late_reports_in_one_interval(self):
        births = {1: (0.0, -71.0, 42.3), 2: (0.25, -70.9, 42.4), 3: (0.5, -70.8, 42.5)}
        table = TrackTable()
        for mmsi, (t0, lon, lat) in births.items():
            table.ingest(report(mmsi, lon, lat), t0)
        table.tick(4.0)
        later = {1: [(4.0, report(1, -71.0, 42.30001))],          # on the tick: dt = 0
                 2: [(4.5, report(2, -70.9, 42.40001, cog=91.0)),  # two at one time
                     (4.5, report(2, -70.9, 42.40002, cog=92.0))],
                 3: [(3.5, report(3, -70.8, 42.50001))]}           # late, within 1 s
        for t, r in sorted((item for items in later.values() for item in items),
                           key=lambda item: item[0]):
            assert table.ingest(r, t) == "updated"
        table.tick(5.0)

        for mmsi, (t0, lon, lat) in births.items():
            solo = solo_filter(t0, report(mmsi, lon, lat))
            t = t0
            for t_report, r in [(4.0, None)] + later[mmsi] + [(5.0, None)]:
                while t_report - t > 1e-9:
                    dt = min(1.0, t_report - t)
                    solo.predict(dt)
                    t += dt
                if r is not None:
                    solo.update(measurement(r))
            assert_same_belief(table, mmsi, solo)

    def test_failed_queued_update_retires_the_track(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        table.tick(1.0)
        assert table.ingest(report(2, -70.9, 42.401), 1.5) == "updated"
        assert table.ingest(report(2, -70.9, 42.4015), 1.8) == "updated"
        table.filt.cov[table.rows[2]] = np.nan  # the queued updates cannot be fused
        assert table.mmsi[table.tick(2.0)].tolist() == [1]
        assert table.retired == 1
        assert 2 not in table.rows
        assert table.ingest(report(2, -70.9, 42.402), 2.5) == "created"
        assert table.mmsi[table.tick(3.0)].tolist() == [1, 2]
        assert table.retired == 1

    def test_stale_drop_is_judged_after_the_queued_reports(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.tick(0.0)
        assert table.ingest(report(1, -71.0, 42.301), 10.0) == "updated"
        # the belief reaches 10 s once the queued report is fused
        assert table.ingest(report(1, -71.0, 42.3005), 8.5) == "dropped_stale"
        assert table.ingest(report(1, -71.0, 42.3008), 9.5) == "updated"
        assert table.stale_drops == 1
        table.fuse()
        assert track(table, 1).last_seen == 10.0
        assert track(table, 1).time == 10.0


def nmea_line(t, mmsi, lat):
    """One type 1 sentence for ``mmsi`` at (-70.9, ``lat``), after sidecar time t."""
    bits = enc.encode_class_a(1, mmsi, 70, int(-70.9 * 600000), int(lat * 600000), 900, 90, 0)
    payload, fill = enc.armor_bits(bits)
    return f"{t},{enc.sentence(1, 1, None, 'A', payload, fill)}\n"


class TestReplay:
    def test_silent_gap_is_jumped(self):
        reports = [(t, report(366999784, -70.9, 42.0)) for t in (0.0, 1e7 + 0.5, 1e7 + 2.0)]
        start = time.perf_counter()
        ticks = [(t, len(rows)) for t, rows in replay(reports, TrackTable())]
        assert time.perf_counter() - start < 2.0
        # the first report's tick 0 (empty), ticks 1..180 until the track goes
        # stale and 181 (empty); the clock then jumps to the tick 1e7 (empty),
        # the report at 1e7 + 0.5 starts a new track, and it is ticked at
        # 1e7 + 1 and 1e7 + 2
        assert [t for t, _ in ticks] == [float(k) for k in range(182)] + [1e7, 1e7 + 1, 1e7 + 2]
        assert [t for t, n in ticks if n] == ([float(k) for k in range(1, 181)]
                                              + [1e7 + 1.0, 1e7 + 2.0])

    @pytest.mark.parametrize("rate", [1.0, 2.5, 0.3])
    def test_rows_land_on_the_rate_grid(self, rate):
        # four vessels reporting in turn after random 0-1.3 s gaps: every live
        # belief reaches each tick time exactly
        rng, t, reports = random.Random(5), 0.0, []
        for i in range(400):
            t += rng.uniform(0.0, 1.3)
            reports.append((t, report(366999780 + i % 4, -70.9 + i % 4 / 10, 42.0 + i * 1e-5)))
        table = TrackTable(filter_rate_hz=rate)
        ticks = 0
        for t_tick, rows in replay(reports, table):
            ticks += len(rows) > 0
            assert (table.filt.time[rows] == t_tick).all()
        assert ticks > 0.9 * t * rate

    def test_rows_carry_their_tick_time(self):
        # reports off the grid of a 7 Hz clock: tick k is at exactly k / 7
        rate = 7
        reports = [(0.13 + 6.1 * j + offset, report(mmsi, -70.9, 42.0))
                   for j in range(8)
                   for offset, mmsi in ((0.0, 366999784), (2.37, 211234560), (4.05, 244660000))]
        times = [t for t, _ in replay(reports, TrackTable(filter_rate_hz=rate))]
        assert len(times) > 40 * rate
        assert times == [k / rate for k in range(len(times))]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     MAX_SIDECAR_TIME_S, -MAX_SIDECAR_TIME_S])
    def test_time_outside_the_sidecar_rule_is_no_time(self, bad):
        # a time the decoder would not take is stamped by the synthetic clock
        reports = [report(366999784, -70.9, 42.0), report(211234560, -70.8, 42.1),
                   report(366999784, -70.9, 42.001)]

        def run(t):
            table = TrackTable()
            return [(t_tick, table.mmsi[rows].tolist(), table.filt.mean[rows].tolist())
                    for t_tick, rows in replay([(t, r) for r in reports], table)]
        assert run(bad) == run(None)

    def test_reports_stream_as_lines_arrive(self):
        pulled = []

        def feed():
            for t in range(3):
                pulled.append(t)
                yield nmea_line(float(t), 366999784, 42.0)

        # the tick before the first report is taken before a second line is read
        t_tick, rows = next(replay(decode_lines(feed(), StreamCounters()), TrackTable()))
        assert (t_tick, len(rows), pulled) == (0.0, 0, [0])

    def test_backward_clock_jump_starts_a_new_epoch(self, monkeypatch):
        """Vessel X far ahead on the clock, then vessel Y at 0 and at g: a track
        born behind the clock must not be predicted across the whole gap g."""
        predict, calls = GeodeticUkf.predict, []

        def counted_predict(filt, dt):
            calls.append(dt)
            if len(calls) > 1000:
                raise AssertionError("the predicts are not bounded by the stale timeout")
            predict(filt, dt)

        monkeypatch.setattr(GeodeticUkf, "predict", counted_predict)
        g, x, y = 1e6, 366999784, 211234560
        reports = [(2 * g + 1000, report(x, -70.9, 42.0)), (0.0, report(y, -70.9, 42.1)),
                   (g, report(y, -70.9, 42.1))]
        table = TrackTable()
        ticks = [(t, table.mmsi[rows].tolist()) for t, rows in replay(reports, table)]
        # X is timed out by the jump to 0, where the clock restarts; Y is
        # ticked until it goes stale, and the clock then jumps to g
        assert ticks == ([(2 * g + 1000, []), (0.0, [])]
                         + [(float(k), [y]) for k in range(1, 181)] + [(181.0, []), (g, [])])
        assert (table.clock_resets, table.timed_out, list(table.rows)) == (1, 2, [y])

    def test_vessel_first_seen_after_a_clock_jump_is_ticked(self):
        # 100 corpus lines at 1000-1099 s, then 100 at 0-99 s (a receiver
        # restart) with a new vessel at 20 s and 60 s
        with open(CORPUS, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        feed = [f"{1000.0 + i},{ln}\n" for i, ln in enumerate(lines[:100])]
        after = [f"{float(i)},{ln}\n" for i, ln in enumerate(lines[100:200])]
        after[21:21] = [nmea_line(20.0, 538001234, 42.0)]
        after[62:62] = [nmea_line(60.0, 538001234, 42.001)]
        table = TrackTable()
        seen = [t for t, rows in replay(decode_lines(feed + after, StreamCounters()), table)
                if 538001234 in table.mmsi[rows]]
        assert seen == [float(k) for k in range(21, 100)]
        # the 8 tracks from before the jump are timed out by it
        assert (table.clock_resets, table.timed_out) == (1, 8)

    def test_untimed_track_is_born_again_only_after_a_timeout(self, monkeypatch):
        # each vessel's synthetic clock keeps up with the busiest vessel's, so
        # a track ends only when its vessel has been silent past the timeout
        events = []
        ingest = TrackTable.ingest

        def recording_ingest(table, r, t):
            kind = ingest(table, r, t)
            events.append((r.mmsi, t, kind))
            return kind

        monkeypatch.setattr(TrackTable, "ingest", recording_ingest)
        with open(CORPUS, encoding="utf-8") as fh:
            for _ in replay(decode_lines(fh, StreamCounters()), TrackTable()):
                pass
        assert [t for _, t, _ in events] == sorted(t for _, t, _ in events)
        last_report, rebirths = {}, []
        for mmsi, t, kind in events:
            if kind == "created" and mmsi in last_report:
                rebirths.append(t - last_report[mmsi])
            if kind in ("created", "updated"):
                last_report[mmsi] = t
        assert rebirths
        assert all(gap > DEFAULT_STALE_TIMEOUT_S for gap in rebirths)


def _fields(lo, hi):
    return st.none() | st.floats(lo, hi)


# reports as the decoder yields them: positions within +-180/+-90 (the poles
# too) or missing, SOG 0-102.2 kn in m/s, COG 0-359.9 degrees
decoded_reports = st.builds(
    DynamicAisReport,
    mmsi=st.sampled_from((211234560, 244660000, 366999784, 538001234)),
    msg_type=st.sampled_from((1, 2, 3, 18)),
    lon=_fields(-180.0, 180.0),
    lat=st.sampled_from((-90.0, 90.0)) | _fields(-90.0, 90.0),
    sog=_fields(0.0, 1022 * 0.051444),
    cog=_fields(0.0, 359.9),
    heading=st.none() | st.integers(0, 359),
    timestamp_sec=st.none() | st.integers(0, 59))

# a forward feed clock; a report's time lags it by nothing, by less than the
# out-of-order tolerance, or by more
timed_entries = st.lists(st.tuples(
    st.sampled_from((0.0,)) | st.floats(0.0, 3.0),
    st.sampled_from((0.0,)) | st.floats(0.0, 0.99 * OUT_OF_ORDER_TOLERANCE_S)
    | st.floats(1.01 * OUT_OF_ORDER_TOLERANCE_S, 4.0),
    decoded_reports), max_size=20)


@settings(max_examples=40)
@given(start=st.floats(-100.0, 1e4), entries=timed_entries,
       rate=st.sampled_from((0.3, 1.0, 7.0)), stale_timeout=st.sampled_from((4.0, 180.0)))
def test_replay_ticks_live_rows_on_its_grid(start, entries, rate, stale_timeout):
    clock, reports = start, []
    for step, lag, r in entries:
        clock += step
        reports.append((clock - lag, r))
    table = TrackTable(filter_rate_hz=rate, stale_timeout=stale_timeout)
    prev = -np.inf
    for t_tick, rows in replay(reports, table):
        assert t_tick > prev
        assert round(t_tick * rate) / rate == t_tick
        assert table.live[rows].all()
        assert (np.diff(table.mmsi[rows]) > 0).all()
        prev = t_tick
