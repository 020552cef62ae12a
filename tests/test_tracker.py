import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from geotrack import ukf
from geotrack.ais import DynamicAisReport
from geotrack.tracker import DEFAULT_STALE_TIMEOUT_S, TrackTable
from geotrack.ukf import GeodeticUkf, Measurement


def report(mmsi, lon, lat, sog=7.0, cog=90.0, msg_type=1):
    return DynamicAisReport(mmsi=mmsi, msg_type=msg_type, lon=lon, lat=lat,
                            sog=sog, cog=cog, heading=None, timestamp_sec=None)


def measurement(r):
    """The masked measurement a table fuses for report ``r`` off the poles."""
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
        table = TrackTable()
        r = report(222000222, None, None, sog=3.0, cog=10.0)
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
        # position is dropped: each fuses only the fields it carries
        first = DynamicAisReport(mmsi=1, msg_type=18, lon=-71.0, lat=42.3,
                                 sog=None, cog=None, heading=220, timestamp_sec=5)
        polar = DynamicAisReport(mmsi=1, msg_type=18, lon=-71.0, lat=90.0,
                                 sog=4.0, cog=None, heading=None, timestamp_sec=None)
        table = TrackTable()
        table.ingest(first, 0.0)
        table.ingest(polar, 1.0)
        table.tick(1.0)

        solo = GeodeticUkf.from_first_measurement(
            Measurement(np.array([-71.0, 42.3, 0.0, 0.0]), [True, True, False, False]),
            timestamp=0.0)
        solo.predict(1.0)
        solo.update(Measurement(np.array([0.0, 0.0, 4.0, 0.0]),
                                [False, False, True, False]))
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
        with pytest.raises(ValueError):
            TrackTable(filter_rate_hz=0.0)


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
