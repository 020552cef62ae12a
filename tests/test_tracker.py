import numpy as np
import pytest

from geotrack import tracker
from geotrack.ais import DynamicAisReport
from geotrack.tracker import (DEFAULT_STALE_TIMEOUT_S, TrackTable,
                              measurement_from_report)
from geotrack.ukf import GeodeticUkf


def report(mmsi, lon, lat, sog=7.0, cog=90.0, msg_type=1):
    return DynamicAisReport(mmsi=mmsi, msg_type=msg_type, lon=lon, lat=lat,
                            sog=sog, cog=cog, heading=None, timestamp_sec=None)


def walk(mmsi, lon0, lat0, n, dt=10.0, dlat=1e-4):
    """A simple northbound report schedule for one vessel."""
    return [(k * dt, report(mmsi, lon0, lat0 + k * dlat, sog=1.1, cog=0.0))
            for k in range(n)]


class TestLifecycle:
    def test_first_report_creates_track(self):
        table = TrackTable()
        assert table.ingest(report(111000111, -71.0, 42.3), 0.0) == "created"
        assert 111000111 in table.tracks
        b = table.tracks[111000111].belief
        assert b.mean.lon == pytest.approx(-71.0)
        assert b.mean.lat == pytest.approx(42.3)

    def test_positionless_first_report_skipped(self):
        table = TrackTable()
        r = report(222000222, None, None, sog=3.0, cog=10.0)
        assert table.ingest(r, 0.0) == "skipped"
        assert table.tracks == {}
        assert table.skipped_reports == 1

    def test_subsequent_report_updates(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        assert table.ingest(report(1, -71.0, 42.3005), 6.0) == "updated"
        assert table.tracks[1].last_seen == 6.0

    def test_stale_track_retired(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        table.ingest(report(2, -70.9, 42.4001), 170.0)
        out = table.tick(0.1 + DEFAULT_STALE_TIMEOUT_S)
        mmsis = [m for m, _ in out]
        assert mmsis == [2]
        assert 1 not in table.tracks

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
            joint_belief = dict(joint.tick(t_end))[mmsi]
            solo_belief = dict(solo.tick(t_end))[mmsi]
            assert np.allclose(joint_belief.mean.as_vector(),
                               solo_belief.mean.as_vector(), atol=1e-12)
            assert np.allclose(joint_belief.cov, solo_belief.cov, atol=1e-12)

    def test_deterministic_replay(self):
        stream = sorted(walk(1, -71.0, 42.3, 8) + walk(2, -70.9, 42.2, 8),
                        key=lambda item: item[0])

        def run():
            table = TrackTable()
            for t, r in stream:
                table.ingest(r, t)
            return table.tick(stream[-1][0])

        out1, out2 = run(), run()
        for (m1, b1), (m2, b2) in zip(out1, out2):
            assert m1 == m2
            assert np.array_equal(b1.mean.as_vector(), b2.mean.as_vector())
            assert np.array_equal(b1.cov, b2.cov)


class TestPrediction:
    def test_tick_grows_uncertainty(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        tr0 = np.trace(table.tracks[1].belief.cov)
        table.tick(30.0)
        assert np.trace(table.tracks[1].belief.cov) > tr0

    def test_fixed_rate_stepping(self):
        # a 10.5 s gap at 1 Hz is 10 full steps plus one partial step,
        # landing the belief exactly on the tick time
        table = TrackTable(filter_rate_hz=1.0)
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.tick(10.5)
        assert table.tracks[1].last_update == pytest.approx(10.5, abs=1e-9)
        assert table.tracks[1].belief.timestamp == pytest.approx(10.5, abs=1e-9)

    def test_speed_only_report_leaves_course(self):
        # a report carrying only SOG (zero residual) must not move the course
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3, sog=5.0, cog=77.0), 0.0)
        partial = DynamicAisReport(mmsi=1, msg_type=1, lon=None, lat=None,
                                   sog=5.0, cog=None, heading=None,
                                   timestamp_sec=None)
        table.ingest(partial, 6.0)
        assert table.tracks[1].belief.mean.cog == pytest.approx(77.0, abs=0.5)
        assert table.tracks[1].belief.mean.sog == pytest.approx(5.0, abs=0.1)


class TestMeasurementMapping:
    def test_mask_follows_missing_fields(self):
        r = DynamicAisReport(mmsi=1, msg_type=18, lon=-71.0, lat=42.3,
                             sog=None, cog=None, heading=220, timestamp_sec=5)
        m = measurement_from_report(r)
        assert m.mask.tolist() == [True, True, False, False]
        assert m.z[0] == -71.0
        assert m.z[1] == 42.3

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TrackTable(filter_rate_hz=0.0)


class TestStackedTick:
    def test_staggered_tracks_match_per_track_stepping(self, monkeypatch):
        """Tracks at different last_update times share each stacked step and
        land exactly where stepping each filter alone would take them."""
        births = {1: (0.0, -71.0, 42.3), 2: (0.4, 179.9999, 10.0), 3: (2.7, -70.5, -33.0)}
        table = TrackTable()
        for mmsi, (t0, lon, lat) in births.items():
            table.ingest(report(mmsi, lon, lat, sog=6.0, cog=300.0), t0)

        calls = []
        stacked = tracker.predict_arrays
        monkeypatch.setattr(tracker, "predict_arrays",
                            lambda mean, *a: calls.append(len(mean)) or stacked(mean, *a))
        out = dict(table.tick(5.5))
        # six steps from 0 and from 0.4, three from 2.7: one call per step
        # index, each over every track still short of 5.5
        assert calls == [3, 3, 3, 2, 2, 2]

        for mmsi, (t0, lon, lat) in births.items():
            r = report(mmsi, lon, lat, sog=6.0, cog=300.0)
            solo = GeodeticUkf.from_first_measurement(measurement_from_report(r),
                                                      timestamp=t0)
            t = t0
            while 5.5 - t > 1e-9:
                dt = min(1.0, 5.5 - t)
                solo.predict(dt)
                t += dt
            assert out[mmsi].timestamp == solo.belief.timestamp
            assert np.array_equal(out[mmsi].mean.as_vector(),
                                  solo.belief.mean.as_vector())
            assert np.array_equal(out[mmsi].cov, solo.belief.cov)


class TestFailureIsolation:
    def test_nan_covariance_is_retired_by_tick(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        table.tracks[2].filt.belief.cov[:] = np.nan
        out = table.tick(3.0)
        assert [m for m, _ in out] == [1]
        assert table.retired == 1
        assert np.all(np.isfinite(out[0][1].cov))

    def test_nan_covariance_is_retired_by_ingest(self):
        table = TrackTable()
        table.ingest(report(1, -71.0, 42.3), 0.0)
        table.ingest(report(2, -70.9, 42.4), 0.0)
        table.tracks[2].filt.belief.cov[:] = np.nan
        assert table.ingest(report(2, -70.9, 42.401), 5.0) == "retired"
        assert table.ingest(report(1, -71.0, 42.301), 5.0) == "updated"
        assert list(table.tracks) == [1]
        assert table.retired == 1
