import math
import os

import numpy as np
import pytest
from dataclasses import astuple, replace
from hypothesis import given, strategies as st

from geotrack.geodesy import (MEAN_EARTH_RADIUS_M, GeoPoint, great_circle_inverse,
                              propagate_sphere_arrays)
from geotrack.sim import (
    STRAIGHT,
    TURN,
    Scenario,
    TrajectorySegment,
    boston_departure_scenario,
    format_scenario,
    generate_truth,
    lawnmower_scenario,
    load_scenario,
    parse_scenario,
    run_comparison,
    run_comparisons,
    sample_ais,
    stability_sweep,
)


def noiseless(scenario: Scenario) -> Scenario:
    return replace(scenario, sog_noise=0.0, cog_noise=0.0,
                   meas_noise=(0.0, 0.0, 0.0, 0.0))


def unit_vector(lon_deg, lat_deg) -> np.ndarray:
    """Earth-centred unit vectors of points, stacked along the first axis."""
    lon, lat = np.radians(lon_deg), np.radians(lat_deg)
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def straight_scenario(duration=600.0, speed=7.0, cog=63.0, **kwargs):
    return Scenario(start=GeoPoint(-70.9, 42.3), initial_cog=cog,
                    segments=(TrajectorySegment(STRAIGHT, duration, speed),),
                    **kwargs)


class TestTruthGeneration:
    def test_noiseless_straight_follows_one_great_circle(self):
        sc = noiseless(straight_scenario())
        truth = generate_truth(sc)
        # construct the great circle from the start point and initial course,
        # then check the cross-track distance of every truth sample
        start = GeoPoint(*truth.state[0, :2])
        for i in range(1, len(truth), 25):
            dist = 7.0 * truth.t[i]
            expect = propagate_sphere_arrays(start.lon, start.lat, sc.initial_cog, dist)
            d, _ = great_circle_inverse(GeoPoint(*truth.state[i, :2]), GeoPoint(*expect))
            assert d < 1e-3

    def test_noiseless_straight_speed_constant(self):
        truth = generate_truth(noiseless(straight_scenario(speed=5.5)))
        assert np.allclose(truth.state[:, 2], 5.5, atol=0.0)

    def test_course_carried_as_arrival_bearing(self):
        # on a noiseless straight leg the recorded course at every step is the
        # arrival bearing of the start's great circle: continued for 1000 km
        # along it, every step stays on that great circle
        sc = noiseless(straight_scenario(cog=63.0))
        truth = generate_truth(sc)
        far = unit_vector(*propagate_sphere_arrays(
            truth.state[:, 0], truth.state[:, 1], truth.state[:, 3], 1e6))
        # the unit normal of the great circle leaving the start at the initial course
        start = unit_vector(sc.start.lon, sc.start.lat)
        east = np.array([-np.sin(np.radians(sc.start.lon)), np.cos(np.radians(sc.start.lon)), 0.0])
        cog = np.radians(sc.initial_cog)
        normal = np.cross(start, np.cos(cog) * np.cross(start, east) + np.sin(cog) * east)
        cross_track_m = MEAN_EARTH_RADIUS_M * np.abs(np.arcsin(normal @ far))
        assert cross_track_m.max() < 1e-6

    def test_course_jittered_around_north_stays_below_360(self):
        sc = straight_scenario(duration=60.0, cog=0.0, sog_noise=0.0, cog_noise=1e-20)
        cog = generate_truth(sc).state[:, 3]
        assert ((cog >= 0.0) & (cog < 360.0)).all(), cog

    def test_half_turn_reverses_course(self):
        # 180 deg at 1 deg/s: the final course is the initial course + 180
        sc = noiseless(Scenario(
            start=GeoPoint(-70.9, 42.3), initial_cog=40.0,
            segments=(TrajectorySegment(TURN, 180.0, 7.0, turn_rate=1.0),
                      TrajectorySegment(STRAIGHT, 10.0, 7.0))))
        truth = generate_truth(sc)
        final = truth.state[-1, 3]
        assert (final - (40.0 + 180.0)) % 360.0 == pytest.approx(0.0, abs=0.2)

    def test_sample_count(self):
        truth = generate_truth(straight_scenario(duration=600.0))
        assert len(truth) == 600
        assert truth.state.shape == (600, 4)

    def test_seed_determinism(self):
        sc = straight_scenario(seed=7)
        a, b = generate_truth(sc), generate_truth(sc)
        assert np.array_equal(a.state, b.state)


class TestAisSampling:
    def test_report_schedule(self):
        sc = straight_scenario(duration=600.0, ais_interval=6.0)
        truth = generate_truth(sc)
        reports = sample_ais(truth, sc)
        assert sc.report_stride == 6
        assert reports.shape == (100, 4)

    def test_noiseless_reports_equal_truth(self):
        sc = noiseless(straight_scenario(duration=60.0, ais_interval=4.0))
        truth = generate_truth(sc)
        assert np.array_equal(sample_ais(truth, sc), truth.state[::4])

    def test_reported_course_around_north_stays_below_360(self):
        sc = straight_scenario(duration=60.0, cog=0.0, sog_noise=0.0, cog_noise=0.0,
                               meas_noise=(0.0, 0.0, 0.0, 1e-20))
        cog = sample_ais(generate_truth(sc), sc)[:, 3]
        assert ((cog >= 0.0) & (cog < 360.0)).all(), cog

    def test_noise_statistics(self):
        sc = straight_scenario(duration=3000.0, ais_interval=3.0)
        truth = generate_truth(sc)
        res = sample_ais(truth, sc) - truth.state[::3]
        assert res[:, 0].std() == pytest.approx(1.90e-5, rel=0.15)
        assert res[:, 1].std() == pytest.approx(1.45e-5, rel=0.15)

    @pytest.mark.parametrize("interval, rate_hz", [(1.5, 2.0), (4.0, 0.5), (0.1 * 3, 10.0)])
    def test_interval_on_the_truth_grid(self, interval, rate_hz):
        sc = straight_scenario(duration=60.0, ais_interval=interval, truth_rate_hz=rate_hz)
        stride = sc.report_stride
        assert stride == round(interval * rate_hz)
        assert len(sample_ais(generate_truth(sc), sc)) == -(-sc.n_steps // stride)

    @pytest.mark.parametrize("interval, rate_hz", [(1.4, 1.0), (2.5, 1.0), (1.25, 2.0),
                                                   (math.inf, 1.0)])
    def test_interval_off_the_truth_grid_is_refused(self, interval, rate_hz):
        with pytest.raises(ValueError, match="whole number of truth steps"):
            straight_scenario(ais_interval=interval, truth_rate_hz=rate_hz)


class TestComparisonRuns:
    def test_zero_noise_run_stays_tight(self):
        # with exact measurements the only estimation error left is the
        # initial-covariance transient (the unscented mean of a wide course
        # prior is pulled inside the arc), so position error stays small and
        # always consistent with the reported covariance
        sc = noiseless(straight_scenario(duration=300.0))
        run = run_comparison(sc)
        assert run.ukf_metrics.rmse_pos_m < 5.0
        assert run.ekf_metrics.rmse_pos_m < 1.0
        assert run.ukf_metrics.frac_within_3sigma == 1.0
        assert run.ukf.err_pos_m[-1] < 1.0  # transient dies out

    def test_boston_run_structure(self):
        run = run_comparison(boston_departure_scenario(seed=0))
        n = len(run.truth)
        assert run.ukf.est.shape == run.ekf.est.shape == (n, 4)
        assert run.ukf_metrics.rmse_pos_m > 0.0
        assert 0.0 <= run.ukf_metrics.frac_within_3sigma <= 1.0

    @pytest.mark.parametrize("rate_hz", [2.0, 0.5])
    def test_every_truth_step_filled_and_scored(self, rate_hz):
        sc = replace(boston_departure_scenario(seed=0), truth_rate_hz=rate_hz)
        run = run_comparison(sc)
        assert len(run.truth) == round(sc.duration * rate_hz)
        for rec, metrics in ((run.ukf, run.ukf_metrics), (run.ekf, run.ekf_metrics)):
            assert np.all(rec.cov_trace > 0.0)
            # an unfilled row would sit at (0, 0), thousands of km away
            assert rec.err_pos_m.max() < 100.0
            assert metrics.rmse_pos_m == pytest.approx(
                np.sqrt(np.mean(rec.err_pos_m ** 2)))

    def test_lon_error_wraps_at_the_dateline(self):
        # estimate and truth straddle the seam: a residual of about 360
        # degrees is a few metres
        sc = Scenario(start=GeoPoint(179.999, 10.0), initial_cog=90.0,
                      segments=(TrajectorySegment(STRAIGHT, 60.0, 10.0),), seed=2)
        run = run_comparison(sc)
        assert np.any(np.abs(run.ukf.est[:, 0] - run.truth.state[:, 0]) > 180.0)
        assert run.ukf_metrics.rmse_lon < 1e-4
        assert run.ekf_metrics.rmse_lon < 1e-4

    def test_run_determinism(self):
        sc = boston_departure_scenario(seed=3)
        a, b = run_comparison(sc), run_comparison(sc)
        assert np.array_equal(a.ukf.est, b.ukf.est)
        assert a.ukf_metrics == b.ukf_metrics


class TestCanonicalScenarios:
    def test_lawnmower_leg_period(self):
        sc = lawnmower_scenario(6.0)
        straight = sc.segments[0]
        turn = sc.segments[1]
        period = straight.duration + turn.duration
        assert period == pytest.approx(855.0 / 15.0 + math.pi * 50.0 / 15.0,
                                       rel=1e-12)
        # the largest AIS gap under study (68 s) spans more than a full leg
        assert period < 68.0

    def test_lawnmower_turn_signs_alternate(self):
        sc = lawnmower_scenario(6.0, n_legs=4)
        rates = [seg.turn_rate for seg in sc.segments if seg.kind == TURN]
        assert rates[0] > 0 > rates[1]
        assert rates[2] > 0 > rates[3]

    def test_boston_speed_and_interval(self):
        sc = boston_departure_scenario()
        assert all(seg.speed == 7.0 for seg in sc.segments)
        assert sc.ais_interval == 6.0

    def test_stability_sweep_shapes(self):
        out = stability_sweep(intervals=(2, 6, 30), n_legs=2)
        assert [iv for iv, _ in out] == [2.0, 6.0, 30.0]
        for interval, run in out:
            assert np.all(run.ukf.cov_trace > 0.0)
            # lockstep parity: a sweep run is the single run of its scenario,
            # the EKF bit for bit and the stacked UKF up to matmul rounding
            alone = run_comparison(lawnmower_scenario(interval, n_legs=2))
            assert np.array_equal(run.truth.state, alone.truth.state)
            for field in ("est", "err_pos_m", "sigma3_m", "cov_trace"):
                assert np.array_equal(getattr(run.ekf, field), getattr(alone.ekf, field))
            assert run.ekf_metrics == alone.ekf_metrics
            np.testing.assert_allclose(run.ukf.est, alone.ukf.est, rtol=0.0, atol=1e-7)
            for field in ("err_pos_m", "sigma3_m"):
                np.testing.assert_allclose(getattr(run.ukf, field), getattr(alone.ukf, field),
                                           rtol=0.0, atol=1e-4)
            np.testing.assert_allclose(run.ukf.cov_trace, alone.ukf.cov_trace, rtol=1e-7)
            np.testing.assert_allclose(astuple(run.ukf_metrics), astuple(alone.ukf_metrics),
                                       rtol=1e-7)

    @pytest.mark.parametrize("scenarios", [
        [], [boston_departure_scenario(), lawnmower_scenario(6.0, n_legs=4)]],
        ids=["none", "boston-with-lawnmower"])
    def test_runs_off_one_truth_grid_are_refused(self, scenarios):
        with pytest.raises(ValueError, match="one truth_rate_hz and n_steps"):
            run_comparisons(scenarios)


BOSTON_FILE = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                           "boston_departure.scn")

_durations = st.floats(2.0, 1e5)
_speeds = st.floats(0.0, 50.0)
_stds = st.floats(0.0, 10.0)
_segments = st.one_of(
    st.builds(TrajectorySegment, st.just(STRAIGHT), _durations, _speeds),
    st.builds(TrajectorySegment, st.just(TURN), _durations, _speeds,
              st.floats(-20.0, 20.0).filter(bool)))


@st.composite
def scenarios(draw):
    """Valid scenarios: a start anywhere on Earth and a report interval on
    the truth grid."""
    rate = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 10.0]))
    return Scenario(
        start=GeoPoint(draw(st.floats(-180.0, 180.0)), draw(st.floats(-90.0, 90.0))),
        segments=tuple(draw(st.lists(_segments, min_size=1, max_size=6))),
        initial_cog=draw(st.floats(-720.0, 720.0)),
        truth_rate_hz=rate,
        ais_interval=draw(st.integers(1, 120)) / rate,
        sog_noise=draw(_stds), cog_noise=draw(_stds),
        meas_noise=tuple(draw(st.lists(_stds, min_size=4, max_size=4))),
        seed=draw(st.integers(0, 2 ** 64)))


class TestScenarioFiles:
    def test_round_trip(self):
        sc = boston_departure_scenario(seed=5)
        back = parse_scenario(format_scenario(sc))
        assert back.start == sc.start
        assert back.initial_cog == sc.initial_cog
        assert back.ais_interval == sc.ais_interval
        assert back.seed == sc.seed
        assert back.segments == sc.segments

    @given(scenarios())
    def test_every_valid_scenario_round_trips(self, sc):
        assert parse_scenario(format_scenario(sc)) == sc

    def test_boston_file_is_the_boston_scenario(self):
        assert load_scenario(BOSTON_FILE) == boston_departure_scenario()

    def test_defaults_live_on_the_dataclass(self):
        sc = parse_scenario("start_lon = -71\nstart_lat = 42\n[segments]\nstraight 60 7\n")
        assert sc == Scenario(start=GeoPoint(-71.0, 42.0),
                              segments=(TrajectorySegment(STRAIGHT, 60.0, 7.0),))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scenario("start_lon = -71\nno equals sign here\n[segments]\nstraight 10 5 -")
        with pytest.raises(ValueError):
            parse_scenario("start_lon = -71\nstart_lat = 42\n")  # no segments

    def test_invalid_segments_rejected(self):
        for segment in [("zigzag", 10.0, 5.0), (STRAIGHT, -1.0, 5.0),
                        (STRAIGHT, math.nan, 5.0), (STRAIGHT, math.inf, 5.0),
                        (STRAIGHT, 10.0, math.nan), (STRAIGHT, 10.0, math.inf),
                        (TURN, 10.0, 5.0, math.nan), (TURN, 10.0, 5.0, math.inf)]:
            with pytest.raises(ValueError):
                TrajectorySegment(*segment)

    @pytest.mark.parametrize("segment", [(STRAIGHT, 10.0, 5.0, 3.0), (TURN, 10.0, 5.0)],
                             ids=["straight-with-rate", "turn-without-rate"])
    def test_kind_disagreeing_with_rate_rejected(self, segment):
        with pytest.raises(ValueError, match="a straight has no turn rate"):
            TrajectorySegment(*segment)

    @pytest.mark.parametrize("fields, match", [
        (dict(sog_noise=-0.1), "noise"), (dict(cog_noise=-1.0), "noise"),
        (dict(meas_noise=(0.0, 0.0, -0.05, 0.0)), "noise"),
        (dict(truth_rate_hz=1e300), "truth steps"), (dict(segments=()), "truth steps"),
        (dict(initial_cog=math.nan), "initial_cog"), (dict(initial_cog=math.inf), "initial_cog"),
        (dict(initial_cog=-math.inf), "initial_cog")],
        ids=["sog-noise", "cog-noise", "meas-noise", "too-many-steps", "no-segments",
             "nan-cog", "inf-cog", "minus-inf-cog"])
    def test_invalid_scenarios_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            replace(straight_scenario(), **fields)
