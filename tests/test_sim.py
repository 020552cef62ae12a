import math

import numpy as np
import pytest
from dataclasses import replace

from geotrack.geodesy import (GeoPoint, great_circle_inverse,
                              great_circle_final_bearing, propagate_sphere)
from geotrack.sim import (
    STRAIGHT,
    TURN,
    Scenario,
    TrajectorySegment,
    boston_departure_scenario,
    format_scenario,
    generate_truth,
    lawnmower_scenario,
    parse_scenario,
    run_comparison,
    sample_ais,
    stability_sweep,
)


def noiseless(scenario: Scenario) -> Scenario:
    return replace(scenario, sog_noise=0.0, cog_noise=0.0,
                   meas_noise=(0.0, 0.0, 0.0, 0.0))


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
        start = GeoPoint(truth.lon[0], truth.lat[0])
        for i in range(1, len(truth), 25):
            dist = 7.0 * truth.t[i]
            expect = propagate_sphere(start, sc.initial_cog, dist)
            d, _ = great_circle_inverse(GeoPoint(truth.lon[i], truth.lat[i]),
                                        expect)
            assert d < 1e-3

    def test_noiseless_straight_speed_constant(self):
        truth = generate_truth(noiseless(straight_scenario(speed=5.5)))
        assert np.allclose(truth.sog, 5.5, atol=0.0)

    def test_course_carried_as_arrival_bearing(self):
        # on a noiseless straight leg the recorded course at step k equals the
        # arrival bearing of the step before it
        truth = generate_truth(noiseless(straight_scenario(cog=63.0)))
        for i in (1, 100, 400):
            p_prev = GeoPoint(truth.lon[i - 1], truth.lat[i - 1])
            p_cur = GeoPoint(truth.lon[i], truth.lat[i])
            arrival = great_circle_final_bearing(p_prev, p_cur)
            assert truth.cog[i] == pytest.approx(arrival, abs=1e-9)

    def test_half_turn_reverses_course(self):
        # 180 deg at 1 deg/s: the final course is the initial course + 180
        sc = noiseless(Scenario(
            start=GeoPoint(-70.9, 42.3), initial_cog=40.0,
            segments=(TrajectorySegment(TURN, 180.0, 7.0, turn_rate=1.0),
                      TrajectorySegment(STRAIGHT, 10.0, 7.0))))
        truth = generate_truth(sc)
        final = truth.cog[-1]
        assert (final - (40.0 + 180.0)) % 360.0 == pytest.approx(0.0, abs=0.2)

    def test_sample_count(self):
        truth = generate_truth(straight_scenario(duration=600.0))
        assert len(truth) == 600

    def test_seed_determinism(self):
        sc = straight_scenario(seed=7)
        a, b = generate_truth(sc), generate_truth(sc)
        assert np.array_equal(a.lon, b.lon)
        assert np.array_equal(a.cog, b.cog)


class TestAisSampling:
    def test_report_schedule(self):
        sc = straight_scenario(duration=600.0, ais_interval=6.0)
        truth = generate_truth(sc)
        reports = sample_ais(truth, sc)
        assert len(reports) == 100
        times = [t for t, _ in reports]
        assert times[0] == 0.0
        assert np.allclose(np.diff(times), 6.0)

    def test_noiseless_reports_equal_truth(self):
        sc = noiseless(straight_scenario(duration=60.0))
        truth = generate_truth(sc)
        for t, meas in sample_ais(truth, sc):
            i = int(round(t))
            assert meas.z == pytest.approx(truth.state_vector(i), abs=0.0)

    def test_noise_statistics(self):
        sc = straight_scenario(duration=3000.0, ais_interval=3.0)
        truth = generate_truth(sc)
        reports = sample_ais(truth, sc)
        res = np.array([meas.z - truth.state_vector(int(round(t)))
                        for t, meas in reports])
        assert res[:, 0].std() == pytest.approx(1.90e-5, rel=0.15)
        assert res[:, 1].std() == pytest.approx(1.45e-5, rel=0.15)

    @pytest.mark.parametrize("interval, rate_hz", [(1.5, 2.0), (4.0, 0.5), (0.1 * 3, 10.0)])
    def test_interval_on_the_truth_grid(self, interval, rate_hz):
        sc = straight_scenario(duration=60.0, ais_interval=interval, truth_rate_hz=rate_hz)
        times = [t for t, _ in sample_ais(generate_truth(sc), sc)]
        assert np.allclose(np.diff(times), interval)

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
        out = stability_sweep(intervals=(2, 30), n_legs=2)
        assert [iv for iv, _ in out] == [2.0, 30.0]
        for _, run in out:
            assert run.ukf_metrics.max_cov_trace > 0.0


class TestScenarioFiles:
    def test_round_trip(self):
        sc = boston_departure_scenario(seed=5)
        back = parse_scenario(format_scenario(sc), name=sc.name)
        assert back.start == sc.start
        assert back.initial_cog == sc.initial_cog
        assert back.ais_interval == sc.ais_interval
        assert back.seed == sc.seed
        assert back.segments == sc.segments

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scenario("start_lon = -71\nno equals sign here\n[segments]\nstraight 10 5 -")
        with pytest.raises(ValueError):
            parse_scenario("start_lon = -71\nstart_lat = 42\n")  # no segments

    def test_invalid_segments_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySegment("zigzag", 10.0, 5.0)
        with pytest.raises(ValueError):
            TrajectorySegment(STRAIGHT, -1.0, 5.0)
