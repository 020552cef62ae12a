import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotrack.geodesy import GeoPoint, great_circle_inverse, propagate_sphere
from geotrack.noise import build_process_noise, default_measurement_noise
from geotrack.ukf import (
    FactorizationFailure,
    GaussianBelief,
    GeodeticState,
    GeodeticUkf,
    INITIAL_COV,
    Measurement,
    N_STATES,
    SIGMA_SCALE,
    SIGMA_W0,
    SIGMA_WI,
    normalize_state,
    predict_arrays,
    sigma_points,
    update,
    wrap_residual,
)

R_DEFAULT = default_measurement_noise()


def belief(lon=-71.0, lat=42.0, sog=7.0, cog=90.0, cov=None, t=0.0):
    cov = INITIAL_COV.copy() if cov is None else np.asarray(cov, dtype=float)
    return GaussianBelief(GeodeticState(lon, lat, sog, cog), cov, t)


def belief_sigma_points(b):
    return sigma_points(b.mean.as_vector(), b.cov)


class TestWrapResidual:
    def test_worked_examples(self):
        assert wrap_residual(1.0, 359.0) == -2.0
        assert wrap_residual(180.0, 180.0) == 0.0
        assert wrap_residual(350.0, 10.0) == 20.0

    @given(st.floats(0.0, 359.999), st.floats(0.0, 359.999))
    def test_range_and_consistency(self, a, b):
        r = wrap_residual(a, b)
        assert -180.0 <= r < 180.0
        assert ((a + r - b) + 180.0) % 360.0 - 180.0 == pytest.approx(
            0.0, abs=1e-9)


class TestSigmaPoints:
    def test_weights(self):
        sp = belief_sigma_points(belief())
        assert sp.weights[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert np.allclose(sp.weights[1:], 1.0 / 6.0, atol=1e-15)
        assert abs(sp.weights.sum() - 1.0) < 1e-12
        assert SIGMA_W0 == 1.0 - N_STATES / 3.0
        assert SIGMA_WI == (1.0 - SIGMA_W0) / (2 * N_STATES)
        assert SIGMA_SCALE == pytest.approx(3.0)

    def test_identity_cov_offsets(self):
        sp = belief_sigma_points(belief(cov=np.eye(4)))
        for i in range(1, 5):
            offset = sp.points[i] - sp.points[0]
            assert np.linalg.norm(offset) == pytest.approx(math.sqrt(3.0),
                                                           rel=1e-12)

    def test_zero_cov_collapses(self):
        sp = belief_sigma_points(belief(cov=np.zeros((4, 4))))
        assert np.allclose(sp.points, sp.points[0], atol=0.0)

    def test_symmetry_about_mean(self):
        sp = belief_sigma_points(belief(cov=np.diag([1e-8, 2e-8, 0.5, 4.0])))
        mean = sp.points[0]
        for i in range(1, 5):
            assert np.allclose(sp.points[i] - mean, mean - sp.points[i + 4],
                               atol=1e-12)

    def test_linear_map_exactness(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4))
        cov = np.diag([1e-6, 2e-6, 0.3, 2.0])
        b = belief(cov=cov)
        sp = belief_sigma_points(b)
        mapped = sp.points @ a.T
        mean = sp.weights @ mapped
        res = mapped - mean
        recon_cov = (sp.weights[:, None] * res).T @ res
        expect_mean = a @ b.mean.as_vector()
        expect_cov = a @ cov @ a.T
        assert np.allclose(mean, expect_mean, atol=1e-10)
        assert np.allclose(recon_cov, expect_cov, atol=1e-10)


class TestPredict:
    def test_stationary_fixed_point(self):
        b = belief(sog=0.0, cov=np.zeros((4, 4)))
        mean, cov = predict_arrays(b.mean.as_vector(), b.cov, 1.0, np.zeros((4, 4)))
        assert mean == pytest.approx(b.mean.as_vector(), abs=1e-12)
        assert np.allclose(cov, 0.0, atol=1e-15)

    def test_meridional_cv_step(self):
        b = belief(lon=0.0, lat=0.0, sog=7.0, cog=0.0, cov=np.zeros((4, 4)))
        mean, _ = predict_arrays(b.mean.as_vector(), b.cov, 1.0, np.zeros((4, 4)))
        expected_dlat = (7.0 / 6.371e6) * (180.0 / math.pi)
        assert mean[1] == pytest.approx(expected_dlat, rel=1e-12)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_timestamp_advances(self):
        b = belief(t=5.0)
        filt = GeodeticUkf(b.mean.as_vector(), b.cov, b.timestamp)
        filt.predict(2.5)
        assert filt.belief.timestamp == 7.5

    def test_monte_carlo_push_forward_oracle(self):
        """Unscented moments vs a large direct sample of the process model."""
        cov = np.diag([1e-10, 1e-10, 0.04, 4.0])
        b = belief(lon=-70.8, lat=42.2, sog=7.0, cog=63.0, cov=cov)
        mean, out_cov = predict_arrays(b.mean.as_vector(), cov, 6.0, np.zeros((4, 4)))

        # mean of a tight prior must track the deterministic propagation
        det = propagate_sphere(GeoPoint(-70.8, 42.2), 63.0, 42.0)
        dist_m = math.hypot((mean[1] - det.lat) * 111319.5,
                            (mean[0] - det.lon) * 111319.5
                            * math.cos(math.radians(det.lat)))
        assert dist_m < 0.1

        rng = np.random.default_rng(123)
        n = 1_000_000
        samples = rng.multivariate_normal(b.mean.as_vector(), cov, size=n)
        from geotrack.ukf import _propagate_points
        pushed = _propagate_points(samples, 6.0)
        mc_mean = pushed.mean(axis=0)
        mc_cov = np.cov(pushed.T)
        assert np.allclose(mean, mc_mean,
                           atol=5 * np.sqrt(np.diag(mc_cov) / n).max() + 1e-9)
        scale = np.sqrt(np.outer(np.diag(mc_cov), np.diag(mc_cov)))
        assert np.all(np.abs(out_cov - mc_cov) <= 0.05 * scale + 1e-15)

    def test_adds_process_noise(self):
        q = build_process_noise(42.0, 90.0, 1.0)
        b = belief(cov=np.zeros((4, 4)))
        _, cov = predict_arrays(b.mean.as_vector(), b.cov, 1.0, q)
        assert np.trace(cov) >= np.trace(q) - 1e-15


class TestUpdate:
    def test_zero_residual_keeps_mean(self):
        b = belief()
        z = Measurement.full(*b.mean.as_vector())
        out = update(b, z, R_DEFAULT)
        assert out.mean.as_vector() == pytest.approx(b.mean.as_vector(),
                                                     abs=1e-9)
        # information strictly increases on observed states
        assert np.all(np.diag(out.cov) <= np.diag(b.cov) + 1e-15)

    def test_all_masked_is_identity(self):
        b = belief()
        z = Measurement(np.zeros(4), np.zeros(4, dtype=bool))
        out = update(b, z, R_DEFAULT)
        assert np.allclose(out.mean.as_vector(), b.mean.as_vector(), atol=0.0)
        assert np.allclose(out.cov, b.cov, atol=1e-12)

    def test_cog_seam_update(self):
        b = belief(cog=1.0)
        z = Measurement.from_fields(cog=359.0)
        out = update(b, z, R_DEFAULT)
        assert out.mean.cog > 358.0 or out.mean.cog < 1.0

    def test_masked_equals_huge_noise_limit(self):
        b = belief(cov=np.diag([1e-8, 1e-8, 0.25, 9.0]))
        masked = Measurement.from_fields(lon=-71.0001, lat=42.0001)
        out_masked = update(b, masked, R_DEFAULT)
        r_inf = R_DEFAULT.copy()
        r_inf[2, 2] = r_inf[3, 3] = 1e12
        full = Measurement.full(-71.0001, 42.0001, 0.0, 0.0)
        out_inf = update(b, full, r_inf)
        assert np.allclose(out_masked.mean.as_vector(),
                           out_inf.mean.as_vector(), atol=1e-6)

    def test_missing_cog_keeps_prediction(self):
        b = belief(cog=222.0)
        z = Measurement.from_fields(lon=-71.0, lat=42.0, sog=7.0)
        out = update(b, z, R_DEFAULT)
        assert out.mean.cog == pytest.approx(222.0, abs=1e-9)


class TestJosephHealth:
    @settings(max_examples=25)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_cycles_stay_psd(self, seed):
        rng = np.random.default_rng(seed)
        filt = GeodeticUkf.from_first_measurement(
            Measurement.full(rng.uniform(-179, 179), rng.uniform(-80, 80),
                             rng.uniform(0, 15), rng.uniform(0, 360)))
        for _ in range(40):
            filt.predict(float(rng.uniform(0.1, 30.0)))
            m = filt.belief.mean
            z = Measurement.full(m.lon + rng.normal(0, 2e-5),
                                 min(89.0, max(-89.0, m.lat + rng.normal(0, 2e-5))),
                                 max(0.0, m.sog + rng.normal(0, 0.1)),
                                 (m.cog + rng.normal(0, 1.0)) % 360.0)
            filt.update(z)
            p = filt.belief.cov
            assert np.max(np.abs(p - p.T)) < 1e-12
            assert np.linalg.eigvalsh(p)[0] >= -1e-9


class TestAngularRotationInvariance:
    def test_cog_estimates_rotate_exactly(self):
        """A stationary COG-only filter is equivariant under a global
        rotation of every angle in the problem."""
        def run(delta):
            cov0 = np.diag([0.0, 0.0, 0.0, 25.0])
            b = GaussianBelief(GeodeticState(-71.0, 42.0, 0.0,
                                             (40.0 + delta) % 360.0), cov0)
            filt = GeodeticUkf(b.mean.as_vector(), b.cov)
            history = []
            for k in range(25):
                filt.predict(1.0)
                z = Measurement.from_fields(cog=(40.0 + 7.0 * k + delta) % 360.0)
                filt.update(z)
                history.append(filt.belief.mean.cog)
            return history

        base = run(0.0)
        for delta in (17.0, 180.0, 271.5, 359.0):
            rotated = run(delta)
            for c0, cd in zip(base, rotated):
                diff = (cd - c0 - delta + 180.0) % 360.0 - 180.0
                assert abs(diff) < 1e-9


class TestInitialization:
    def test_mean_equals_first_report(self):
        z = Measurement.full(-70.5, 41.8, 5.5, 123.0)
        b = GeodeticUkf.from_first_measurement(z, timestamp=100.0).belief
        assert b.mean.as_vector() == pytest.approx([-70.5, 41.8, 5.5, 123.0])
        assert b.timestamp == 100.0

    def test_missing_fields_default(self):
        z = Measurement.from_fields(lon=-70.5, lat=41.8)
        b = GeodeticUkf.from_first_measurement(z).belief
        assert b.mean.sog == 0.0
        assert b.mean.cog == 0.0


class TestBirthRule:
    """A new track fuses the report it is born from with that report's R."""

    def test_newborn_track_moves_at_reported_speed(self):
        filt = GeodeticUkf.from_first_measurement(
            Measurement.full(-71.0, 42.0, 7.0, 90.0))
        start = GeoPoint(*filt.mean[:2])
        filt.predict(1.0)
        moved, _ = great_circle_inverse(start, GeoPoint(*filt.mean[:2]))
        assert moved == pytest.approx(7.0, rel=0.01)

    def test_carried_fields_start_at_measurement_noise(self):
        z = Measurement.full(-71.0, 42.0, 7.0, 90.0)
        b = GeodeticUkf.from_first_measurement(z, timestamp=3.0).belief
        assert b.mean.as_vector() == pytest.approx(z.z, abs=1e-12)
        assert b.timestamp == 3.0
        assert np.all(np.diag(b.cov) <= np.diag(R_DEFAULT))

    def test_position_only_birth_keeps_wide_kinematics(self):
        z = Measurement.from_fields(lon=-71.0, lat=42.0)
        b = GeodeticUkf.from_first_measurement(z).belief
        assert np.all(np.diag(b.cov)[:2] <= np.diag(R_DEFAULT)[:2])
        assert np.diag(b.cov)[2:] == pytest.approx(np.diag(INITIAL_COV)[2:],
                                                  rel=1e-12)


class TestStackedPredict:
    """One stacked predict equals a separate single-belief predict per row."""

    row = st.tuples(
        st.floats(-1.0, 1.0),                      # lon offset from the dateline
        st.floats(-89.0, 89.0),                    # lat
        st.floats(0.0, 15.0),                      # SOG
        st.floats(0.0, 359.999),                   # COG
        st.lists(st.booleans(), min_size=4, max_size=4),  # update mask
        st.floats(0.0, 1.0, exclude_min=True),     # dt
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(row, min_size=1, max_size=8))
    def test_stack_equals_single_rows(self, rows):
        filters, dts = [], []
        for dlon, lat, sog, cog, mask, dt in rows:
            lon = 180.0 + dlon if dlon < 0 else -180.0 + dlon
            filt = GeodeticUkf.from_first_measurement(
                Measurement.full(lon, lat, sog, cog))
            # a masked report moves the belief off its birth state first
            z = np.array([lon + 1e-5, lat - 1e-5, sog + 0.3, (cog + 2.0) % 360.0])
            filt.update(Measurement(z, np.array(mask)))
            filters.append(filt)
            dts.append(dt)
        mean = np.array([f.belief.mean.as_vector() for f in filters])
        cov = np.array([f.belief.cov for f in filters])
        dt = np.array(dts)
        q = build_process_noise(mean[:, 1], mean[:, 3], dt)
        stacked_mean, stacked_cov = predict_arrays(mean, cov, dt, q)
        for filt, d, m, c in zip(filters, dts, stacked_mean, stacked_cov):
            filt.predict(d)
            single = filt.belief
            diff = single.mean.as_vector() - normalize_state(m.copy())
            diff[[0, 3]] = (diff[[0, 3]] + 180.0) % 360.0 - 180.0
            assert np.all(np.abs(diff) <= 1e-12)
            assert np.all(np.abs(single.cov - c) <= 1e-12 * np.abs(single.cov).max())

    def test_non_finite_covariance_cannot_be_factored(self):
        b = belief(cov=np.full((4, 4), np.nan))
        with pytest.raises(FactorizationFailure):
            predict_arrays(b.mean.as_vector(), b.cov, 1.0, np.zeros((4, 4)))
