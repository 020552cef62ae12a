import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotrack._linalg import SingularInnovation, masked_joseph_update, project_psd, symmetrize
from geotrack.geodesy import GeoPoint, great_circle_inverse, propagate_sphere_arrays
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

    def test_state_course_below_360(self):
        assert GeodeticState(0.0, 0.0, 1.0, -1e-20).cog == 0.0

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

    def test_non_finite_dt_rejected(self):
        # a dt <= 0 leaves its belief as it is; a dt that is not finite is an error
        b = belief()
        single = GeodeticUkf(b.mean.as_vector(), b.cov)
        stack = GeodeticUkf(np.tile(b.mean.as_vector(), (3, 1)), b.cov)
        for dt in (math.nan, math.inf, -math.inf):
            for filt, step in ((single, dt), (stack, [1.0, dt, 1.0]), (stack, dt)):
                with pytest.raises(ValueError, match="dt"):
                    filt.predict(step)
        assert single.time == 0.0 and np.array_equal(single.mean, b.mean.as_vector())
        assert np.array_equal(stack.time, np.zeros(3))
        stack.predict([1.0, 0.0, -1.0])
        assert np.array_equal(stack.time, [1.0, 0.0, 0.0])
        assert np.array_equal(stack.mean[1:], np.tile(b.mean.as_vector(), (2, 1)))

    def test_monte_carlo_push_forward_oracle(self):
        """Unscented moments vs a large direct sample of the process model."""
        cov = np.diag([1e-10, 1e-10, 0.04, 4.0])
        b = belief(lon=-70.8, lat=42.2, sog=7.0, cog=63.0, cov=cov)
        mean, out_cov = predict_arrays(b.mean.as_vector(), cov, 6.0, np.zeros((4, 4)))

        # mean of a tight prior must track the deterministic propagation
        det_lon, det_lat = propagate_sphere_arrays(-70.8, 42.2, 63.0, 42.0)
        dist_m = math.hypot((mean[1] - det_lat) * 111319.5,
                            (mean[0] - det_lon) * 111319.5
                            * math.cos(math.radians(det_lat)))
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
        for z in (Measurement(np.zeros(4), np.zeros(4, dtype=bool)),
                  Measurement(np.full(4, math.nan))):
            out = update(b, z, R_DEFAULT)
            assert np.allclose(out.mean.as_vector(), b.mean.as_vector(), atol=0.0)
            assert np.allclose(out.cov, b.cov, atol=1e-12)

    def test_report_shape_must_match_the_stack(self):
        # one report is not fused into every belief of a stack
        mean = np.array([[-60.0, 40.0, 5.0, 90.0], [10.0, 10.0, 5.0, 90.0],
                         [-70.0, 42.0, 5.0, 90.0]])
        filt = GeodeticUkf(mean, INITIAL_COV)
        for z in (Measurement.full(-70.0, 42.0, 5.0, 90.0), Measurement(np.zeros((2, 4)))):
            with pytest.raises(ValueError):
                filt.update(z)
        assert np.array_equal(filt.mean, mean)

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

    @staticmethod
    def h_form_update(p, residual, r):
        """The Joseph update with H = diag(mask) built and multiplied out."""
        mask = np.isfinite(residual)
        eye = np.eye(p.shape[-1])
        h = mask[..., None] * eye
        ht = h.swapaxes(-1, -2)
        k = p @ ht @ np.linalg.inv(h @ p @ ht + r)
        ikh = eye - k @ h
        p_post = ikh @ p @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2)
        y = np.where(mask, residual, 0.0)
        return (k @ y[..., None])[..., 0], symmetrize(p_post)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(), (1,), (5,)]))
    def test_masked_update_equals_the_h_form(self, seed, stack):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=stack + (4, 4)) * 10.0 ** rng.integers(-6, 4)
        # a covariance, a signed and indefinite symmetric matrix, or neither
        p = (a @ a.swapaxes(-1, -2), symmetrize(a), a)[seed % 3]
        p = np.where(rng.random(p.shape) < 0.2, -0.0, p)
        residual = rng.normal(size=stack + (4,))
        residual[rng.random(residual.shape) < 0.4] = np.nan
        r = np.diag(rng.random(4) + 1e-3)
        if seed % 2:
            r[r == 0.0] = -0.0
        try:
            want = self.h_form_update(p, residual, r)
        except np.linalg.LinAlgError:
            with pytest.raises(SingularInnovation):
                masked_joseph_update(p, residual, r)
            return
        got = masked_joseph_update(p, residual, r)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


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
        # a field that is not finite is missing, under a true mask too
        reports = [Measurement.from_fields(lon=-70.5, lat=41.8, sog=missing, cog=missing)
                   for missing in (None, math.nan)]
        reports += [Measurement([-70.5, 41.8, missing, missing], [True] * 4)
                    for missing in (math.nan, math.inf, -math.inf)]
        for z in reports:
            assert z.mask.tolist() == [True, True, False, False]
            b = GeodeticUkf.from_first_measurement(z).belief
            assert b.mean.as_vector()[:2] == pytest.approx([-70.5, 41.8])
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

    # a belief at both seams: lon within 1e-9 of the dateline, course at 0 or
    # just below 360, and SOG 0 with a wide spread, so that some sigma points
    # have a negative SOG and travel the reversed bearing
    seam_row = st.tuples(
        st.sampled_from([-180.0, 180.0]), st.floats(-1e-9, 1e-9),  # lon
        st.floats(-60.0, 60.0),                                     # lat
        st.one_of(st.just(0.0), st.just(math.nextafter(360.0, 0.0)),
                  st.floats(359.999, 360.0, exclude_max=True)),     # COG
        st.floats(0.01, 25.0),                                      # SOG std
        st.floats(0.01, 2.0),                                       # dt
    )

    @settings(max_examples=80, deadline=None)
    @given(st.lists(seam_row, min_size=1, max_size=6))
    def test_predicted_states_stay_in_range_at_the_seams(self, rows):
        mean = np.array([[edge + off, lat, 0.0, cog] for edge, off, lat, cog, _, _ in rows])
        mean = normalize_state(mean)
        cov = np.array([np.diag([1e-9, 1e-9, sd ** 2, 4.0]) for *_, sd, _ in rows])
        assert np.all(sigma_points(mean, cov).points[..., 2].min(axis=-1) < 0.0)
        stacked = GeodeticUkf(mean, cov)
        stacked.predict(np.array([dt for *_, dt in rows]))
        single = GeodeticUkf(mean[0], cov[0])
        single.predict(rows[0][-1])
        for out in (stacked.mean, single.mean):
            lon, sog, cog = out[..., 0], out[..., 2], out[..., 3]
            assert np.all((-180.0 <= lon) & (lon < 180.0))
            assert np.all((0.0 <= cog) & (cog < 360.0))
            assert np.all(sog >= 0.0)
            # the predict already leaves each state as normalize_state would
            again = normalize_state(out.copy())
            assert np.array_equal(again.view(np.int64), out.view(np.int64))

    def test_non_finite_covariance_cannot_be_factored(self):
        b = belief(cov=np.full((4, 4), np.nan))
        with pytest.raises(FactorizationFailure):
            predict_arrays(b.mean.as_vector(), b.cov, 1.0, np.zeros((4, 4)))
        for bad in (math.nan, math.inf):  # nor projected onto the PSD cone
            cov = np.eye(4)
            cov[2, 2] = bad
            with pytest.raises(FactorizationFailure):
                project_psd(np.stack([np.eye(4), cov]))
