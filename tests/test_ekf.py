import math

import numpy as np
import pytest

from geotrack.ekf import (
    DEFAULT_P0,
    DEFAULT_Q,
    DEFAULT_R,
    PlanarEkf,
    TangentPlane,
    geodetic_to_ecef,
    geodetic_to_ned,
    measurement_to_planar,
    ned_to_geodetic,
    planar_dynamics,
    planar_jacobian,
)
from geotrack.geodesy import (DomainError, GeoPoint, great_circle_inverse,
                              tangent_plane_separation_error, vincenty_direct,
                              vincenty_inverse)
from geotrack.ukf import Measurement


def meters_between(p1: GeoPoint, p2: GeoPoint) -> float:
    d, _ = great_circle_inverse(p1, p2)
    return d

PLANE = TangentPlane(GeoPoint(-71.0237, 42.3469))  # Boston Harbor


class TestEcef:
    def test_round_trip(self):
        # a plane's own origin maps back through the closed-form surface latitude
        for lon, lat in [(-71.0, 42.3), (0.0, 0.0), (179.5, -65.0), (10.0, 88.0)]:
            back = ned_to_geodetic(0.0, 0.0, TangentPlane(GeoPoint(lon, lat)))
            assert back.lon == pytest.approx(lon, abs=1e-11)
            assert back.lat == pytest.approx(lat, abs=1e-11)

    def test_equator_prime_meridian(self):
        ecef = geodetic_to_ecef(GeoPoint(0.0, 0.0))
        assert ecef[0] == pytest.approx(6378137.0, abs=1e-6)
        assert ecef[1] == pytest.approx(0.0, abs=1e-9)
        assert ecef[2] == pytest.approx(0.0, abs=1e-9)


class TestTangentPlaneFrame:
    def test_origin_maps_to_zero(self):
        n, e = geodetic_to_ned(PLANE.origin, PLANE)
        assert abs(n) < 1e-9 and abs(e) < 1e-9

    def test_round_trip_small_offsets(self):
        # offsets up to 1 000 km, small beside the Earth's radius
        rng = np.random.default_rng(3)
        for lon, lat in [(-71.0237, 42.3469), (0.0, 0.0), (179.5, -65.0), (10.0, 88.0)]:
            plane = TangentPlane(GeoPoint(lon, lat))
            for _ in range(50):
                bearing = rng.uniform(0, 360)
                dist = rng.uniform(0, 1e6)
                p = vincenty_direct(plane.origin, bearing, dist).destination
                n, e = geodetic_to_ned(p, plane)
                back = ned_to_geodetic(n, e, plane)
                assert back.lon == pytest.approx(p.lon, abs=1e-9)
                assert back.lat == pytest.approx(p.lat, abs=1e-9)

    def test_beyond_the_limb_is_a_domain_error(self):
        # 7 000 km north along the plane has no surface point below it
        with pytest.raises(DomainError):
            ned_to_geodetic(7e6, 0.0, PLANE)

    def test_north_axis_alignment(self):
        p = vincenty_direct(PLANE.origin, 0.0, 1000.0).destination
        n, e = geodetic_to_ned(p, PLANE)
        assert n == pytest.approx(1000.0, abs=0.5)
        assert abs(e) < 0.5

    def test_east_axis_alignment(self):
        p = vincenty_direct(PLANE.origin, 90.0, 1000.0).destination
        n, e = geodetic_to_ned(p, PLANE)
        assert e == pytest.approx(1000.0, abs=0.5)
        assert abs(n) < 0.5

    def test_projection_shrinks_chords(self):
        # the planar image of a geodesic arc is the chord, which is shorter
        for dist in (1e4, 5e4, 1e5):
            p = vincenty_direct(PLANE.origin, 45.0, dist).destination
            n, e = geodetic_to_ned(p, PLANE)
            plane_len = math.hypot(n, e)
            assert plane_len < dist
            assert dist - plane_len < 25.0  # sub-dm at 10 km, ~13 m at 100 km

    def test_separation_error_formula_predicts_distortion(self):
        # two points on opposite bearings: planar separation understates the
        # geodesic separation by approximately the small-angle error model
        for dist in (3e4, 6e4, 1e5):
            p1 = vincenty_direct(PLANE.origin, 0.0, dist).destination
            p2 = vincenty_direct(PLANE.origin, 180.0, dist).destination
            n1, e1 = geodetic_to_ned(p1, PLANE)
            n2, e2 = geodetic_to_ned(p2, PLANE)
            plane_sep = math.hypot(n1 - n2, e1 - e2)
            geo_sep, _ = vincenty_inverse(p1, p2)
            l1 = math.hypot(n1, e1)
            l2 = math.hypot(n2, e2)
            _, _, eps = tangent_plane_separation_error(l1, l2, math.pi)
            assert geo_sep - plane_sep == pytest.approx(eps, rel=0.10)


class TestPlanarDynamics:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = np.array([rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4),
                          rng.uniform(0.1, 15.0), rng.uniform(-math.pi, math.pi)])
            jac = planar_jacobian(x)
            h = 1e-6
            for j in range(4):
                dx = np.zeros(4)
                dx[j] = h
                col = (planar_dynamics(x + dx) - planar_dynamics(x - dx)) / (2 * h)
                assert np.allclose(jac[:, j], col, rtol=1e-6, atol=1e-6)

    def test_zero_speed_is_stationary(self):
        x = np.array([100.0, 200.0, 0.0, 1.0])
        assert np.allclose(planar_dynamics(x), 0.0)

    def test_predict_moves_along_course(self):
        f = PlanarEkf([0.0, 0.0, 10.0, math.pi / 2], PLANE)  # due East
        f.predict(5.0)
        assert f.x[0] == pytest.approx(0.0, abs=1e-9)
        assert f.x[1] == pytest.approx(50.0, rel=1e-12)

    def test_predict_grows_covariance(self):
        f = PlanarEkf([0.0, 0.0, 5.0, 0.3], PLANE)
        f.predict(2.0)
        assert np.trace(f.p) > np.trace(DEFAULT_P0)
        assert np.allclose(f.p, f.p.T)


def planar_fix(north: float, east: float, sog: float, course: float,
               mask) -> Measurement:
    """Geodetic measurement that maps to (north, east, sog, course rad) on
    PLANE; position fields are set only where ``mask`` has them."""
    g = ned_to_geodetic(north, east, PLANE) if mask[0] else GeoPoint(0.0, 0.0)
    return Measurement(np.array([g.lon, g.lat, sog, math.degrees(course)]),
                       np.array(mask, dtype=bool))


class TestEkfUpdate:
    def test_exact_measurement_moves_toward_it(self):
        f = PlanarEkf([0.0, 0.0, 5.0, 0.0], PLANE)
        f.update(planar_fix(10.0, -4.0, 6.0, 0.2, [True] * 4))
        assert 0.0 < f.x[0] < 10.0
        assert -4.0 < f.x[1] < 0.0
        assert np.all(np.diag(f.p) < np.diag(DEFAULT_P0))

    def test_course_seam(self):
        f = PlanarEkf([0.0, 0.0, 5.0, 0.05], PLANE)
        f.update(planar_fix(0.0, 0.0, 5.0, 2 * math.pi - 0.05,
                            [False, False, False, True]))
        # the residual wraps: the posterior course moves below zero, not up
        assert f.x[3] < 0.05

    def test_masked_states_untouched(self):
        # a field that is masked, or not finite under a true mask, is not measured
        fix = planar_fix(10.0, 20.0, 0.0, 0.0, [True, True, False, False])
        lon, lat = fix.z[:2]
        for z in [fix] + [Measurement([lon, lat, bad, bad], [True] * 4)
                          for bad in (math.nan, math.inf, -math.inf)]:
            f = PlanarEkf([1.0, 2.0, 5.0, 0.3], PLANE)
            f.p = np.diag([1.0, 1.0, 1.0, 1.0])
            f.update(z)
            assert f.x[2] == pytest.approx(5.0, abs=1e-12)
            assert f.x[3] == pytest.approx(0.3, abs=1e-12)


class TestMeasurementMapping:
    def test_full_measurement(self):
        p = vincenty_direct(PLANE.origin, 30.0, 5000.0).destination
        z = Measurement.full(p.lon, p.lat, 7.0, 123.0)
        pm = measurement_to_planar(z, PLANE)
        assert pm.mask.all()
        assert math.hypot(pm.z[0], pm.z[1]) == pytest.approx(5000.0, abs=1.0)
        assert pm.z[2] == 7.0
        assert pm.z[3] == pytest.approx(math.radians(123.0), rel=1e-12)

    def test_position_requires_both_coordinates(self):
        for z in (Measurement.from_fields(lon=-71.0, sog=3.0),
                  Measurement([-71.0, math.nan, 3.0, math.nan], [True] * 4)):
            pm = measurement_to_planar(z, PLANE)
            assert pm.mask.tolist() == [False, False, True, False]


class TestPlanarEkfDefaults:
    def test_default_tuning(self):
        f = PlanarEkf(np.zeros(4), PLANE)
        assert np.allclose(f.p, 0.1 * np.eye(4))
        assert np.allclose(np.diag(DEFAULT_Q), [0.01, 0.01, 0.1, 0.1])
        assert np.allclose(np.diag(DEFAULT_R), [1e-3, 1e-3, 1e-3, 1e-2])

    def test_from_first_measurement_recovers_position(self):
        p = vincenty_direct(PLANE.origin, 200.0, 2500.0).destination
        f = PlanarEkf.from_first_measurement(Measurement.full(p.lon, p.lat, 6.0, 200.0),
                                             PLANE)
        est = f.geodetic_position()
        assert meters_between(est, p) < 0.01
        assert f.cog_deg == pytest.approx(200.0, rel=1e-9)

    def test_tracking_straight_run(self):
        # drive the filter with noiseless planar-consistent measurements
        course = math.radians(45.0)
        f = PlanarEkf([0.0, 0.0, 7.0, course], PLANE)
        for k in range(1, 30):
            f.predict(1.0)
            n = 7.0 * k * math.cos(course)
            e = 7.0 * k * math.sin(course)
            g = ned_to_geodetic(n, e, PLANE)
            f.update(Measurement.full(g.lon, g.lat, 7.0, 45.0))
        assert f.x[0] == pytest.approx(7.0 * 29 * math.cos(course), abs=0.1)
        assert f.x[2] == pytest.approx(7.0, abs=0.01)
