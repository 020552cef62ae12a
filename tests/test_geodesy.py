import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from geotrack.cli import sphere_error_rows
from geotrack.geodesy import (
    DomainError,
    GeoPoint,
    MEAN_EARTH_RADIUS_M,
    NonConvergenceError,
    great_circle_inverse,
    normalize_lon,
    propagate_sphere_arrays,
    sample_uniform_sphere_arrays,
    tangent_plane_separation_error,
    vincenty_direct,
    vincenty_direct_arrays,
    vincenty_inverse,
    wrap_bearing,
)
from geotrack.sim import _position_error_m

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
R = MEAN_EARTH_RADIUS_M
ONE_DEGREE_ARC = R * math.pi / 180.0

lons = st.floats(-180.0, 179.999999)
lats = st.floats(-89.0, 89.0)
bearings = st.floats(0.0, 359.999999)
finite = st.floats(allow_nan=False, allow_infinity=False)


def meters_between(p1: GeoPoint, p2: GeoPoint) -> float:
    d, _ = great_circle_inverse(p1, p2)
    return d


def propagate(p: GeoPoint, bearing: float, dist: float) -> GeoPoint:
    return GeoPoint(*map(float, propagate_sphere_arrays(p.lon, p.lat, bearing, dist)))


class TestGeoPoint:
    def test_lon_normalized(self):
        assert GeoPoint(190.0, 10.0).lon == -170.0
        assert GeoPoint(-180.0, 0.0).lon == -180.0
        assert GeoPoint(180.0, 0.0).lon == -180.0

    def test_lat_bounds(self):
        with pytest.raises(DomainError):
            GeoPoint(0.0, 90.5)

    def test_lon_must_be_finite(self):
        for lon in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="longitude"):
                GeoPoint(lon, 42.0)

    def test_normalize_lon_half_open(self):
        assert normalize_lon(180.0) == -180.0
        assert normalize_lon(-540.0) == -180.0
        assert normalize_lon(359.0) == -1.0


# a tiny negative angle rounds to the top of the range under one `% 360.0`
SEAM = [-1e-14, -1e-300, -180.00000000000003]


class TestAngleWraps:
    @given(finite)
    @example(SEAM[0])
    @example(SEAM[2])
    def test_scalar_in_half_open_range(self, x):
        assert 0.0 <= wrap_bearing(x) < 360.0
        assert -180.0 <= normalize_lon(x) < 180.0

    @given(st.lists(finite, min_size=1, max_size=16))
    @example(SEAM)
    def test_array_in_half_open_range(self, xs):
        bearing, lon = wrap_bearing(np.array(xs)), normalize_lon(np.array(xs))
        assert ((0.0 <= bearing) & (bearing < 360.0)).all()
        assert ((-180.0 <= lon) & (lon < 180.0)).all()

    @given(st.floats(-1e9, 1e9))
    def test_wraps_keep_the_angle(self, x):
        for wrapped in (wrap_bearing(x), normalize_lon(x)):
            assert math.remainder(wrapped - x, 360.0) == pytest.approx(0.0, abs=1e-6)


class TestPropagateSphere:
    def test_meridional_one_degree(self):
        lon, lat = propagate_sphere_arrays(0.0, 0.0, 0.0, ONE_DEGREE_ARC)
        assert lat == pytest.approx(1.0, abs=1e-12)
        assert lon == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_one_degree(self):
        lon, lat = propagate_sphere_arrays(0.0, 0.0, 90.0, ONE_DEGREE_ARC)
        assert lon == pytest.approx(1.0, abs=1e-12)
        assert lat == pytest.approx(0.0, abs=1e-9)

    @given(lons, lats, bearings)
    def test_zero_distance_identity(self, lon, lat, bearing):
        out_lon, out_lat = propagate_sphere_arrays(lon, lat, bearing, 0.0)
        assert out_lon == pytest.approx(lon, abs=1e-12)
        assert out_lat == pytest.approx(lat, abs=1e-12)

    @given(lons, lats, bearings, st.floats(0.1, 200.0),
           st.floats(-360.0, 360.0))
    def test_longitude_shift_invariance(self, lon, lat, bearing, dist, shift):
        base_lon, base_lat = propagate_sphere_arrays(lon, lat, bearing, dist * 1000.0)
        moved_lon, moved_lat = propagate_sphere_arrays(normalize_lon(lon + shift), lat,
                                                       bearing, dist * 1000.0)
        dlon = (moved_lon - base_lon - shift + 180.0) % 360.0 - 180.0
        assert abs(dlon) < 1e-9
        assert moved_lat == pytest.approx(base_lat, abs=1e-12)

    @given(lons, st.floats(-80.0, 80.0), bearings, st.floats(0.0, 1e6))
    @example(179.9999, 0.0, 90.0, 50.0)
    def test_negative_distance_travels_reverse_bearing(self, lon, lat, bearing, dist):
        # the UKF passes a sigma point's negative SOG * dt straight through
        back_lon, back_lat = propagate_sphere_arrays(lon, lat, bearing, -dist)
        rev_lon, rev_lat = propagate_sphere_arrays(lon, lat, bearing + 180.0, dist)
        assert abs(normalize_lon(back_lon - rev_lon)) < 1e-9
        assert abs(back_lat - rev_lat) < 1e-9

    def test_short_arcs_near_vincenty(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = GeoPoint(float(rng.uniform(-180, 180)),
                         float(rng.uniform(-80, 80)))
            bearing = float(rng.uniform(0, 360))
            dist = float(rng.uniform(0.1, 200.0))
            sph = propagate(p, bearing, dist)
            ell = vincenty_direct(p, bearing, dist).destination
            # compare on the ellipsoid-scale metric
            err = meters_between(sph, ell)
            assert err < 1.3  # worst case ~0.56% of 200 m, plus slack

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        lon = rng.uniform(-180, 180, 50)
        lat = rng.uniform(-85, 85, 50)
        brg = rng.uniform(0, 360, 50)
        dist = rng.uniform(0, 5e5, 50)
        vlon, vlat = propagate_sphere_arrays(lon, lat, brg, dist)
        for i in range(50):
            # a call on 0-d arrays gives the array call's bits
            zero_d = (np.array(lon[i]), np.array(lat[i]), np.array(brg[i]), np.array(dist[i]))
            assert propagate_sphere_arrays(*zero_d) == (vlon[i], vlat[i])
            # and so does a call on Python floats
            floats = (float(lon[i]), float(lat[i]), float(brg[i]), float(dist[i]))
            assert propagate_sphere_arrays(*floats) == (vlon[i], vlat[i])
        # one start point broadcasts against arrays of bearings and distances
        blon, blat = propagate_sphere_arrays(lon[0], lat[0], brg, dist)
        assert blon.shape == blat.shape == (50,)
        for i in range(50):
            assert propagate_sphere_arrays(lon[0], lat[0], brg[i], dist[i]) == (blon[i], blat[i])


class TestVincenty:
    def test_zero_distance(self):
        p = GeoPoint(-71.0, 42.0)
        sol = vincenty_direct(p, 123.0, 0.0)
        assert sol.destination.lon == pytest.approx(p.lon, abs=1e-12)
        assert sol.destination.lat == pytest.approx(p.lat, abs=1e-12)

    def test_direct_inverse_round_trip_random(self):
        rng = np.random.default_rng(11)
        n = 10000
        lon = rng.uniform(-180, 180, n)
        lat = np.degrees(np.arcsin(rng.uniform(-0.98, 0.98, n)))
        brg = rng.uniform(0, 360, n)
        dist = np.exp(rng.uniform(np.log(1.0), np.log(3.0e6), n))
        dlon, dlat, _ = vincenty_direct_arrays(lon, lat, brg, dist)
        for i in range(0, n, 37):
            d_back, b_back = vincenty_inverse(GeoPoint(lon[i], lat[i]),
                                              GeoPoint(dlon[i], dlat[i]))
            assert d_back == pytest.approx(dist[i], rel=1e-9, abs=1e-6)
            db = (b_back - brg[i] + 180.0) % 360.0 - 180.0
            assert abs(db) < 1e-6 or dist[i] < 1.0

    @given(st.lists(st.tuples(lons, lats, bearings, st.floats(0.0, 1.9e7)),
                    min_size=1, max_size=8))
    def test_direct_arrays_match_elementwise(self, rows):
        # each element stops iterating on its own, so its batch changes no bit
        lon, lat, brg, dist = map(np.array, zip(*rows))
        batch = vincenty_direct_arrays(lon, lat, brg, dist)
        for i, row in enumerate(rows):
            alone = np.array(vincenty_direct_arrays(*row))
            assert np.array([out[i] for out in batch]).tobytes() == alone.tobytes()

    def test_final_bearing_just_west_of_north_wraps_to_zero(self):
        # a tiny negative bearing modulo 360 rounds to 360.0, which is north
        assert vincenty_direct(GeoPoint(-71.0, 42.0), -1e-20, 5000.0).final_bearing == 0.0
        _, _, final = vincenty_direct_arrays(np.full(2, -71.0), np.full(2, 42.0),
                                             np.array([-1e-20, -5e-324]), np.full(2, 5000.0))
        assert final.tolist() == [0.0, 0.0]

    def test_against_ode_oracle_vectors(self):
        with open(os.path.join(DATA_DIR, "geodesic_vectors.json")) as fh:
            vectors = json.load(fh)
        for case in vectors["cases"]:
            sol = vincenty_direct(GeoPoint(case["lon1"], case["lat1"]),
                                  case["bearing_deg"], case["distance_m"])
            dlat = (sol.destination.lat - case["lat2"]) * 111319.5
            dlon = ((sol.destination.lon - case["lon2"] + 180) % 360 - 180) \
                * 111319.5 * math.cos(math.radians(case["lat2"]))
            assert math.hypot(dlon, dlat) < 1e-3  # < 1 mm

    def test_inverse_equatorial_degree(self):
        d, b = vincenty_inverse(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        # one degree of the equator on WGS84
        assert d == pytest.approx(111319.4908, abs=1e-3)
        assert b == pytest.approx(90.0, abs=1e-9)

    def test_inverse_coincident_points(self):
        for p in (GeoPoint(-71.0, 42.0), GeoPoint(0.0, 90.0), GeoPoint(-180.0, -90.0)):
            assert vincenty_inverse(p, p) == (0.0, 0.0)
        assert vincenty_inverse(GeoPoint(180.0, 10.0), GeoPoint(-180.0, 10.0)) == (0.0, 0.0)

    def test_inverse_antipodal_raises_and_scoring_falls_back(self):
        p1, p2 = GeoPoint(0.0, 0.0), GeoPoint(180.0, 0.0)
        with pytest.raises(NonConvergenceError):
            vincenty_inverse(p1, p2)
        assert _position_error_m(0.0, 0.0, 180.0, 0.0) == great_circle_inverse(p1, p2)[0]

    def test_inverse_symmetric(self):
        p1 = GeoPoint(-71.0, 42.0)
        p2 = GeoPoint(-66.3, 44.7)
        d12, _ = vincenty_inverse(p1, p2)
        d21, _ = vincenty_inverse(p2, p1)
        assert d12 == pytest.approx(d21, rel=1e-9)


class TestUniformSampler:
    def test_mean_sin_lat_near_zero(self):
        _, lat = sample_uniform_sphere_arrays(100000, 1)
        assert abs(np.mean(np.sin(np.radians(lat)))) < 0.01

    def test_half_mass_below_30deg(self):
        _, lat = sample_uniform_sphere_arrays(100000, 2)
        assert np.mean(np.abs(lat) < 30.0) == pytest.approx(0.5, abs=0.01)

    def test_deterministic(self):
        a = sample_uniform_sphere_arrays(3, 42)
        b = sample_uniform_sphere_arrays(3, 42)
        np.testing.assert_array_equal(a, b)


class TestSphericalErrorStatistics:
    def test_normalized_error_band(self):
        # reduced-size version of the full acceptance study
        pct = sphere_error_rows(20000, seed=5)[:, 4]
        assert pct.max() <= 0.58
        assert np.percentile(pct, 75) <= 0.43

    def test_cardinal_bearings_within_band(self):
        # 100 km arcs at any cardinal bearing stay inside the 0.58% band
        for lat in (0.0, 20.0, 45.0):
            p = GeoPoint(10.0, lat)
            for bearing in (0.0, 90.0, 180.0, 270.0):
                sph = propagate(p, bearing, 1e5)
                ell = vincenty_direct(p, bearing, 1e5).destination
                assert meters_between(sph, ell) < 0.0058 * 1e5


class TestTangentPlaneError:
    def test_coincident_points(self):
        _, _, eps = tangent_plane_separation_error(5e4, 5e4, 0.0)
        assert eps == pytest.approx(0.0, abs=1e-9)

    def test_100km_opposite_bearings_bound(self):
        _, _, eps = tangent_plane_separation_error(100e3, 100e3, math.pi)
        assert eps < 8.3

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tangent_plane_separation_error(7e6, 1e3, 1.0)

    def test_delta_l_endpoints(self):
        dl0, _, _ = tangent_plane_separation_error(8e4, 3e4, 0.0)
        dlpi, _, _ = tangent_plane_separation_error(8e4, 3e4, math.pi)
        assert dl0 == pytest.approx(5e4, rel=1e-12)
        assert dlpi == pytest.approx(11e4, rel=1e-12)

    @given(st.floats(0.0, 3e5), st.floats(0.0, 3e5), st.floats(0.0, math.pi))
    def test_epsilon_nonnegative(self, l1, l2, gamma):
        # the geodesic between the lifted points can never be shorter than
        # the planar chord, so epsilon is nonnegative up to rounding
        _, _, eps = tangent_plane_separation_error(l1, l2, gamma)
        assert eps >= -1e-9

    def test_monotone_in_gamma_for_large_gamma(self):
        # the error surface is monotone in the in-plane angle over its
        # upper range; near zero it can dip slightly when radii are close
        gammas = np.linspace(2.0, math.pi, 12)
        for l1, l2 in [(8e4, 3e4), (1e5, 1e5), (2e4, 9e4)]:
            eps = [tangent_plane_separation_error(l1, l2, float(g))[2]
                   for g in gammas]
            assert all(b >= a - 1e-9 for a, b in zip(eps, eps[1:]))


class TestBearingsAndInverse:
    def test_great_circle_inverse_equator(self):
        d, b = great_circle_inverse(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert d == pytest.approx(ONE_DEGREE_ARC, rel=1e-12)
        assert b == pytest.approx(90.0, abs=1e-9)
