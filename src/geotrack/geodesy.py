"""Geometric kernels: great-circle propagation, Vincenty geodesics, sphere sampling.

All functions here are pure; longitude is normalized to [-180, 180) at the
operation boundary, never mid-computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MEAN_EARTH_RADIUS_M = 6.371e6
WGS84_SEMI_MAJOR_M = 6378137.0
WGS84_FLATTENING = 1.0 / 298.257223563
WGS84_E2 = WGS84_FLATTENING * (2.0 - WGS84_FLATTENING)  # first eccentricity squared

VINCENTY_TOL_RAD = 1e-12
VINCENTY_MAX_ITER = 200


class GeotrackError(Exception):
    """A failure that ends a run: one ``label: message`` line, then ``exit_code``."""
    exit_code, label = 3, "numerical failure"  # cli.EXIT_NUMERIC


class DomainError(GeotrackError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NonConvergenceError(GeotrackError):
    """Iterative geodesic solution failed to converge (near-antipodal input)."""


def normalize_lon(lon_deg: float) -> float:
    """Wrap a longitude, or an array of them, into [-180, 180)."""
    return wrap_bearing(lon_deg + 180.0) - 180.0


def wrap_bearing(bearing_deg: float) -> float:
    """Wrap a bearing, or an array of them, into [0, 360)."""
    wrapped = bearing_deg % 360.0
    # a tiny negative bearing rounds up to 360.0, which is 0
    return wrapped * (wrapped < 360.0)


@dataclass(frozen=True)
class GeoPoint:
    """Geodetic position: degrees East in [-180, 180), degrees North in [-90, 90]."""

    lon: float
    lat: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise DomainError(f"latitude {self.lat} outside [-90, 90]")
        object.__setattr__(self, "lon", normalize_lon(self.lon))


@dataclass(frozen=True)
class GeodesicSolution:
    destination: GeoPoint
    final_bearing: float


# ---------------------------------------------------------------------------
# Spherical propagation
# ---------------------------------------------------------------------------

def propagate_sphere_arrays(lon_deg, lat_deg, bearing_deg, distance_m):
    """Vectorized great-circle propagation on the mean-radius sphere; a
    negative distance travels the reverse bearing. Returns (lon, lat) in degrees."""
    lat = np.radians(lat_deg)
    brg = np.radians(bearing_deg)
    c = np.asarray(distance_m, dtype=float) / MEAN_EARTH_RADIUS_M
    sin_c, cos_c = np.sin(c), np.cos(c)
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    cos_brg = np.cos(brg)

    sin_lat2 = sin_lat * cos_c + cos_lat * sin_c * cos_brg
    lat2 = np.arcsin(sin_lat2.clip(-1.0, 1.0))  # the method skips np.clip's dispatch
    dlon = np.arctan2(sin_c * np.sin(brg),
                      cos_lat * cos_c - sin_lat * sin_c * cos_brg)
    lon2 = normalize_lon(np.asarray(lon_deg, dtype=float) + np.degrees(dlon))
    return lon2, np.degrees(lat2)


def great_circle_inverse(p1: GeoPoint, p2: GeoPoint) -> tuple[float, float]:
    """Great-circle distance (m) and initial bearing (deg) from p1 to p2.

    Haversine form: well-conditioned at short range, unlike the raw law of
    cosines.  Serves as the fallback when Vincenty's inverse fails to converge.
    """
    lat1, lat2 = math.radians(p1.lat), math.radians(p2.lat)
    dlat = lat2 - lat1
    dlon = math.radians(normalize_lon(p2.lon - p1.lon))
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    dist = 2.0 * MEAN_EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))
    brg = math.atan2(math.sin(dlon) * math.cos(lat2),
                     math.cos(lat1) * math.sin(lat2)
                     - math.sin(lat1) * math.cos(lat2) * math.cos(dlon))
    return dist, wrap_bearing(math.degrees(brg))


# ---------------------------------------------------------------------------
# Vincenty direct / inverse (ellipsoid)
# ---------------------------------------------------------------------------

def vincenty_direct_arrays(lon_deg, lat_deg, bearing_deg, distance_m):
    """Vectorized Vincenty direct problem on WGS84.

    Returns (lon, lat, final_bearing, iterations) in degrees; iterations is the
    per-element count before |dsigma| < 1e-12.
    """
    lon1 = np.asarray(lon_deg, dtype=float)
    lat1 = np.radians(np.asarray(lat_deg, dtype=float))
    alpha1 = np.radians(np.asarray(bearing_deg, dtype=float))
    s = np.asarray(distance_m, dtype=float)
    lon1, lat1, alpha1, s = np.broadcast_arrays(lon1, lat1, alpha1, s)

    a, f = WGS84_SEMI_MAJOR_M, WGS84_FLATTENING
    b = a * (1.0 - f)
    tan_u1 = (1.0 - f) * np.tan(lat1)
    cos_u1 = 1.0 / np.sqrt(1.0 + tan_u1 ** 2)
    sin_u1 = tan_u1 * cos_u1

    sigma1 = np.arctan2(tan_u1, np.cos(alpha1))
    sin_alpha = cos_u1 * np.sin(alpha1)
    cos2_alpha = 1.0 - sin_alpha ** 2
    u2 = cos2_alpha * (a * a - b * b) / (b * b)
    big_a = 1.0 + (u2 / 16384.0) * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
    big_b = (u2 / 1024.0) * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))

    sigma = s / (b * big_a)
    iters = np.zeros(sigma.shape, dtype=int)
    active = np.ones(sigma.shape, dtype=bool)
    cos_2sm = np.cos(2.0 * sigma1 + sigma)
    for _ in range(VINCENTY_MAX_ITER):
        cos_2sm = np.where(active, np.cos(2.0 * sigma1 + sigma), cos_2sm)
        sin_s, cos_s = np.sin(sigma), np.cos(sigma)
        dsigma = big_b * sin_s * (cos_2sm + (big_b / 4.0) * (
            cos_s * (-1.0 + 2.0 * cos_2sm ** 2)
            - (big_b / 6.0) * cos_2sm * (-3.0 + 4.0 * sin_s ** 2)
            * (-3.0 + 4.0 * cos_2sm ** 2)))
        sigma_new = s / (b * big_a) + dsigma
        delta = np.abs(sigma_new - sigma)
        sigma = np.where(active, sigma_new, sigma)
        iters = iters + active.astype(int)
        active = active & (delta > VINCENTY_TOL_RAD)
        if not active.any():
            break
    else:
        raise NonConvergenceError("Vincenty direct did not converge")

    sin_s, cos_s = np.sin(sigma), np.cos(sigma)
    cos_2sm = np.cos(2.0 * sigma1 + sigma)
    tmp = sin_u1 * sin_s - cos_u1 * cos_s * np.cos(alpha1)
    lat2 = np.arctan2(sin_u1 * cos_s + cos_u1 * sin_s * np.cos(alpha1),
                      (1.0 - f) * np.sqrt(sin_alpha ** 2 + tmp ** 2))
    lam = np.arctan2(sin_s * np.sin(alpha1),
                     cos_u1 * cos_s - sin_u1 * sin_s * np.cos(alpha1))
    c = (f / 16.0) * cos2_alpha * (4.0 + f * (4.0 - 3.0 * cos2_alpha))
    dlon = lam - (1.0 - c) * f * sin_alpha * (
        sigma + c * sin_s * (cos_2sm + c * cos_s * (-1.0 + 2.0 * cos_2sm ** 2)))
    lon2 = normalize_lon(lon1 + np.degrees(dlon))
    alpha2 = np.degrees(np.arctan2(sin_alpha, -tmp)) % 360.0
    return lon2, np.degrees(lat2), alpha2, iters


def vincenty_direct(p: GeoPoint, bearing_deg: float, distance_m: float) -> GeodesicSolution:
    """Solve the direct geodesic problem on the ellipsoid; sub-millimeter accuracy."""
    if distance_m < 0:
        raise DomainError("distance must be nonnegative")
    lon2, lat2, alpha2, _ = vincenty_direct_arrays(p.lon, p.lat, bearing_deg, distance_m)
    return GeodesicSolution(GeoPoint(float(lon2), float(lat2)), float(alpha2))


def vincenty_inverse(p1: GeoPoint, p2: GeoPoint) -> tuple[float, float]:
    """Geodesic distance (m) and departure bearing (deg) from p1 to p2 on WGS84.

    Raises NonConvergenceError for near-antipodal pairs; callers fall back to
    :func:`great_circle_inverse`.
    """
    a, f = WGS84_SEMI_MAJOR_M, WGS84_FLATTENING
    b = a * (1.0 - f)

    lat1, lat2 = math.radians(p1.lat), math.radians(p2.lat)
    dlon = math.radians(normalize_lon(p2.lon - p1.lon))
    u1 = math.atan((1.0 - f) * math.tan(lat1))
    u2 = math.atan((1.0 - f) * math.tan(lat2))
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    if abs(dlon) < 1e-15 and abs(lat1 - lat2) < 1e-15:
        return 0.0, 0.0

    lam = dlon
    for _ in range(VINCENTY_MAX_ITER):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.sqrt((cos_u2 * sin_lam) ** 2
                              + (cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam) ** 2)
        if sin_sigma == 0.0:
            return 0.0, 0.0
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos2_alpha = 1.0 - sin_alpha ** 2
        # 0 on an equatorial line
        cos_2sm = 0.0 if cos2_alpha == 0.0 else cos_sigma - 2.0 * sin_u1 * sin_u2 / cos2_alpha
        c = (f / 16.0) * cos2_alpha * (4.0 + f * (4.0 - 3.0 * cos2_alpha))
        lam_old = lam
        lam = dlon + (1.0 - c) * f * sin_alpha * (
            sigma + c * sin_sigma * (cos_2sm + c * cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)))
        if abs(lam - lam_old) < VINCENTY_TOL_RAD:
            break
    else:
        raise NonConvergenceError("Vincenty inverse did not converge (near-antipodal?)")

    uu2 = cos2_alpha * (a * a - b * b) / (b * b)
    big_a = 1.0 + (uu2 / 16384.0) * (4096.0 + uu2 * (-768.0 + uu2 * (320.0 - 175.0 * uu2)))
    big_b = (uu2 / 1024.0) * (256.0 + uu2 * (-128.0 + uu2 * (74.0 - 47.0 * uu2)))
    sin_lam, cos_lam = math.sin(lam), math.cos(lam)
    sin_sigma = math.sqrt((cos_u2 * sin_lam) ** 2
                          + (cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam) ** 2)
    cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
    sigma = math.atan2(sin_sigma, cos_sigma)
    cos_2sm = 0.0 if cos2_alpha == 0.0 else cos_sigma - 2.0 * sin_u1 * sin_u2 / cos2_alpha
    dsigma = big_b * sin_sigma * (cos_2sm + (big_b / 4.0) * (
        cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)
        - (big_b / 6.0) * cos_2sm * (-3.0 + 4.0 * sin_sigma ** 2)
        * (-3.0 + 4.0 * cos_2sm ** 2)))
    distance = b * big_a * (sigma - dsigma)
    bearing = math.degrees(math.atan2(cos_u2 * sin_lam,
                                      cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam))
    return distance, wrap_bearing(bearing)


# ---------------------------------------------------------------------------
# Uniform sphere sampling
# ---------------------------------------------------------------------------

def sample_uniform_sphere_arrays(n: int, rng_seed: int):
    """Area-uniform random surface points; returns (lon, lat) degree arrays."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    u = rng.random(n)
    v = rng.random(n)
    lon = (180.0 / np.pi) * (2.0 * np.pi * u)
    lat = (180.0 / np.pi) * (np.arccos(2.0 * v - 1.0) - np.pi / 2.0)
    return normalize_lon(lon), lat


# ---------------------------------------------------------------------------
# Tangent-plane linearization error
# ---------------------------------------------------------------------------

def tangent_plane_separation_error(l1: float, l2: float, gamma: float
                                   ) -> tuple[float, float, float]:
    """Separation error between two points projected onto a tangent plane.

    ``l1``/``l2`` are projected distances from the plane origin, ``gamma`` the
    in-plane angle between them.  Returns (delta_l, delta_s, epsilon) where
    epsilon = delta_s - delta_l >= 0.
    """
    radius = MEAN_EARTH_RADIUS_M
    if not (0.0 <= l1 < radius and 0.0 <= l2 < radius):
        raise DomainError("projected distances must satisfy 0 <= L < R")
    # in-plane separation via the half-angle form (stable for small gamma)
    half = 2.0 * l1 * l2 * math.sin(gamma / 2.0) ** 2
    delta_l = math.sqrt(max(0.0, (l1 - l2) ** 2 + 2.0 * half))
    # central angle from the 3D chord between the lifted sphere points;
    # the height difference is computed without cancelling square roots
    z1 = math.sqrt((radius - l1) * (radius + l1))
    z2 = math.sqrt((radius - l2) * (radius + l2))
    dz = (l2 - l1) * (l2 + l1) / (z1 + z2)
    chord = math.sqrt(delta_l ** 2 + dz ** 2)
    delta_s = 2.0 * radius * math.asin(min(1.0, chord / (2.0 * radius)))
    return delta_l, delta_s, delta_s - delta_l
