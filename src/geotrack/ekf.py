"""Plane-Cartesian extended Kalman filter baseline with geodetic <-> NED
tangent-plane conversions.

The course state is stored in radians internally; geodetic measurements are
mapped into the plane before fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import masked_joseph_update, symmetrize
from .geodesy import WGS84_E2 as _E2, WGS84_SEMI_MAJOR_M, DomainError, GeoPoint, wrap_bearing
from .ukf import Measurement

# Default EKF tuning (planar/SI units).
DEFAULT_P0 = 0.1 * np.eye(4)
DEFAULT_Q = np.diag([0.01, 0.01, 0.1, 0.1])
DEFAULT_R = np.diag([1e-3, 1e-3, 1e-3, 1e-2])
DEFAULT_Q.flags.writeable = DEFAULT_R.flags.writeable = False  # shared by every filter

# The ellipsoid surface is {v : v^T diag(_ELLIPSOID_W) v = 1}.
_ELLIPSOID_W = np.array([1.0, 1.0, 1.0 / (1.0 - _E2)]) / WGS84_SEMI_MAJOR_M ** 2


def geodetic_to_ecef(p: GeoPoint) -> np.ndarray:
    """ECEF position (m) of a point on the WGS84 surface."""
    lat, lon = math.radians(p.lat), math.radians(p.lon)
    n = WGS84_SEMI_MAJOR_M / math.sqrt(1.0 - _E2 * math.sin(lat) ** 2)
    x = n * math.cos(lat) * math.cos(lon)
    y = n * math.cos(lat) * math.sin(lon)
    z = n * (1.0 - _E2) * math.sin(lat)
    return np.array([x, y, z])


@dataclass(frozen=True)
class TangentPlane:
    """Local NED frame tangent to the WGS84 ellipsoid at ``origin``."""

    origin: GeoPoint
    _ecef0: np.ndarray = field(init=False, repr=False)
    _rot: np.ndarray = field(init=False, repr=False)  # ECEF -> NED rotation

    def __post_init__(self):
        lat, lon = math.radians(self.origin.lat), math.radians(self.origin.lon)
        sl, cl = math.sin(lat), math.cos(lat)
        so, co = math.sin(lon), math.cos(lon)
        rot = np.array([[-sl * co, -sl * so, cl],
                        [-so, co, 0.0],
                        [-cl * co, -cl * so, -sl]])
        object.__setattr__(self, "_ecef0", geodetic_to_ecef(self.origin))
        object.__setattr__(self, "_rot", rot)


def geodetic_to_ned(p: GeoPoint, plane: TangentPlane) -> tuple[float, float]:
    """North/east tangent-plane coordinates of a surface point, meters."""
    ned = plane._rot @ (geodetic_to_ecef(p) - plane._ecef0)
    return float(ned[0]), float(ned[1])


def ned_to_geodetic(north: float, east: float, plane: TangentPlane) -> GeoPoint:
    """Surface point whose NED projection is (north, east); the inverse of
    :func:`geodetic_to_ned`.

    The plane point c moves along the plane's down axis u onto the ellipsoid:
    the nearer root d of (u'Wu) d^2 + 2 (c'Wu) d + (c'Wc - 1) = 0. A point
    past the Earth's limb has no surface point below it and raises
    :class:`DomainError`.
    """
    c = plane._ecef0 + north * plane._rot[0] + east * plane._rot[1]
    u = plane._rot[2]
    wu = _ELLIPSOID_W * u
    a, b, k = float(u @ wu), float(c @ wu), float(c @ (_ELLIPSOID_W * c)) - 1.0
    disc = b * b - a * k
    if not 0.0 <= disc < math.inf:
        raise DomainError(f"plane point ({north:g}, {east:g}) m is beyond the Earth's limb")
    x, y, z = (c + k / (math.sqrt(disc) - b) * u).tolist()
    lat = math.atan2(z, (1.0 - _E2) * math.hypot(x, y))  # exact at h = 0
    return GeoPoint(math.degrees(math.atan2(y, x)), math.degrees(lat))


def planar_dynamics(x: list[float] | np.ndarray) -> np.ndarray:
    """Constant-velocity planar kinematics xdot = f(x)."""
    return np.array([x[2] * math.cos(x[3]), x[2] * math.sin(x[3]), 0.0, 0.0])


def planar_jacobian(x: list[float] | np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, 0.0, math.cos(x[3]), -x[2] * math.sin(x[3])],
        [0.0, 0.0, math.sin(x[3]), x[2] * math.cos(x[3])],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])


def measurement_to_planar(meas: Measurement, plane: TangentPlane) -> Measurement:
    """Map a geodetic [lon, lat, SOG, COG deg] measurement into the NED frame;
    a field not measured stays nan, and a position needs both lon and lat."""
    lon, lat, sog, cog = meas.z.tolist()
    north = east = math.nan
    if math.isfinite(lon) and math.isfinite(lat):
        north, east = geodetic_to_ned(GeoPoint(lon, lat), plane)
    return Measurement([north, east, sog, math.radians(cog)])


class PlanarEkf:
    """Stateful EKF baseline mirroring the geodetic filter's interface; its
    state ``x`` is (north m, east m, SOG m/s, course rad) on ``plane``."""

    def __init__(self, x: np.ndarray, plane: TangentPlane):
        self.x = np.array(x, dtype=float)
        self.p = DEFAULT_P0.copy()
        self.plane = plane

    @classmethod
    def from_first_measurement(cls, meas: Measurement,
                               plane: TangentPlane) -> "PlanarEkf":
        # a field the report does not measure starts at 0
        return cls(np.nan_to_num(measurement_to_planar(meas, plane).z), plane)

    def predict(self, dt: float) -> np.ndarray:
        """Euler-discretized propagation with covariance Phi P Phi^T + Q dt."""
        x = self.x.tolist()  # the model's scalar math is cheaper on floats
        phi = np.eye(4) + planar_jacobian(x) * dt
        self.x = self.x + planar_dynamics(x) * dt
        # .dot: the same product as @ on 2-D arrays, at a lower cost per call
        self.p = symmetrize(phi.dot(self.p).dot(phi.T) + DEFAULT_Q * dt)
        return self.x

    def update(self, meas: Measurement) -> np.ndarray:
        """Joseph-form update of the fields ``meas`` measures, mapped onto the plane."""
        pm = measurement_to_planar(meas, self.plane)
        y = pm.z - self.x
        y[3] = (y[3] + math.pi) % (2.0 * math.pi) - math.pi
        dx, self.p = masked_joseph_update(self.p, y, DEFAULT_R)
        self.x = self.x + dx
        return self.x

    def geodetic_position(self) -> GeoPoint:
        return ned_to_geodetic(self.x[0], self.x[1], self.plane)

    @property
    def cog_deg(self) -> float:
        return wrap_bearing(math.degrees(self.x[3]))
