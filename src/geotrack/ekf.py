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
from .geodesy import WGS84_E2 as _E2, WGS84_SEMI_MAJOR_M, GeoPoint
from .ukf import Measurement

# Default EKF tuning (planar/SI units).
DEFAULT_P0 = 0.1 * np.eye(4)
DEFAULT_Q = np.diag([0.01, 0.01, 0.1, 0.1])
DEFAULT_R = np.diag([1e-3, 1e-3, 1e-3, 1e-2])
DEFAULT_Q.flags.writeable = DEFAULT_R.flags.writeable = False  # shared by every filter


def geodetic_to_ecef(p: GeoPoint, height: float = 0.0) -> np.ndarray:
    lat, lon = math.radians(p.lat), math.radians(p.lon)
    n = WGS84_SEMI_MAJOR_M / math.sqrt(1.0 - _E2 * math.sin(lat) ** 2)
    x = (n + height) * math.cos(lat) * math.cos(lon)
    y = (n + height) * math.cos(lat) * math.sin(lon)
    z = (n * (1.0 - _E2) + height) * math.sin(lat)
    return np.array([x, y, z])


def ecef_to_geodetic(ecef: np.ndarray) -> GeoPoint:
    """Iterative ECEF -> geodetic conversion (surface latitude/longitude)."""
    x, y, z = ecef
    lon = math.atan2(y, x)
    p = math.hypot(x, y)
    lat = math.atan2(z, p * (1.0 - _E2))
    for _ in range(20):
        n = WGS84_SEMI_MAJOR_M / math.sqrt(1.0 - _E2 * math.sin(lat) ** 2)
        h = p / math.cos(lat) - n if abs(lat) < math.pi / 4 else z / math.sin(lat) - n * (1.0 - _E2)
        lat_new = math.atan2(z, p * (1.0 - _E2 * n / (n + h)))
        if abs(lat_new - lat) < 1e-14:
            lat = lat_new
            break
        lat = lat_new
    return GeoPoint(math.degrees(lon), math.degrees(lat))


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
    """Surface point whose NED projection is (north, east); inverse of
    :func:`geodetic_to_ned` to < 1e-9 deg."""
    down = 0.0
    point = plane.origin
    for _ in range(20):
        ecef = plane._ecef0 + plane._rot.T @ np.array([north, east, down])
        point = ecef_to_geodetic(ecef)
        ned = plane._rot @ (geodetic_to_ecef(point) - plane._ecef0)
        if abs(ned[2] - down) < 1e-9:
            break
        down = float(ned[2])
    return point


@dataclass
class PlanarState:
    north: float
    east: float
    sog: float
    course: float  # radians

    def as_vector(self) -> np.ndarray:
        return np.array([self.north, self.east, self.sog, self.course])

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "PlanarState":
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


def planar_dynamics(x: np.ndarray) -> np.ndarray:
    """Constant-velocity planar kinematics xdot = f(x)."""
    return np.array([x[2] * math.cos(x[3]), x[2] * math.sin(x[3]), 0.0, 0.0])


def planar_jacobian(x: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, 0.0, math.cos(x[3]), -x[2] * math.sin(x[3])],
        [0.0, 0.0, math.sin(x[3]), x[2] * math.cos(x[3])],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])


def ekf_predict(state: PlanarState, p: np.ndarray, dt: float,
                q: np.ndarray) -> tuple[PlanarState, np.ndarray]:
    """Euler-discretized propagation with covariance Phi P Phi^T + Q dt."""
    x = state.as_vector()
    x_new = x + planar_dynamics(x) * dt
    phi = np.eye(4) + planar_jacobian(x) * dt
    p_new = symmetrize(phi @ p @ phi.T + np.asarray(q, dtype=float) * dt)
    return PlanarState.from_vector(x_new), p_new


def ekf_update(state: PlanarState, p: np.ndarray, meas: Measurement,
               r: np.ndarray) -> tuple[PlanarState, np.ndarray]:
    """Masked Joseph-form update; measurement already in the planar frame
    (north m, east m, SOG m/s, course rad)."""
    x = state.as_vector()
    y = meas.z - x
    y[3] = (y[3] + math.pi) % (2.0 * math.pi) - math.pi
    dx, p_post = masked_joseph_update(p, y, meas.mask, r)
    return PlanarState.from_vector(x + dx), p_post


def measurement_to_planar(meas: Measurement, plane: TangentPlane) -> Measurement:
    """Map a geodetic [lon, lat, SOG, COG deg] measurement into the NED frame.

    Position requires both lon and lat to be present to project.
    """
    have_pos = bool(meas.mask[0] and meas.mask[1])
    north = east = 0.0
    if have_pos:
        north, east = geodetic_to_ned(GeoPoint(meas.z[0], meas.z[1]), plane)
    course = math.radians(meas.z[3]) if meas.mask[3] else 0.0
    z = np.array([north, east, meas.z[2], course])
    mask = np.array([have_pos, have_pos, bool(meas.mask[2]), bool(meas.mask[3])])
    return Measurement(z, mask)


class PlanarEkf:
    """Stateful EKF baseline mirroring the geodetic filter's interface."""

    def __init__(self, state: PlanarState, plane: TangentPlane):
        self.state = state
        self.p = DEFAULT_P0.copy()
        self.plane = plane

    @classmethod
    def from_first_measurement(cls, meas: Measurement,
                               plane: TangentPlane) -> "PlanarEkf":
        pm = measurement_to_planar(meas, plane)
        state = PlanarState(pm.z[0], pm.z[1], pm.z[2], pm.z[3])
        return cls(state, plane)

    def predict(self, dt: float) -> PlanarState:
        self.state, self.p = ekf_predict(self.state, self.p, dt, DEFAULT_Q)
        return self.state

    def update(self, meas: Measurement) -> PlanarState:
        pm = measurement_to_planar(meas, self.plane)
        self.state, self.p = ekf_update(self.state, self.p, pm, DEFAULT_R)
        return self.state

    def geodetic_position(self) -> GeoPoint:
        return ned_to_geodetic(self.state.north, self.state.east, self.plane)

    @property
    def cog_deg(self) -> float:
        return math.degrees(self.state.course) % 360.0
