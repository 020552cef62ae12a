"""Measurement and process noise covariance construction, and the linear
wave-theory kinematics used to size the process disturbance amplitude."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import project_psd
from .geodesy import DomainError

STANDARD_GRAVITY = 9.80665

# Stationary-vessel position std devs (deg) and GNSS compass SOG/COG std devs.
MEAS_STD_LON_DEG = 1.90e-5
MEAS_STD_LAT_DEG = 1.45e-5
MEAS_STD_SOG_MPS = 0.05
MEAS_STD_COG_DEG = 0.2

METERS_PER_DEGREE = 111319.5


def default_measurement_noise() -> np.ndarray:
    """Diagonal 4x4 measurement covariance in (deg^2, deg^2, (m/s)^2, deg^2)."""
    return np.diag([MEAS_STD_LON_DEG ** 2, MEAS_STD_LAT_DEG ** 2,
                    MEAS_STD_SOG_MPS ** 2, MEAS_STD_COG_DEG ** 2])


@dataclass(frozen=True)
class ProcessNoiseParams:
    """Parameters of the latitude/course dependent process noise covariance.

    ``position_dt_factor`` keeps the per-entry dt factor on the position
    diagonals (in addition to the overall dt scaling); set False to scale the
    position variances by dt only once.
    """

    zeta0: float = 2.0                    # disturbance amplitude, meters
    lon_scale: float = METERS_PER_DEGREE  # meters per degree of longitude at the equator
    sigma_sog: float = 0.08               # m/s
    sigma_cog: float = 1.2                # degrees
    position_dt_factor: bool = True

    def __post_init__(self):
        if min(self.zeta0, self.lon_scale, self.sigma_sog, self.sigma_cog) <= 0:
            raise DomainError("process noise parameters must be strictly positive")


def build_process_noise(params: ProcessNoiseParams, lat_deg, cog_deg, dt) -> np.ndarray:
    """Assemble the 4x4 process noise covariance for one prediction step, or
    a stack of them when ``lat_deg``, ``cog_deg`` and ``dt`` are arrays.

    The longitude std dev grows as 1/cos(lat) so that a fixed metric
    disturbance maps to the correct angular variance at any latitude.  The
    speed-position cross terms flip influence with the instantaneous course.
    """
    lat_deg, dt = np.asarray(lat_deg, dtype=float), np.asarray(dt, dtype=float)
    if not ((np.abs(lat_deg) < 90.0) & (dt > 0)).all():
        raise DomainError("process noise needs |lat| < 90 and a positive dt")
    cog = np.radians(cog_deg)
    sigma_lon = params.zeta0 / (params.lon_scale * np.cos(np.radians(lat_deg)))
    sigma_lat = params.zeta0 / params.lon_scale

    pos_dt = dt if params.position_dt_factor else 1.0
    q = np.zeros(np.broadcast(lat_deg, dt).shape + (4, 4))
    q[..., 0, 0] = sigma_lon ** 2 * pos_dt
    q[..., 1, 1] = sigma_lat ** 2 * pos_dt
    q[..., 0, 2] = q[..., 2, 0] = (sigma_lon * np.sin(cog)) ** 2
    q[..., 1, 2] = q[..., 2, 1] = (sigma_lat * np.cos(cog)) ** 2
    q[..., 2, 2] = params.sigma_sog ** 2
    q[..., 3, 3] = params.sigma_cog ** 2
    q *= dt[..., None, None]
    # the COG block is decoupled, so Q is PSD iff the Schur complement of its
    # position block, times q00 q11 > 0, is non-negative; project the rest
    q00, q11 = q[..., 0, 0], q[..., 1, 1]
    bad = q[..., 2, 2] * q00 * q11 < q[..., 0, 2] ** 2 * q11 + q[..., 1, 2] ** 2 * q00
    if bad.any():
        q[bad] = project_psd(q[bad])
    return q


@dataclass(frozen=True)
class WaveKinematics:
    significant_height: float  # m
    peak_period: float         # s
    orbital_radius: float      # m
    orbital_speed: float       # m/s


def _solve_wavenumber(omega: float, depth: float, g: float) -> float:
    """Wavenumber from the linear dispersion relation w^2 = g k tanh(k h)."""
    target = omega * omega
    lo = target / g  # tanh <= 1 implies root >= w^2/g
    hi = lo
    while g * hi * math.tanh(hi * depth) < target:
        hi *= 2.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if g * mid * math.tanh(mid * depth) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wave_orbital_kinematics(height: float, period: float, depth: float = 1000.0,
                            g: float = STANDARD_GRAVITY) -> WaveKinematics:
    """Orbital radius and max particle speed of a progressive surface wave."""
    if height < 0 or period <= 0 or depth <= 0:
        raise DomainError("require H >= 0, T > 0, depth > 0")
    omega = 2.0 * math.pi / period
    k = _solve_wavenumber(omega, depth, g)
    coth = math.cosh(k * depth) / math.sinh(k * depth)
    zeta = abs(-(height / 2.0) * coth)
    u_max = g * period * height * k / (4.0 * math.pi) * coth
    return WaveKinematics(height, period, zeta, u_max)


# Beaufort scale rows used for the fully-developed sea-state table:
# (scale, significant height m, peak period s).
BEAUFORT_SEA_STATES = [
    (4, 1.0, 5.0),
    (5, 2.0, 7.1),
    (6, 3.3, 9.1),
    (7, 5.3, 11.5),
    (8, 8.2, 14.3),
    (9, 11.4, 16.9),
    (10, 15.5, 19.7),
]
