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

# Process noise: disturbance amplitude (m), which becomes a position std dev
# of ZETA0_M / METERS_PER_DEGREE degrees of latitude, and SOG/COG std devs.
ZETA0_M = 2.0
SIGMA_SOG_MPS = 0.08
SIGMA_COG_DEG = 1.2


def default_measurement_noise() -> np.ndarray:
    """Diagonal 4x4 measurement covariance in (deg^2, deg^2, (m/s)^2, deg^2)."""
    return np.diag([MEAS_STD_LON_DEG ** 2, MEAS_STD_LAT_DEG ** 2,
                    MEAS_STD_SOG_MPS ** 2, MEAS_STD_COG_DEG ** 2])


def build_process_noise(lat_deg, cog_deg, dt) -> np.ndarray:
    """Assemble the 4x4 process noise covariance for one prediction step, or
    a stack of them when ``lat_deg``, ``cog_deg`` and ``dt`` are arrays.

    The longitude std dev grows as 1/cos(lat) so that a fixed metric
    disturbance maps to the correct angular variance at any latitude.  The
    speed-position cross terms flip influence with the instantaneous course.
    """
    # [()] turns a 0-d dt into a numpy scalar, whose arithmetic is cheaper
    lat_deg, dt = np.asarray(lat_deg, dtype=float), np.asarray(dt, dtype=float)[()]
    if not ((np.abs(lat_deg) < 90.0) & (dt > 0)).all():
        raise DomainError("process noise needs |lat| < 90 and a positive dt")
    cog = np.radians(cog_deg)
    sigma_lon = ZETA0_M / (METERS_PER_DEGREE * np.cos(np.radians(lat_deg)))
    sigma_lat = ZETA0_M / METERS_PER_DEGREE

    # the position variances carry dt twice, the rest once
    q00 = sigma_lon ** 2 * dt * dt
    q11 = sigma_lat ** 2 * dt * dt
    q02 = (sigma_lon * np.sin(cog)) ** 2 * dt
    q12 = (sigma_lat * np.cos(cog)) ** 2 * dt
    q22, q33 = SIGMA_SOG_MPS ** 2 * dt, SIGMA_COG_DEG ** 2 * dt
    q = np.zeros(q00.shape + (4, 4))
    q[..., 0, 0], q[..., 1, 1], q[..., 2, 2], q[..., 3, 3] = q00, q11, q22, q33
    q[..., 0, 2] = q[..., 2, 0] = q02
    q[..., 1, 2] = q[..., 2, 1] = q12
    # the COG block is decoupled, so Q is PSD iff the Schur complement of its
    # position block, times q00 q11 > 0, is non-negative; project the rest
    bad = q22 * q00 * q11 < q02 ** 2 * q11 + q12 ** 2 * q00
    if np.count_nonzero(bad):
        q[bad] = project_psd(q[bad])
    return q


@dataclass(frozen=True)
class WaveKinematics:
    significant_height: float  # m
    peak_period: float         # s
    orbital_radius: float      # m
    orbital_speed: float       # m/s


def _solve_wavenumber(omega: float, depth: float) -> float:
    """Wavenumber from the linear dispersion relation w^2 = g k tanh(k h)."""
    target = omega * omega
    lo = target / STANDARD_GRAVITY  # tanh <= 1 implies root >= w^2/g
    hi = lo
    while STANDARD_GRAVITY * hi * math.tanh(hi * depth) < target:
        hi *= 2.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if STANDARD_GRAVITY * mid * math.tanh(mid * depth) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wave_orbital_kinematics(height: float, period: float,
                            depth: float = 1000.0) -> WaveKinematics:
    """Orbital radius and max particle speed of a progressive surface wave."""
    if height < 0 or period <= 0 or depth <= 0:
        raise DomainError("require H >= 0, T > 0, depth > 0")
    omega = 2.0 * math.pi / period
    k = _solve_wavenumber(omega, depth)
    coth = math.cosh(k * depth) / math.sinh(k * depth)
    zeta = abs(-(height / 2.0) * coth)
    u_max = STANDARD_GRAVITY * period * height * k / (4.0 * math.pi) * coth
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
