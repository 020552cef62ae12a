"""Geodetic unscented Kalman filter over the state [lon, lat, SOG, COG].

Prediction pushes symmetric sigma points through a constant-velocity step
along great circles of the mean-radius sphere;
the measurement model is linear, so the update is a conventional Kalman step in
Joseph form over the finite fields of a report.  ``GeodeticUkf``
holds one belief or a stack of them as arrays; a single belief is the stack
without its axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import FactorizationFailure, masked_joseph_update, project_psd, symmetrize
from .geodesy import normalize_lon, propagate_sphere_arrays, wrap_bearing
from .noise import build_process_noise, default_measurement_noise

N_STATES = 4
SIGMA_W0 = 1.0 - N_STATES / 3.0           # -1/3 for the 4-state filter
SIGMA_WI = (1.0 - SIGMA_W0) / (2 * N_STATES)
SIGMA_SCALE = N_STATES / (1.0 - SIGMA_W0)  # 3.0
SIGMA_WEIGHTS = np.array([SIGMA_W0] + [SIGMA_WI] * (2 * N_STATES))
SIGMA_WEIGHTS.flags.writeable = False

INITIAL_COV = np.diag([1e-4 ** 2, 1e-4 ** 2, 1.0 ** 2, 100.0 ** 2])

MEASUREMENT_NOISE = default_measurement_noise()
MEASUREMENT_NOISE.flags.writeable = False


def wrap_residual(predicted_cog: float, measured_cog: float) -> float:
    """Smallest signed angular difference measured - predicted, in [-180, 180)."""
    return normalize_lon(measured_cog - predicted_cog)


@dataclass(frozen=True)
class GeodeticState:
    lon: float
    lat: float
    sog: float
    cog: float

    def __post_init__(self):
        object.__setattr__(self, "lon", normalize_lon(self.lon))
        object.__setattr__(self, "cog", wrap_bearing(self.cog))

    def as_vector(self) -> np.ndarray:
        return np.array([self.lon, self.lat, self.sog, self.cog], dtype=float)


@dataclass
class GaussianBelief:
    mean: GeodeticState
    cov: np.ndarray
    timestamp: float = 0.0

    @classmethod
    def from_arrays(cls, mean: np.ndarray, cov: np.ndarray, time) -> "GaussianBelief":
        """A copy of one belief held as arrays."""
        return cls(GeodeticState(*mean.tolist()), np.array(cov), float(time))


@dataclass(init=False)
class Measurement:
    """4-vector ``z`` in state order, nan at every field that is not measured.

    ``Measurement(z, mask)`` measures a field where ``mask`` is true (by
    default everywhere) and ``z`` is finite.
    """
    z: np.ndarray

    def __init__(self, z, mask=True):
        z = np.asarray(z, dtype=float)
        self.z = np.where(np.isfinite(z) & np.asarray(mask, dtype=bool), z, np.nan)

    @property
    def mask(self) -> np.ndarray:
        """Which fields are measured: a read-only view of ``isfinite(z)``."""
        mask = np.isfinite(self.z)
        mask.flags.writeable = False
        return mask

    @classmethod
    def full(cls, lon: float, lat: float, sog: float, cog: float) -> "Measurement":
        return cls([lon, lat, sog, cog])

    @classmethod
    def from_fields(cls, lon=None, lat=None, sog=None, cog=None) -> "Measurement":
        return cls(report_vector(lon, lat, sog, cog))


def report_vector(lon, lat, sog, cog) -> np.ndarray:
    """A report's fields in state order, nan where a filter does not use them:
    a field is used when finite, a position only where Q is defined (|lat| < 90)."""
    z = np.array([lon, lat, sog, cog], dtype=float)
    if abs(z[1]) >= 90.0:
        z[:2] = np.nan
    return z


def birth_prior(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wide prior (mean, cov) that a new belief fuses its first report ``z`` into."""
    return normalize_state(np.where(np.isfinite(z), z, 0.0)), INITIAL_COV


@dataclass
class SigmaPointSet:
    points: np.ndarray   # (..., 9, 4)
    weights: np.ndarray  # (9,)


def sigma_points(mean: np.ndarray, cov: np.ndarray) -> SigmaPointSet:
    """Symmetric 2N+1 sigma points ``(..., 9, 4)`` around each mean of a stack.

    One ``eigh`` of ``SIGMA_SCALE * cov`` per matrix gives both the PSD repair
    (negative eigenvalues clipped at zero) and the symmetric root, whose
    columns are the point offsets.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise FactorizationFailure("covariance is not finite")
    w, v = np.linalg.eigh(SIGMA_SCALE * cov)
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.swapaxes(-1, -2)
    offsets = root.swapaxes(-1, -2)
    mean = np.asarray(mean, dtype=float)[..., None, :]
    points = np.concatenate([mean, mean + offsets, mean - offsets], axis=-2)
    return SigmaPointSet(points, SIGMA_WEIGHTS)


def _propagate_points(points: np.ndarray, dt) -> np.ndarray:
    """Push state vectors ``(..., 4)`` through the constant-velocity step on
    the sphere; ``dt`` broadcasts against ``points[..., 0]``."""
    lon, lat, sog, cog = points[..., 0], points[..., 1], points[..., 2], points[..., 3]
    out = np.empty(points.shape)  # C order: the weighted means sum in one fixed order
    # a sigma point offset can drive SOG negative: a negative distance travels
    # the reverse bearing
    out[..., 0], out[..., 1] = propagate_sphere_arrays(lon, lat, cog, sog * dt)
    np.maximum(0.0, sog, out=out[..., 2])
    np.remainder(cog, 360.0, out=out[..., 3])
    return out


def _weighted_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weights @ x`` as one dot product per row: a stacked row sums as one belief."""
    return (weights @ x[..., None])[..., 0]


def _weighted_mean(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sigma point mean; longitude and course averaged circularly."""
    mean = weights @ points
    # longitude: average offsets relative to the central point to stay
    # well-defined across the dateline seam
    dlon = normalize_lon(points[..., 0] - points[..., :1, 0])
    mean[..., 0] = normalize_lon(points[..., 0, 0] + _weighted_sum(weights, dlon))
    cog = np.radians(points[..., 3])
    mean[..., 3] = wrap_bearing(np.degrees(np.arctan2(_weighted_sum(weights, np.sin(cog)),
                                                      _weighted_sum(weights, np.cos(cog)))))
    return mean


def predict_arrays(mean: np.ndarray, cov: np.ndarray, dt, q: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """A priori means ``(..., 4)`` and covariances ``(..., 4, 4)`` of a stack of
    beliefs, each stepped by its own ``dt`` and ``q``; rows are independent.
    The means come out as ``normalize_state`` leaves them."""
    sp = sigma_points(mean, cov)
    transformed = _propagate_points(sp.points, np.asarray(dt)[..., None])
    mean = _weighted_mean(transformed, sp.weights)
    res = transformed - mean[..., None, :]
    res[..., ::3] = normalize_lon(res[..., ::3])  # lon and COG
    cov = (sp.weights[:, None] * res).swapaxes(-1, -2) @ res + q
    np.maximum(0.0, mean[..., 2], out=mean[..., 2])  # lon and course are wrapped
    return mean, project_psd(cov)


def normalize_state(mean: np.ndarray) -> np.ndarray:
    """Wrap longitude and course and clip SOG at zero, in place, as
    ``GeodeticState`` does to one state vector."""
    mean[..., 0] = normalize_lon(mean[..., 0])
    mean[..., 2] = np.maximum(0.0, mean[..., 2])
    mean[..., 3] = wrap_bearing(mean[..., 3])
    return mean


def update_arrays(mean: np.ndarray, cov: np.ndarray, z: np.ndarray,
                  r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form linear update of a stack of beliefs, each with its own
    report ``z``; a nan field of ``z`` is not measured and carries no residual."""
    y = z - mean
    y[..., ::3] = normalize_lon(y[..., ::3])  # lon and COG
    dx, p_post = masked_joseph_update(symmetrize(cov), y, r)
    return normalize_state(mean + dx), p_post


def update(prior: GaussianBelief, meas: Measurement, r: np.ndarray) -> GaussianBelief:
    """Joseph-form linear update; a nan field of ``meas`` carries no residual."""
    mean, cov = update_arrays(prior.mean.as_vector(), prior.cov, meas.z, r)
    return GaussianBelief.from_arrays(mean, cov, prior.timestamp)


def _rows(selected: np.ndarray):
    """An index of the selected beliefs of a stack: None when there are none,
    and ``...`` when all are, so that a single belief (no stack axis) needs
    no boolean indexing."""
    if selected.ndim == 0:  # a numpy bool, which counts slowly
        return ... if selected else None
    count = np.count_nonzero(selected)
    return None if count == 0 else ... if count == selected.size else selected


class GeodeticUkf:
    """Filter over one belief, or over a stack of independent beliefs.

    ``mean`` is ``(..., 4)``, ``cov`` ``(..., 4, 4)`` and ``time`` ``(...)``;
    a single belief is the stack without its axis. ``predict`` and ``update``
    step every belief at once, and a belief with a zero ``dt`` or a report
    that measures no field (all nan) is left untouched, bit for bit.
    """

    def __init__(self, mean, cov, time=0.0):
        self.mean = np.array(mean, dtype=float)
        stack = self.mean.shape[:-1]
        self.cov = np.array(np.broadcast_to(cov, stack + (N_STATES, N_STATES)), dtype=float)
        self.time = np.array(np.broadcast_to(time, stack), dtype=float)

    @classmethod
    def from_first_measurement(cls, meas: Measurement,
                               timestamp: float = 0.0) -> "GeodeticUkf":
        """Start a track from one report, fused into ``birth_prior`` with that
        report's own noise: the fields it carries start at about R."""
        filt = cls(*birth_prior(meas.z), timestamp)
        filt.update(meas)
        return filt

    @property
    def belief(self) -> GaussianBelief:
        """The belief of a single-belief filter."""
        return GaussianBelief.from_arrays(self.mean, self.cov, self.time)

    def predict(self, dt) -> None:
        """Step each belief by its own finite ``dt`` seconds (broadcast over the stack)."""
        dt = np.asarray(dt, dtype=float)
        if not np.isfinite(dt).all():
            raise ValueError("dt must be finite")
        if dt.shape != self.time.shape:
            dt = np.broadcast_to(dt, self.time.shape)
        rows = _rows(dt > 0.0)
        if rows is None:
            return
        mean, step = self.mean[rows], dt[rows]
        # Q is rebuilt every step from the current latitude/course estimate
        q = build_process_noise(mean[..., 1], mean[..., 3], step)
        self.mean[rows], self.cov[rows] = predict_arrays(mean, self.cov[rows], step, q)
        self.time[rows] += step

    def update(self, meas: Measurement) -> None:
        """Fuse one report per belief; ``meas`` has the stack's shape."""
        if meas.z.shape != self.mean.shape:
            raise ValueError(f"report shape {meas.z.shape} != stack shape {self.mean.shape}")
        rows = _rows(meas.mask.any(-1))
        if rows is None:
            return
        self.mean[rows], self.cov[rows] = update_arrays(
            self.mean[rows], self.cov[rows], meas.z[rows], MEASUREMENT_NOISE)
