"""Geodetic unscented Kalman filter over the state [lon, lat, SOG, COG].

Prediction pushes symmetric sigma points through a constant-velocity step
along great circles of the mean-radius sphere;
the measurement model is linear, so the update is a conventional Kalman step in
Joseph form with per-field masking for incomplete reports.  ``predict_arrays``
steps a stack of beliefs at once; a single belief is the stack without its axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import masked_joseph_update, project_psd, symmetrize
from ._linalg import SingularInnovation  # noqa: F401  (raised by update)
from .geodesy import GeoPoint, normalize_lon, propagate_sphere_arrays, wrap_bearing
from .noise import build_process_noise, default_measurement_noise

N_STATES = 4
SIGMA_W0 = 1.0 - N_STATES / 3.0           # -1/3 for the 4-state filter
SIGMA_WI = (1.0 - SIGMA_W0) / (2 * N_STATES)
SIGMA_SCALE = N_STATES / (1.0 - SIGMA_W0)  # 3.0
SIGMA_WEIGHTS = np.array([SIGMA_W0] + [SIGMA_WI] * (2 * N_STATES))
SIGMA_WEIGHTS.flags.writeable = False

# Wide-but-proper prior that a new track fuses its first report into.
INITIAL_COV = np.diag([1e-4 ** 2, 1e-4 ** 2, 1.0 ** 2, 100.0 ** 2])

MEASUREMENT_NOISE = default_measurement_noise()
MEASUREMENT_NOISE.flags.writeable = False


class FactorizationFailure(RuntimeError):
    """Covariance that cannot be factored because it is not finite."""


def wrap_residual(predicted_cog: float, measured_cog: float) -> float:
    """Smallest signed angular difference measured - predicted, in [-180, 180)."""
    return (measured_cog - predicted_cog + 180.0) % 360.0 - 180.0


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

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "GeodeticState":
        return cls(float(x[0]), float(x[1]), max(0.0, float(x[2])), float(x[3]))

    @property
    def position(self) -> GeoPoint:
        return GeoPoint(self.lon, self.lat)


@dataclass
class GaussianBelief:
    mean: GeodeticState
    cov: np.ndarray
    timestamp: float = 0.0


@dataclass
class Measurement:
    """4-vector in state order with a per-field availability mask.

    Masked-out entries carry value 0 and contribute no residual.
    """
    z: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float).copy()
        self.mask = np.asarray(self.mask, dtype=bool).copy()
        self.z[~self.mask] = 0.0

    @classmethod
    def full(cls, lon: float, lat: float, sog: float, cog: float) -> "Measurement":
        return cls(np.array([lon, lat, sog, cog]), np.ones(4, dtype=bool))

    @classmethod
    def from_fields(cls, lon=None, lat=None, sog=None, cog=None) -> "Measurement":
        vals = [lon, lat, sog, cog]
        mask = np.array([v is not None for v in vals])
        z = np.array([0.0 if v is None else float(v) for v in vals])
        return cls(z, mask)


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
    lon, lat, sog, cog = (points[..., i] for i in range(N_STATES))
    dist = sog * dt
    # a sigma point offset can drive SOG negative: travel the reverse bearing
    brg = np.where(dist < 0, (cog + 180.0) % 360.0, cog)
    dist = np.abs(dist)
    out = np.empty(points.shape)  # C order: the weighted means sum in one fixed order
    out[..., 0], out[..., 1] = propagate_sphere_arrays(lon, lat, brg, dist)
    out[..., 2] = np.maximum(0.0, sog)
    out[..., 3] = cog % 360.0
    return out


def _weighted_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weights @ x`` as one dot product per row: a stacked row sums as one belief."""
    return (weights @ x[..., None])[..., 0]


def _weighted_mean(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sigma point mean; longitude and course averaged circularly."""
    mean = weights @ points
    # longitude: average offsets relative to the central point to stay
    # well-defined across the dateline seam
    dlon = (points[..., 0] - points[..., :1, 0] + 180.0) % 360.0 - 180.0
    mean[..., 0] = normalize_lon(points[..., 0, 0] + _weighted_sum(weights, dlon))
    cog = np.radians(points[..., 3])
    mean[..., 3] = np.degrees(np.arctan2(_weighted_sum(weights, np.sin(cog)),
                                         _weighted_sum(weights, np.cos(cog)))) % 360.0
    return mean


def _residuals(points: np.ndarray, mean: np.ndarray) -> np.ndarray:
    res = points - mean[..., None, :]
    res[..., 0] = (res[..., 0] + 180.0) % 360.0 - 180.0
    res[..., 3] = (res[..., 3] + 180.0) % 360.0 - 180.0
    return res


def predict_arrays(mean: np.ndarray, cov: np.ndarray, dt, q: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """A priori means ``(..., 4)`` and covariances ``(..., 4, 4)`` of a stack of
    beliefs, each stepped by its own ``dt`` and ``q``; rows are independent."""
    sp = sigma_points(mean, cov)
    transformed = _propagate_points(sp.points, np.asarray(dt)[..., None])
    mean = _weighted_mean(transformed, sp.weights)
    res = _residuals(transformed, mean)
    cov = (sp.weights[:, None] * res).swapaxes(-1, -2) @ res + q
    return mean, project_psd(cov)


def predict(belief: GaussianBelief, dt: float, q: np.ndarray) -> GaussianBelief:
    """A priori belief after propagating every sigma point through dt seconds."""
    mean, cov = predict_arrays(belief.mean.as_vector(), belief.cov, dt,
                               np.asarray(q, dtype=float))
    return GaussianBelief(GeodeticState.from_vector(mean), cov, belief.timestamp + dt)


def update(prior: GaussianBelief, meas: Measurement, r: np.ndarray) -> GaussianBelief:
    """Joseph-form linear update with masked fields carrying zero residual."""
    x = prior.mean.as_vector()
    y = meas.z - x
    y[0] = wrap_residual(0.0, y[0])
    y[3] = wrap_residual(0.0, y[3])
    dx, p_post = masked_joseph_update(symmetrize(prior.cov), y, meas.mask, r)
    x_post = x + dx
    x_post[3] %= 360.0
    return GaussianBelief(GeodeticState.from_vector(x_post), p_post, prior.timestamp)


def initial_belief(meas: Measurement, timestamp: float = 0.0) -> GaussianBelief:
    """Prior of a new track: mean from the first report, wide proper covariance."""
    x = meas.z.copy()
    state = GeodeticState(float(x[0]), float(x[1]), max(0.0, float(x[2])), float(x[3]))
    return GaussianBelief(state, INITIAL_COV.copy(), timestamp)


class GeodeticUkf:
    """Stateful filter instance: one tracked vessel, sequential predict/update."""

    def __init__(self, belief: GaussianBelief):
        self.belief = belief

    @classmethod
    def from_first_measurement(cls, meas: Measurement,
                               timestamp: float = 0.0) -> "GeodeticUkf":
        """Start a track from one report, fused with that report's own noise.

        The mean equals the report; the fields it carries start at about R
        and the missing ones keep the wide ``INITIAL_COV`` prior.
        """
        filt = cls(initial_belief(meas, timestamp))
        filt.update(meas)
        return filt

    def predict(self, dt: float) -> GaussianBelief:
        # Q is rebuilt every step from the current latitude/course estimate
        q = build_process_noise(self.belief.mean.lat, self.belief.mean.cog, dt)
        self.belief = predict(self.belief, dt, q)
        return self.belief

    def update(self, meas: Measurement) -> GaussianBelief:
        self.belief = update(self.belief, meas, MEASUREMENT_NOISE)
        return self.belief
