"""Small covariance-matrix helpers shared by the filters and noise builders."""

from __future__ import annotations

import numpy as np

from .geodesy import GeotrackError


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


class FactorizationFailure(GeotrackError):
    """Covariance that cannot be factored because it is not finite."""


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix (Frobenius) of a matrix or of each in a stack.

    Eigenvalues are clipped at zero; only the matrices with a negative
    eigenvalue are decomposed. A stack with a non-finite entry raises
    ``FactorizationFailure``.
    """
    sym = symmetrize(np.asarray(m, dtype=float))
    if not np.isfinite(sym).all():
        raise FactorizationFailure("covariance is not finite")
    neg = np.linalg.eigvalsh(sym)[..., 0] < 0.0
    if np.count_nonzero(neg):
        w, v = np.linalg.eigh(sym[neg])
        sym[neg] = symmetrize((v * np.maximum(w, 0.0)[..., None, :])
                              @ v.swapaxes(-1, -2))
    return sym


class SingularInnovation(GeotrackError):
    """Innovation covariance not invertible (degenerate measurement noise)."""


def masked_joseph_update(p: np.ndarray, residual: np.ndarray,
                         r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form Kalman update for the direct measurement H = diag(mask) of
    one belief or of each in a stack, ``mask`` being where ``residual`` is finite.

    ``residual`` is z - x with any angular wrapping already applied; a nan
    field is not measured. Returns the state corrections and the posterior
    covariances.
    """
    mask = np.isfinite(residual)
    r = np.asarray(r, dtype=float)
    cols = mask[..., None, :]  # P Hᵀ keeps the measured columns of P, H P the rows
    innov_cov = np.where(mask[..., :, None] & cols, p, 0.0) + r
    try:
        innov_inv = np.linalg.inv(innov_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc
    y = np.where(mask, residual, 0.0)
    k = np.where(cols, p, 0.0) @ innov_inv
    ikh = np.eye(p.shape[-1]) - np.where(cols, k, 0.0)
    p_post = ikh @ p @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2)
    return (k @ y[..., None])[..., 0], symmetrize(p_post)
