"""Small covariance-matrix helpers shared by the filters and noise builders."""

from __future__ import annotations

import numpy as np

from .geodesy import GeotrackError


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix (Frobenius) of a matrix or of each in a stack.

    Eigenvalues are clipped at zero; only the matrices with a negative
    eigenvalue are decomposed.
    """
    sym = symmetrize(np.asarray(m, dtype=float))
    neg = np.linalg.eigvalsh(sym)[..., 0] < 0.0
    if np.count_nonzero(neg):
        w, v = np.linalg.eigh(sym[neg])
        sym[neg] = symmetrize((v * np.maximum(w, 0.0)[..., None, :])
                              @ v.swapaxes(-1, -2))
    return sym


class SingularInnovation(GeotrackError):
    """Innovation covariance not invertible (degenerate measurement noise)."""


def masked_joseph_update(p: np.ndarray, residual: np.ndarray, mask: np.ndarray,
                         r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form Kalman update for the direct measurement H = diag(mask), of
    one belief or of each in a stack, with a mask per belief.

    ``residual`` is z - x with any angular wrapping already applied; masked-out
    fields contribute none. Returns the state corrections and the posterior
    covariances.
    """
    r = np.asarray(r, dtype=float)
    eye = np.eye(p.shape[-1])
    h = mask[..., None] * eye
    ht = h.swapaxes(-1, -2)
    innov_cov = h @ p @ ht + r
    try:
        innov_inv = np.linalg.inv(innov_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc
    y = np.where(mask, residual, 0.0)
    k = p @ ht @ innov_inv
    ikh = eye - k @ h
    p_post = ikh @ p @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2)
    return (k @ y[..., None])[..., 0], symmetrize(p_post)
