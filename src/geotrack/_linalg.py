"""Small covariance-matrix helpers shared by the filters and noise builders."""

from __future__ import annotations

import numpy as np


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix (Frobenius) via eigenvalue clipping at zero."""
    sym = symmetrize(np.asarray(m, dtype=float))
    w, v = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    return symmetrize((v * np.clip(w, 0.0, None)) @ v.T)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric matrix square root; tolerates zero eigenvalues."""
    sym = symmetrize(np.asarray(m, dtype=float))
    w, v = np.linalg.eigh(sym)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


class SingularInnovation(RuntimeError):
    """Innovation covariance not invertible (degenerate measurement noise)."""


def masked_joseph_update(p: np.ndarray, residual: np.ndarray, mask: np.ndarray,
                         r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form Kalman update for the direct measurement H = diag(mask).

    ``residual`` is z - x with any angular wrapping already applied; masked-out
    fields contribute none. Returns the state correction and the posterior
    covariance.
    """
    r = np.asarray(r, dtype=float)
    h = np.diag(mask.astype(float))
    innov_cov = h @ p @ h.T + r
    try:
        innov_inv = np.linalg.inv(innov_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc
    y = np.where(mask, residual, 0.0)
    k = p @ h.T @ innov_inv
    ikh = np.eye(len(p)) - k @ h
    return k @ y, symmetrize(ikh @ p @ ikh.T + k @ r @ k.T)
