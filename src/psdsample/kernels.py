"""Gaussian kernels with per-coordinate precisions, plus small matrix helpers.

The kernel used throughout is

    k_eta(x, y) = exp(-sum_k eta_k * (x_k - y_k)**2)

with a nonnegative precision vector ``eta``.  Values below 1e-300 are
flushed to exact zero so that downstream products cannot produce
subnormal noise.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "gaussian_kernel",
    "kernel_matrix",
    "project_psd",
    "validate_precisions",
]

_FLUSH = 1e-300
# project_psd rejects inputs whose asymmetry exceeds this, relative to
# the largest entry (at least 1)
_ASYM_TOL = 1e-10


def validate_precisions(eta) -> NDArray[np.float64]:
    """Return ``eta`` as a 1-D float array, checking finiteness and sign."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("eta must be a non-empty 1-D vector")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    if np.any(eta <= 0):
        raise ValueError("eta must be strictly positive")
    return eta


def gaussian_kernel(eta, x, y) -> np.ndarray | float:
    """Evaluate k_eta(x, y) for points or batches of points.

    Parameters
    ----------
    eta : array_like, shape (d,)
        Per-coordinate precisions, all >= 0.
    x, y : array_like, shape (d,) or (n, d)
        Points.  Broadcasting between a single point and a batch works.

    Returns
    -------
    float or ndarray
        exp(-sum_k eta_k (x_k - y_k)^2), flushed to 0 below 1e-300.
    """
    eta = validate_precisions(eta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != eta.size or y.shape[-1] != eta.size:
        raise ValueError("point dimension does not match eta")
    d2 = np.sum(eta * (x - y) ** 2, axis=-1)
    out = np.exp(-d2)
    return np.where(out < _FLUSH, 0.0, out) if out.ndim else (
        0.0 if out < _FLUSH else float(out)
    )


def kernel_matrix(eta, X, Y=None) -> NDArray[np.float64]:
    """Gram matrix K[i, j] = k_eta(X[i], Y[j]).

    ``Y=None`` means ``Y = X``; the result is then symmetrized to kill
    roundoff asymmetry from the squared-distance expansion.
    """
    eta = validate_precisions(eta)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != eta.size:
        raise ValueError("X has wrong dimension for eta")
    symmetric = Y is None
    Y = X if symmetric else np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != eta.size:
        raise ValueError("Y has wrong dimension for eta")
    # sum_k eta_k (x_k - y_k)^2 via the usual expansion with scaled inputs
    Xs = X * np.sqrt(eta)
    Ys = Y * np.sqrt(eta)
    sq = (
        np.sum(Xs**2, axis=1)[:, None]
        + np.sum(Ys**2, axis=1)[None, :]
        - 2.0 * (Xs @ Ys.T)
    )
    np.maximum(sq, 0.0, out=sq)
    K = np.exp(-sq)
    if symmetric:
        K = 0.5 * (K + K.T)
    K[K < _FLUSH] = 0.0
    return K


def _unique_pairs(m: int):
    """Unique center pairs (i, j), i <= j, in ``np.triu_indices(m)`` order.

    Returns ``iu, ju``; ``mult``, 1 on the diagonal and 2 elsewhere, the
    number of entries (i, j) and (j, i) each pair stands for in a
    symmetric matrix; and ``rep``, the pair index of every entry (i, j)
    of an m x m matrix, flattened row-major.
    """
    iu, ju = np.triu_indices(m)
    pair = np.empty((m, m), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    return iu, ju, np.where(iu == ju, 1.0, 2.0), pair.ravel()


def project_psd(M) -> NDArray[np.float64]:
    """Project a matrix onto the positive semidefinite cone.

    Eigenvalues are clipped at zero and the result re-symmetrized.
    Inputs whose asymmetry exceeds ``_ASYM_TOL`` (relative to the largest
    entry) are rejected rather than silently symmetrized.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.T).max() > _ASYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    S = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(S)
    w = np.clip(w, 0.0, None)
    P = (V * w) @ V.T
    return 0.5 * (P + P.T)
