"""Gaussian PSD models.

A model is a triple ``(A, X, eta)``: centers ``X`` (m rows in R^d), a
symmetric positive semidefinite coefficient matrix ``A`` (m x m) and a
precision vector ``eta`` (d positive entries).  It represents the
nonnegative function

    f(x) = sum_ij A_ij k_eta(x, x_i) k_eta(x, x_j)

which is a density up to normalization.  The rank-one special case
``A = a a^T`` is stored separately because it admits cheaper evaluation
(square of a linear kernel expansion) and a Hellinger-specific
smoothness constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .boxes import HyperRectangle
from .kernels import _unique_pairs, kernel_matrix, project_psd, validate_precisions

__all__ = [
    "GaussianPsdModel",
    "RankOneModel",
    "LipschitzBounds",
    "lipschitz_bounds",
    "tail_box",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1


def _validate_centers(X, d_expected=None) -> NDArray[np.float64]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.size == 0:
        raise ValueError("centers must form a non-empty (m, d) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("centers must be finite")
    if d_expected is not None and X.shape[1] != d_expected:
        raise ValueError("centers dimension does not match eta")
    return X


@dataclass(frozen=True)
class GaussianPsdModel:
    """Nonnegative function f(x) = v(x)^T A v(x), v_i(x) = k_eta(x, x_i).

    Parameters
    ----------
    A : (m, m) array_like
        Symmetric PSD coefficient matrix.  Eigenvalues may dip to
        -1e-9 * scale from roundoff; anything worse is rejected unless
        ``repair=True`` projects A back onto the PSD cone.
    X : (m, d) array_like
        Kernel centers.
    eta : (d,) array_like
        Positive per-coordinate precisions.
    rank_one_a : (m,) array_like, optional
        If A factors as a a^T, the vector a, checked against A up to
        roundoff.  Carried along so rank-one specific bounds stay
        available after conversion.
    """

    A: NDArray[np.float64]
    X: NDArray[np.float64]
    eta: NDArray[np.float64]
    rank_one_a: NDArray[np.float64] | None = None
    repair: bool = False

    def __post_init__(self):
        eta = validate_precisions(self.eta)
        X = _validate_centers(self.X, eta.size)
        m = X.shape[0]
        A = np.asarray(self.A, dtype=float)
        if A.shape != (m, m):
            raise ValueError("A must be (m, m) with m = number of centers")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        scale = max(np.abs(A).max(), 1.0)
        if np.abs(A - A.T).max() > 1e-10 * scale:
            raise ValueError("A must be symmetric")
        A = 0.5 * (A + A.T)
        eigmin = float(np.linalg.eigvalsh(A).min()) if m > 1 else float(A[0, 0])
        if eigmin < -1e-9 * scale:
            if self.repair:
                A = project_psd(A)
            else:
                raise ValueError(
                    "A is not positive semidefinite (min eigenvalue %.3e); "
                    "pass repair=True to project it" % eigmin
                )
        a = self.rank_one_a
        if a is not None:
            a = np.asarray(a, dtype=float)
            if a.shape != (m,) or not np.all(np.isfinite(a)):
                raise ValueError("rank_one_a must be a finite length-m vector")
            if np.abs(A - np.outer(a, a)).max() > 1e-10 * scale:
                raise ValueError("A must equal outer(rank_one_a, rank_one_a)")
            a.setflags(write=False)
        for arr in (A, X, eta):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "rank_one_a", a)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def evaluate(self, points) -> NDArray[np.float64] | float:
        """f at one point (float) or a batch of points (1-D array).

        Roundoff can push values a hair below zero; results are clamped
        at 0 so callers can treat them as an unnormalized density.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.d:
            raise ValueError("points must have dimension %d" % self.d)
        V = kernel_matrix(self.eta, pts, self.X)  # (n, m)
        vals = np.einsum("nj,nj->n", V @ self.A, V)
        np.maximum(vals, 0.0, out=vals)
        return float(vals[0]) if single else vals

    @cached_property
    def _pair_data(self):
        """Precomputed pairwise pieces reused by every box integral.

        The pair terms are symmetric in (i, j), so only the upper
        triangle is kept, with off-diagonal weights doubled.  Returns
        (midpoints (m*(m+1)/2, d), weights (m*(m+1)/2,)) where the
        unfolded weight is A_ij * k_{eta/2}(x_i, x_j) and the midpoint
        is the center pair average (x_i + x_j) / 2.
        """
        K_half = kernel_matrix(0.5 * self.eta, self.X)
        W = self.A * K_half
        iu, ju, mult, _ = _unique_pairs(self.m)
        weights = W[iu, ju] * mult
        mid = 0.5 * (self.X[iu] + self.X[ju])
        return mid, weights


@dataclass(frozen=True)
class RankOneModel:
    """Model with A = a a^T, stored as the vector a.

    ``linear_evaluate`` gives g(x) = sum_i a_i k_eta(x, x_i); the model
    density is g(x)^2, nonnegative by construction.
    """

    a: NDArray[np.float64]
    X: NDArray[np.float64]
    eta: NDArray[np.float64]

    def __post_init__(self):
        eta = validate_precisions(self.eta)
        X = _validate_centers(self.X, eta.size)
        a = np.asarray(self.a, dtype=float)
        if a.shape != (X.shape[0],):
            raise ValueError("a must have one coefficient per center")
        if not np.all(np.isfinite(a)):
            raise ValueError("a must be finite")
        for arr in (a, X, eta):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "eta", eta)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def linear_evaluate(self, points) -> NDArray[np.float64] | float:
        """g(x) = sum_i a_i k_eta(x, x_i); may be negative."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.d:
            raise ValueError("points must have dimension %d" % self.d)
        vals = kernel_matrix(self.eta, pts, self.X) @ self.a
        return float(vals[0]) if single else vals

    def evaluate(self, points) -> NDArray[np.float64] | float:
        g = self.linear_evaluate(points)
        return g * g

    def to_psd(self) -> GaussianPsdModel:
        """The equivalent full model, built once and reused.

        Caching keeps its PSD check and pair data from being recomputed
        by every integral on this model.
        """
        return self._psd

    @cached_property
    def _psd(self) -> GaussianPsdModel:
        return GaussianPsdModel(
            A=np.outer(self.a, self.a), X=self.X, eta=self.eta, rank_one_a=self.a
        )


@dataclass(frozen=True)
class LipschitzBounds:
    """Computable upper bounds on sup-norm Lipschitz constants.

    ``lip_f`` bounds the constant of f itself; ``lip_sqrt_f`` bounds the
    constant of the square root (available only when the rank-one vector
    is known, since it is built from a, not A).
    """

    lip_f: float
    lip_sqrt_f: float | None


def _as_psd(model) -> GaussianPsdModel:
    if isinstance(model, RankOneModel):
        return model.to_psd()
    if isinstance(model, GaussianPsdModel):
        return model
    raise TypeError("expected a GaussianPsdModel or RankOneModel")


def lipschitz_bounds(model) -> LipschitzBounds:
    """Smoothness constants for an isotropic model (all eta_k equal).

    With tau the shared precision, K the kernel Gram matrix of the
    centers at precision eta:

        Lip(f)      <= sqrt(8 tau) * d * ||K^{1/2} A K^{1/2}||_op
        Lip(sqrt f) <= sqrt(2 tau) * d * ||K^{1/2} a||_2   (rank one)

    Anisotropic precisions are rejected; the constants are only valid
    for a single shared tau.
    """
    model = _as_psd(model)
    eta = model.eta
    tau = float(eta[0])
    if not np.allclose(eta, tau, rtol=1e-12, atol=0.0):
        raise ValueError("lipschitz_bounds needs isotropic eta (all entries equal)")
    d = model.d
    K = kernel_matrix(eta, model.X)
    w, V = np.linalg.eigh(K)
    w = np.clip(w, 0.0, None)
    S = (V * np.sqrt(w)) @ V.T
    SAS = S @ model.A @ S
    op = float(np.clip(np.linalg.eigvalsh(SAS), 0.0, None).max())
    lip_f = np.sqrt(8.0 * tau) * d * op
    lip_sqrt = None
    if model.rank_one_a is not None:
        a = model.rank_one_a
        lip_sqrt = np.sqrt(2.0 * tau) * d * float(np.sqrt(max(a @ K @ a, 0.0)))
    return LipschitzBounds(lip_f=float(lip_f), lip_sqrt_f=lip_sqrt)


def tail_box(model, delta) -> tuple[HyperRectangle, float]:
    """Box around the centers plus a bound on the mass left outside.

    The box inflates the center bounding box by ``delta_k`` per side.
    The returned bound is

        2 pi^{d/2} det(diag(2 eta))^{-1/2} (sum_k e^{-2 eta_k delta_k^2})
        * sum_ij (A o K_{eta/2})_ij

    and dominates the integral of f outside the box.
    """
    model = _as_psd(model)
    delta = np.asarray(delta, dtype=float)
    if delta.shape == ():
        delta = np.full(model.d, float(delta))
    if delta.shape != (model.d,) or np.any(delta < 0) or not np.all(np.isfinite(delta)):
        raise ValueError("delta must be a nonnegative finite vector of length d")
    lo = model.X.min(axis=0) - delta
    hi = model.X.max(axis=0) + delta
    box = HyperRectangle(lo, hi)
    eta = model.eta
    K_half = kernel_matrix(0.5 * eta, model.X)
    pair_sum = float(np.sum(model.A * K_half))
    const = 2.0 * np.pi ** (model.d / 2.0) / np.sqrt(np.prod(2.0 * eta))
    bound = const * float(np.sum(np.exp(-2.0 * eta * delta**2))) * pair_sum
    return box, float(bound)


def model_to_dict(model) -> dict:
    """JSON-ready dict; floats survive a round trip exactly."""
    model_psd = _as_psd(model)
    out = {
        "format_version": FORMAT_VERSION,
        "A": model_psd.A.tolist(),
        "X": model_psd.X.tolist(),
        "eta": model_psd.eta.tolist(),
    }
    if model_psd.rank_one_a is not None:
        out["rank_one_a"] = model_psd.rank_one_a.tolist()
    return out


def model_from_dict(data: dict) -> GaussianPsdModel:
    if not isinstance(data, dict):
        raise ValueError("model document must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError("unsupported model format_version: %r" % (version,))
    for key in ("A", "X", "eta"):
        if key not in data:
            raise ValueError("model document is missing %r" % key)
    return GaussianPsdModel(
        A=np.asarray(data["A"], dtype=float),
        X=np.asarray(data["X"], dtype=float),
        eta=np.asarray(data["eta"], dtype=float),
        rank_one_a=(
            np.asarray(data["rank_one_a"], dtype=float)
            if data.get("rank_one_a") is not None
            else None
        ),
    )


def save_model(model, path) -> None:
    doc = model_to_dict(model)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path) -> GaussianPsdModel:
    return model_from_dict(json.loads(Path(path).read_text()))
