"""Closed-form integrals of Gaussian PSD models over hyper-rectangles.

The product of two centered kernels collapses to a single kernel at the
pair midpoint,

    k_eta(x, x_i) k_eta(x, x_j)
        = k_{eta/2}(x_i, x_j) * k_{2 eta}(x, (x_i + x_j) / 2),

so the integral of the model over a box Q factors into m^2 terms, each a
product of one-dimensional Gaussian integrals expressed through erf.  The
closed form of a finite box has 2 * d * m^2 erf terms; infinite endpoints
substitute erf(+-inf) = +-1 and are not counted.  ``erf_calls`` reports
that term count, which the tests pin, not the erfs actually evaluated.
The evaluation does less work: the (i, j) and (j, i) terms are identical,
so each unique pair is evaluated once, and a batch of boxes evaluates erf
once per distinct edge per axis, which bisected boxes share heavily.

A rank-one model is integrated through its cached full form
(``RankOneModel.to_psd``).  ``quartic_gram`` and ``integrate_squared``
share one row-chunked erf loop for the squared model and one check of
its pair-product cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import erf as _erf

from .boxes import HyperRectangle
from .exceptions import ResourceLimitError
from .kernels import kernel_matrix
from .models import _as_psd

__all__ = [
    "IntegralAccounting",
    "integrate",
    "integrate_boxes",
    "integrate_squared",
    "quartic_gram",
]

# elements per chunk array when batching erf over boxes and pairs; 8 MB
# arrays ran integrate_boxes twice as fast as 32 MB ones on a 2-core Xeon
_CHUNK_ELEMS = 1_000_000


@dataclass
class IntegralAccounting:
    """Counters for the work spent inside box integrals.

    ``integral_evals`` counts box integrals.  ``erf_calls`` counts the
    closed form's erf terms at finite bounds, 2 * d * m^2 per finite box;
    a batch evaluates erf only once per distinct edge per axis and unique
    pair, so fewer erfs are actually computed.  Both only ever grow.
    """

    integral_evals: int = 0
    erf_calls: int = 0

    def add(self, other: "IntegralAccounting") -> None:
        self.integral_evals += other.integral_evals
        self.erf_calls += other.erf_calls


def integrate_boxes(
    model,
    lowers,
    uppers,
    acct: IntegralAccounting | None = None,
) -> NDArray[np.float64]:
    """Integral of the model over a batch of boxes.

    ``lowers`` and ``uppers`` are (B, d) corner arrays (infinities
    allowed).  Returns a length-B vector, clamped at zero since roundoff
    can leave residuals of order -1e-12 on a PSD model.
    """
    model = _as_psd(model)
    mid, w = model._pair_data
    lowers = np.atleast_2d(np.asarray(lowers, dtype=float))
    uppers = np.atleast_2d(np.asarray(uppers, dtype=float))
    d = model.d
    if lowers.shape != uppers.shape or lowers.shape[1] != d:
        raise ValueError("corner arrays must both be (B, d)")
    if np.any(np.isnan(lowers)) or np.any(np.isnan(uppers)):
        raise ValueError("box corners must not be NaN")
    if np.any(lowers > uppers):
        raise ValueError("need lower <= upper for every box")

    s = np.sqrt(2.0 * model.eta)  # per-coordinate scale of k_{2 eta}
    # (pi/4)^{d/2} * det(diag(2 eta))^{-1/2}
    c = float(np.prod(np.sqrt(np.pi) / (2.0 * s)))

    B = lowers.shape[0]
    n_pairs = mid.shape[0]
    out = np.empty(B)
    step = max(1, _CHUNK_ELEMS // max(1, n_pairs))
    # One set of chunk buffers per call, filled in place: fresh multi-MB
    # temporaries for every chunk cost a page fault per 4 KB page.  The
    # indices are in range, and take's default mode="raise" would copy
    # through a temporary.
    bufs = np.empty((3, min(step, B) * n_pairs))
    for start in range(0, B, step):
        stop = min(B, start + step)
        b = stop - start
        acc, upper, lower = (buf[: b * n_pairs].reshape(b, n_pairs) for buf in bufs)
        acc.fill(1.0)
        for k in range(d):
            # Bisected boxes share few distinct edges per axis, so erf is
            # evaluated once per distinct edge and gathered per box.
            edges, idx = np.unique(
                np.concatenate((lowers[start:stop, k], uppers[start:stop, k])),
                return_inverse=True,
            )
            rows = _erf(s[k] * (edges[:, None] - mid[None, :, k]))
            np.take(rows, idx[b:], axis=0, out=upper, mode="clip")
            np.take(rows, idx[:b], axis=0, out=lower, mode="clip")
            np.subtract(upper, lower, out=upper)
            acc *= upper
        out[start:stop] = acc @ w
    if acct is not None:
        # The counter reports the closed form's term count: one erf per
        # pair (i, j) per finite bound, even though symmetric duplicates
        # and shared edges are evaluated once.
        finite_bounds = np.isfinite(lowers).sum() + np.isfinite(uppers).sum()
        acct.erf_calls += int(finite_bounds) * model.m**2
        acct.integral_evals += B
    np.maximum(out, 0.0, out=out)
    return c * out


def integrate(model, box: HyperRectangle, acct: IntegralAccounting | None = None) -> float:
    """Integral of the model over one hyper-rectangle (may be R^d)."""
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    vals = integrate_boxes(model, box.lower[None, :], box.upper[None, :], acct)
    return float(vals[0])


def _check_pair_cap(n_pairs: int, pair_cap: float) -> None:
    if float(n_pairs) ** 2 > pair_cap:
        raise ResourceLimitError(
            "quartic closed form needs %.3g pair products (cap %.3g); "
            "use Monte Carlo integration of the squared model instead"
            % (float(n_pairs) ** 2, pair_cap)
        )


def _quartic_erf_rows(mid, eta, box: HyperRectangle):
    """Row chunks of the quartic erf products over a box.

    Yields ``(start, stop, J)`` with J[p - start, q] the product over
    axes of the k_{4 eta} Gaussian integral, without its constant, at the
    average of pair midpoints p and q.
    """
    n_pairs, d = mid.shape
    s = np.sqrt(4.0 * eta)
    step = max(1, _CHUNK_ELEMS // max(1, n_pairs * d))
    for start in range(0, n_pairs, step):
        stop = min(n_pairs, start + step)
        centers = 0.5 * (mid[start:stop, None, :] + mid[None, :, :])  # (b, pairs, d)
        erf_hi = _erf(s * (box.upper - centers))
        erf_lo = _erf(s * (box.lower - centers))
        yield start, stop, (erf_hi - erf_lo).prod(axis=2)


def quartic_gram(
    X,
    eta,
    box: HyperRectangle,
    pair_cap: float = 1e8,
) -> NDArray[np.float64]:
    """Gram tensor of pairwise kernel products over a box.

    Entry (p, q), with p = (i, j) and q = (k, l) flattened row-major,
    equals the integral over the box of

        k_eta(x, x_i) k_eta(x, x_j) k_eta(x, x_k) k_eta(x, x_l).

    Collapsing pairs to midpoints twice leaves a single k_{4 eta} kernel,
    so each entry is again an erf product.  The result is an
    (m^2, m^2) symmetric PSD matrix; for any coefficient matrix A,
    vec(A)^T G vec(A) integrates the squared model.

    Raises ``ResourceLimitError`` when the m^4 pair products exceed
    ``pair_cap``; at that size a Monte Carlo estimate of the squared
    integral is the sane alternative.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    eta = np.asarray(eta, dtype=float)
    m, d = X.shape
    n_pairs = m * m
    _check_pair_cap(n_pairs, pair_cap)
    if box.dim != d:
        raise ValueError("box dimension does not match the centers")

    K_half = kernel_matrix(0.5 * eta, X).ravel()  # (m^2,)
    mid = 0.5 * (X[:, None, :] + X[None, :, :]).reshape(n_pairs, d)
    K_mid = kernel_matrix(eta, mid)  # (m^2, m^2)
    c = float(np.prod(np.sqrt(np.pi) / (2.0 * np.sqrt(4.0 * eta))))

    J = np.empty((n_pairs, n_pairs))
    for start, stop, rows in _quartic_erf_rows(mid, eta, box):
        J[start:stop] = rows
    G = np.outer(K_half, K_half) * K_mid * (c * J)
    return 0.5 * (G + G.T)


def integrate_squared(model, box: HyperRectangle, pair_cap: float = 1e8) -> float:
    """Integral of f^2 over a box via the quartic closed form.

    Accumulates the bilinear form over the (m(m+1)/2)^2 unique pair
    products in row chunks, so memory stays bounded even near the pair
    cap.
    """
    model = _as_psd(model)
    mid, w = model._pair_data
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    _check_pair_cap(mid.shape[0], pair_cap)
    c = float(np.prod(np.sqrt(np.pi) / (2.0 * np.sqrt(4.0 * model.eta))))
    total = 0.0
    for start, stop, J in _quartic_erf_rows(mid, model.eta, box):
        K_rows = kernel_matrix(model.eta, mid[start:stop], mid)
        total += float(w[start:stop] @ ((K_rows * J) @ w))
    return max(c * total, 0.0)
