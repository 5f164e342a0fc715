"""Independent numerical oracles used by the tests.

Kept deliberately separate from the package's own quadrature so the
tests cross-check against a second implementation: fixed-panel tensor
Gauss-Legendre cubature, plenty for smooth Gaussian integrands in up to
three dimensions.  ``sample_reference`` keeps the sampler's earlier
level loop, which filled leaves level by level at tree-order offsets.
``integrate_boxes_reference`` keeps the earlier box-batch integral,
which evaluated erf per distinct edge in every chunk, and
``intervals_reference`` the earlier ``integration._intervals``, which
found every axis' intervals by sorting.
"""

import numpy as np
from scipy.special import erf as _erf

from psdsample import integration
from psdsample.boxes import bisect, rng_from_seed, split_axes
from psdsample.exceptions import EmptyMassError
from psdsample.integration import IntegralAccounting, integrate, integrate_boxes
from psdsample.models import _as_psd
from psdsample.sampler import SampleRun, _binomial_inversion


def gl_box_integral(fn, lower, upper, panels=8, order=16):
    """Tensor Gauss-Legendre integral of fn over a box in d <= 3.

    fn maps (n, d) points to n values.  Each axis is cut into `panels`
    equal pieces with an `order`-point rule per piece, so the node grid
    has (panels * order)^d points.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = lower.size
    if d > 3:
        raise ValueError("oracle cubature only supports d <= 3")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes_nodes, axes_weights = [], []
    for k in range(d):
        edges = np.linspace(lower[k], upper[k], panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        axes_nodes.append(x)
        axes_weights.append(w)
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*axes_weights, indexing="ij")
    w = np.ones(pts.shape[0])
    for wm in wmesh:
        w = w * wm.ravel()
    vals = np.asarray(fn(pts), dtype=float)
    return float(vals @ w)


def outside_mass(model, box, reach=8.0, panels=24, order=16):
    """Model mass outside `box`, by cubature on an enclosing box.

    The enclosing box extends `reach` kernel length scales beyond the
    model's centers, far enough that the remaining tail is negligible
    at double precision.
    """
    pad = reach / np.sqrt(2.0 * np.min(model.eta))
    lo = np.minimum(model.X.min(axis=0) - pad, box.lower)
    hi = np.maximum(model.X.max(axis=0) + pad, box.upper)
    total = gl_box_integral(model.evaluate, lo, hi, panels=panels, order=order)
    inner = gl_box_integral(
        model.evaluate, box.lower, box.upper, panels=panels, order=order
    )
    return max(total - inner, 0.0)


def pairwise_kernel_sum(X, Y, eta):
    """Sum of exp(-eta * ||x - y||^2) over all row pairs, from the differences."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    total = 0.0
    for x in X:
        total += float(np.exp(-eta * np.sum((Y - x) ** 2, axis=1)).sum())
    return total


def sample_reference(model, box, params):
    """``sampler.sample`` as a level loop with per-level fills and
    tree-order output offsets; same draws, other row order."""
    n_total = int(params.n_samples)
    d = box.dim
    rng = rng_from_seed(int(params.seed))
    acct = IntegralAccounting()
    root_mass = integrate(model, box, acct)

    out = np.empty((n_total, d))
    leaf_count = 0
    if n_total == 0:
        return SampleRun(out, acct, float(params.rho), leaf_count)
    if root_mass <= 0.0:
        raise EmptyMassError("model has zero mass on the requested box")

    rho = float(params.rho)
    axes = split_axes(box, rho)

    lo = box.lower[None, :].copy()
    hi = box.upper[None, :].copy()
    mass = np.array([root_mass])
    cnt = np.array([n_total], dtype=np.int64)
    off = np.zeros(1, dtype=np.int64)

    for level in range(axes.size + 1):
        fill = (mass <= 0.0) | (level == axes.size)

        if np.any(fill):
            idx = np.nonzero(fill)[0]
            counts_f = cnt[idx]
            total = int(counts_f.sum())
            u = rng.random((total, d))
            rep_lo = np.repeat(lo[idx], counts_f, axis=0)
            rep_side = np.repeat(hi[idx] - lo[idx], counts_f, axis=0)
            starts = np.concatenate(([0], np.cumsum(counts_f)[:-1]))
            dest = np.repeat(off[idx] - starts, counts_f) + np.arange(total)
            out[dest] = rep_lo + u * rep_side
            leaf_count += idx.size

        keep = np.nonzero(~fill)[0]
        if keep.size == 0:
            break
        ilo = lo[keep]
        ihi = hi[keep]
        imass = mass[keep]
        icnt = cnt[keep]
        ioff = off[keep]
        left_hi, right_lo = bisect(ilo, ihi, axes[level])

        left_mass = integrate_boxes(model, ilo, left_hi, acct)
        np.minimum(left_mass, imass, out=left_mass)
        k = _binomial_inversion(rng, icnt, left_mass / imass)
        right_mass = imass - left_mass

        take_l = k > 0
        take_r = (icnt - k) > 0
        lo = np.concatenate([ilo[take_l], right_lo[take_r]])
        hi = np.concatenate([left_hi[take_l], ihi[take_r]])
        mass = np.concatenate([left_mass[take_l], right_mass[take_r]])
        cnt = np.concatenate([k[take_l], (icnt - k)[take_r]])
        off = np.concatenate([ioff[take_l], (ioff + k)[take_r]])

    out = out[rng.permutation(n_total)]
    return SampleRun(out, acct, rho, leaf_count)


def integrate_boxes_reference(model, lowers, uppers, acct=None):
    """``integration.integrate_boxes`` with erf rows per distinct edge of
    each chunk, read at ``integration._CHUNK_ELEMS`` as it is set when
    called; same values and accounting, ``erf_evals`` left as it is."""
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
    step = max(1, integration._CHUNK_ELEMS // max(1, n_pairs))
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


def intervals_reference(lo, hi):
    """Distinct edges and (lo, hi) intervals of one axis.

    Returns the sorted distinct edges, each interval's lower and upper
    edge index into them, and each box's interval index.  Sampler levels
    and dyadic leaf sets pair every lower edge with one upper edge, so
    one sort of the lower edges finds the intervals; in any other batch
    each box keeps an interval of its own.
    """
    lo_u, inv = np.unique(lo, return_inverse=True)
    hi_u = np.empty_like(lo_u)
    hi_u[inv] = hi
    if np.array_equal(hi_u[inv], hi):
        edges, idx = np.unique(np.concatenate((lo_u, hi_u)), return_inverse=True)
        return edges, idx[: lo_u.size], idx[lo_u.size :], inv
    edges, idx = np.unique(np.concatenate((lo_u, hi)), return_inverse=True)
    return edges, idx[: lo_u.size][inv], idx[lo_u.size :], np.arange(hi.size)
