"""Independent numerical oracles used by the tests.

Kept deliberately separate from the package's own quadrature so the
tests cross-check against a second implementation: fixed-panel tensor
Gauss-Legendre cubature, plenty for smooth Gaussian integrands in up to
three dimensions.
"""

import numpy as np


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
