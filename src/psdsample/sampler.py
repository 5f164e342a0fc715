"""Rejection-free i.i.d. sampling from a Gaussian PSD model on a box.

The sampler halves every box of a level on the axis ``boxes.split_axes``
names for that level and splits the sample count between the halves
with an exact binomial draw on the mass ratio.  A leaf is a cell of the
grid whose depth per axis is the halving count of the box side to rho
(``metrics.dyadic_density`` lists them row-major; midpoint rounding can
leave a side a few ulps above rho); inside it, points are uniform.  A
final random permutation makes the output exchangeable, so the N points
are i.i.d. from the piecewise-uniform density the leaves define.

Each visited internal node costs exactly one box integral: the left
child is integrated, the right child's mass is the difference.  With
the root integral that keeps the total at

    N * max(0, log2(vol(Q))) + N * d * log2(2 / rho) + 1

box integrals, each counted as 2 * d * m^2 erf terms in ``erf_calls``.
The boxes of one level share their edges, so the batched integral
evaluates erf only once per distinct edge, axis and unique pair, far
fewer times than that count.

The recursion is processed level by level with all boxes of a level
batched into single vectorized calls.  Randomness comes from one
counter-based Philox stream keyed on the seed; within a level, leaf
fills consume draws before the binomial splits, and the permutation is
drawn last.  Identical seed and inputs reproduce the run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
# binom.ppf's kernel; scipy.stats would add about 0.9 s to every import
from scipy.special._ufuncs import _binom_ppf

from .boxes import HyperRectangle, bisect, split_axes
from .exceptions import EmptyMassError, ResourceLimitError, UnboundedDomainError
from .integration import IntegralAccounting, integrate, integrate_boxes
from .models import lipschitz_bounds

__all__ = [
    "SamplerParams",
    "SampleRun",
    "sample",
    "adaptive_rho",
    "find_support",
    "integral_budget",
    "read_samples_csv",
    "write_samples_csv",
]

# find_support gives up after this many doublings of its box
_MAX_DOUBLINGS = 200
# rows per block that write_samples_csv converts to Python floats
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SamplerParams:
    """Leaf size, sample count and RNG seed for one sampling run."""

    rho: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be a positive finite number")
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 0):
            raise ValueError("n_samples must be a nonnegative integer")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class SampleRun:
    """Samples plus the instrumentation of the run that produced them."""

    samples: NDArray[np.float64]
    accounting: IntegralAccounting
    rho_used: float
    leaf_count: int


def integral_budget(box: HyperRectangle, rho: float, n_samples: int) -> float:
    """Cap on box integrals for a sampling run (one per visited node)."""
    vol = box.volume()
    return (
        n_samples * max(0.0, np.log2(vol))
        + n_samples * box.dim * np.log2(2.0 / rho)
        + 1.0
    )


def _rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _binomial_inversion(
    rng: np.random.Generator, n: NDArray[np.int64], q: NDArray[np.float64]
) -> NDArray[np.int64]:
    """Exact binomial draws via quantile inversion of one uniform each."""
    u = rng.random(n.size)
    k = _binom_ppf(u, n, q)
    return np.clip(k, 0, n).astype(np.int64)


def sample(model, box: HyperRectangle, params: SamplerParams) -> SampleRun:
    """Draw ``params.n_samples`` i.i.d. points from the model on ``box``.

    Raises ``UnboundedDomainError`` for an unbounded box (run
    ``find_support`` first) and ``EmptyMassError`` when the model's mass
    on the box is zero.  Leaves are the cells of the ``split_axes`` grid,
    but a box whose mass underflows to zero is filled as a leaf.
    """
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    if not box.is_bounded():
        raise UnboundedDomainError(
            "sampling needs a bounded box; use find_support to get one"
        )
    n_total = int(params.n_samples)
    d = box.dim
    rng = _rng_from_seed(int(params.seed))
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


def adaptive_rho(model, box: HyperRectangle, epsilon: float, metric: str = "tv") -> float:
    """Leaf size guaranteeing a sampling error of at most epsilon.

    For ``metric="tv"`` the total variation between the model density on
    the box and the sampled piecewise-uniform density stays below
    epsilon; ``metric="hellinger"`` does the same for the Hellinger
    distance and needs the rank-one vector.  Both use the computable
    smoothness constants, so the model must be isotropic.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    if not box.is_bounded():
        raise UnboundedDomainError("adaptive_rho needs a bounded box")
    vol = box.volume()
    if vol <= 0:
        raise ValueError("box must have positive volume")
    mass = integrate(model, box)
    if mass <= 0.0:
        raise EmptyMassError("model has zero mass on the requested box")
    lips = lipschitz_bounds(model)
    if metric == "tv":
        if lips.lip_f <= 0.0:
            raise ValueError("degenerate model: zero smoothness bound")
        return float(mass * epsilon / (vol * lips.lip_f))
    if metric == "hellinger":
        if lips.lip_sqrt_f is None:
            raise ValueError("hellinger leaf size needs a rank-one model")
        if lips.lip_sqrt_f <= 0.0:
            raise ValueError("degenerate model: zero smoothness bound")
        return float(np.sqrt(mass) * epsilon / (np.sqrt(vol) * lips.lip_sqrt_f))
    raise ValueError("metric must be 'tv' or 'hellinger'")


def find_support(
    model,
    eps_mass: float,
    acct: IntegralAccounting | None = None,
) -> HyperRectangle:
    """Bounded box capturing at least ``1 - eps_mass`` of the total mass.

    Starts from the bounding box of the centers and doubles it about its
    center until the captured share suffices.  Zero-length sides (a
    single center, or collinear centers) are first widened to the length
    scale of the kernel, since doubling cannot grow them from zero.
    """
    if not (0.0 < eps_mass < 1.0):
        raise ValueError("eps_mass must lie strictly between 0 and 1")
    total = integrate(model, HyperRectangle.whole_space(model.d), acct)
    if total <= 0.0:
        raise EmptyMassError("model has zero total mass")
    box = HyperRectangle.bounding_box(model.X)
    sides = box.side_lengths
    if np.any(sides == 0.0):
        half = np.where(sides == 0.0, 1.0 / np.sqrt(2.0 * model.eta), 0.5 * sides)
        box = HyperRectangle(box.center - half, box.center + half)
    for _ in range(_MAX_DOUBLINGS + 1):
        if integrate(model, box, acct) / total >= 1.0 - eps_mass:
            return box
        box = box.double_size()
    raise ResourceLimitError(
        "support search did not reach the mass target in %d doublings" % _MAX_DOUBLINGS
    )


def write_samples_csv(samples, path) -> None:
    """Headerless CSV, one point per row, shortest round-trip decimals."""
    arr = np.atleast_2d(np.asarray(samples, dtype=float))
    with open(path, "w") as fh:
        # Python floats are made one block of rows at a time: a list of
        # the whole array would take about 50 bytes per value on top of it
        for start in range(0, arr.shape[0], _CSV_BLOCK_ROWS):
            for row in arr[start : start + _CSV_BLOCK_ROWS].tolist():
                fh.write(",".join(map(repr, row)))
                fh.write("\n")


def read_samples_csv(path) -> NDArray[np.float64]:
    return np.loadtxt(path, delimiter=",", ndmin=2)
