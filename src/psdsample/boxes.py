"""Axis-aligned hyper-rectangles.

Boxes are half-open, ``lower[k] <= x_k < upper[k]``, which is what lets a
dyadic bisection partition a box without overlap or gaps.  Infinite
endpoints are allowed; operations that need a bounded box say so.

``split_axes`` fixes the dyadic partition with leaf size rho, the axis
each level halves, so that every leaf is a cell of one grid.
``bisect`` halves a batch of boxes, as the quadrature needs; the sampler
and ``metrics._axis_edges`` halve the cells of the leaf grid with the
same arithmetic, 0.5 * (lo + hi).
``rng_from_seed`` is the one random stream of the package's seeded draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class HyperRectangle:
    """Product of half-open intervals ``[lower_k, upper_k)``."""

    lower: NDArray[np.float64]
    upper: NDArray[np.float64]

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValueError("lower and upper must be matching 1-D vectors")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("box endpoints must not be NaN")
        if np.any(lo > hi):
            raise ValueError("need lower <= upper in every coordinate")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def side_lengths(self) -> NDArray[np.float64]:
        return self.upper - self.lower

    @property
    def center(self) -> NDArray[np.float64]:
        return 0.5 * (self.lower + self.upper)

    def volume(self) -> float:
        """Product of side lengths; inf for unbounded, 0 for degenerate."""
        sides = self.side_lengths
        if np.any(sides == 0.0) and np.any(np.isinf(sides)):
            raise ValueError("box mixes zero-length and infinite sides")
        return float(np.prod(sides))

    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def contains(self, points) -> NDArray[np.bool_]:
        """Half-open membership test for one point or a batch."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)

    def double_size(self) -> "HyperRectangle":
        """Double every side length about the center."""
        if not self.is_bounded():
            raise ValueError("cannot double an unbounded box")
        c = self.center
        half = self.side_lengths  # new half-width = old full width
        return HyperRectangle(c - half, c + half)

    @classmethod
    def bounding_box(cls, points) -> "HyperRectangle":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def whole_space(cls, dim: int) -> "HyperRectangle":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))


def bisect(lo, hi, axis) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Bisect a batch of boxes along ``axis``, one int or one per box.

    ``lo`` and ``hi`` are (B, d) corner arrays.  Each box is split at the
    floating-point average of its endpoints, so repeated splits of a
    dyadic box stay exact.  Returns ``(left_hi, right_lo)``: the left
    half is ``(lo, left_hi)`` and the right half is ``(right_lo, hi)``.
    """
    rows = np.arange(lo.shape[0])
    mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
    left_hi = hi.copy()
    left_hi[rows, axis] = mid
    right_lo = lo.copy()
    right_lo[rows, axis] = mid
    return left_hi, right_lo


def split_axes(box: HyperRectangle, rho: float) -> NDArray[np.int64]:
    """Axis halved at each level of the dyadic partition with leaf size rho.

    Each level halves the longest side (lowest index on ties) of the cell
    shape all its boxes share, the box's sides times powers of one half,
    until every side is at most rho; ``np.bincount`` of the schedule gives
    the halvings per axis.  Midpoint rounding can leave an actual leaf
    side a few ulps above rho.
    """
    if not box.is_bounded():
        raise ValueError("cannot count halvings of an unbounded box")
    if not rho > 0:
        raise ValueError("rho must be positive")
    shape = box.side_lengths
    axes = []
    while shape.max() > rho:
        axes.append(int(np.argmax(shape)))
        shape[axes[-1]] *= 0.5
    return np.array(axes, dtype=np.int64)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed on a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))
