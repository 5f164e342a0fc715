"""Histogram-style baseline sampler on a regular grid.

Given an evaluation budget of n density queries on a box in d dimensions,
the baseline tiles the box with s = floor(n**(1/d)) tiles per axis,
queries the density once at each tile center, and samples by picking a
tile from the induced categorical distribution and then a uniform point
inside it.  Actual evaluations used equal s**d, which can be below the
budget; the count is recorded on the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boxes import HyperRectangle, rng_from_seed
from .exceptions import EmptyMassError


@dataclass(frozen=True)
class GridSampler:
    """Categorical-over-tiles sampler produced by :func:`build_grid`."""

    box: HyperRectangle
    shape: tuple[int, ...]
    probabilities: np.ndarray
    evaluations: int

    @property
    def dim(self) -> int:
        return self.box.dim

    def tile_centers(self) -> np.ndarray:
        """Centers of all tiles, in flat C order, shape (s**d, d)."""
        widths = self.box.side_lengths / np.asarray(self.shape, dtype=float)
        axes = [
            self.box.lower[k] + (np.arange(s) + 0.5) * widths[k]
            for k, s in enumerate(self.shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def sample(self, n_samples: int, seed: int) -> np.ndarray:
        """Draw n_samples i.i.d. points, deterministic in the seed."""
        if n_samples < 0:
            raise ValueError("n_samples must be nonnegative")
        rng = rng_from_seed(seed)
        if n_samples == 0:
            return np.empty((0, self.dim))
        cdf = np.cumsum(self.probabilities)
        cdf[-1] = 1.0
        flat = np.searchsorted(cdf, rng.random(n_samples), side="right")
        flat = np.minimum(flat, self.probabilities.size - 1)
        idx = np.stack(np.unravel_index(flat, self.shape), axis=1)
        widths = self.box.side_lengths / np.asarray(self.shape, dtype=float)
        lows = self.box.lower + idx * widths
        return lows + rng.random((n_samples, self.dim)) * widths


def build_grid(
    fn: Callable[[np.ndarray], np.ndarray],
    box: HyperRectangle,
    budget: int,
) -> GridSampler:
    """Build the grid baseline from an evaluation budget.

    fn is queried once per tile center; negative values are treated as
    zero mass.  Raises EmptyMassError when every tile center evaluates
    to zero, since no categorical distribution exists then.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not box.is_bounded():
        raise ValueError("grid baseline requires a bounded box")
    d = box.dim
    s = int(np.floor(budget ** (1.0 / d)))
    # Guard against floating-point underestimation of exact roots.
    while (s + 1) ** d <= budget:
        s += 1
    while s > 1 and s**d > budget:
        s -= 1
    shape = (s,) * d

    sampler = GridSampler(
        box=box,
        shape=shape,
        probabilities=np.full(s**d, 1.0 / s**d),
        evaluations=s**d,
    )
    values = np.asarray(fn(sampler.tile_centers()), dtype=float)
    if values.shape != (s**d,):
        raise ValueError(
            f"density returned shape {values.shape}, expected ({s**d},)"
        )
    weights = np.maximum(values, 0.0)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise EmptyMassError("density vanishes at every tile center")
    return GridSampler(
        box=box,
        shape=shape,
        probabilities=weights / total,
        evaluations=s**d,
    )
