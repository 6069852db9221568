"""Discretized curves on a shared time grid.

A curve is observed at D points t_1 < ... < t_D spanning a horizon T, and
integrals over [0, T] are approximated by quadrature, so each curve reduces
to a length-D value vector plus a grid carrying the quadrature weights.
The norm below is therefore the discretized L2[0, T] norm. With the
default uniform weights q_d = T/D and T = 1, it is the root-mean-square
of the values. The horizon only rescales norms by a
constant factor, which drops out of any location statistic computed from
them (medians in particular) but does rescale variance functions; callers
who care about absolute variance units must pick T deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "TimeGrid",
    "Curve",
    "CurvePopulation",
    "norm",
    "pointwise_median",
    "lower_median",
    "as_matrix",
    "as_vector",
    "values_on_grid",
]

_SUM_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Discretization points and positive quadrature weights on [0, T].

    Invariants: points strictly increasing, weights positive, and the
    weights sum to the horizon T up to 1e-12 relative error.
    """

    points: np.ndarray
    weights: np.ndarray
    horizon: float

    def __post_init__(self):
        points = _readonly(np.atleast_1d(self.points))
        weights = _readonly(np.atleast_1d(self.weights))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "horizon", float(self.horizon))
        if points.ndim != 1 or weights.ndim != 1:
            raise ValueError("grid points and weights must be one-dimensional")
        if points.shape != weights.shape:
            raise ValueError("grid points and weights must have equal length")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise ValueError("grid points and weights must be finite")
        if points.size > 1 and not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if abs(weights.sum() - self.horizon) > _SUM_RTOL * self.horizon:
            raise ValueError(
                f"quadrature weights sum to {weights.sum()!r}, expected horizon {self.horizon!r}"
            )

    @classmethod
    def uniform(cls, n_points: int, horizon: float = 1.0) -> "TimeGrid":
        """Equally spaced grid with uniform weights T/D (midpoint rule)."""
        if n_points < 1:
            raise ValueError("need at least one grid point")
        step = horizon / n_points
        points = (np.arange(n_points) + 0.5) * step
        return cls(points=points, weights=np.full(n_points, step), horizon=horizon)

    @classmethod
    def from_points(cls, points, horizon: float | None = None) -> "TimeGrid":
        """Build a grid from explicit points.

        Equally spaced points get uniform weights (the spacing, or T/D when a
        horizon is given). Unevenly spaced points get trapezoid weights over
        their span, and the horizon is the span.
        """
        points = np.asarray(points, dtype=float)
        n = points.size
        if n == 1:
            t = float(horizon) if horizon is not None else 1.0
            return cls(points=points, weights=np.array([t]), horizon=t)
        diffs = np.diff(points)
        if np.allclose(diffs, diffs[0], rtol=1e-9, atol=0.0):
            t = float(horizon) if horizon is not None else float(diffs.mean() * n)
            return cls(points=points, weights=np.full(n, t / n), horizon=t)
        if horizon is not None:
            raise ValueError("explicit horizon is only supported for equally spaced points")
        weights = np.empty(n)
        weights[0] = diffs[0] / 2
        weights[-1] = diffs[-1] / 2
        weights[1:-1] = (diffs[:-1] + diffs[1:]) / 2
        return cls(points=points, weights=weights, horizon=float(points[-1] - points[0]))

    @property
    def n_points(self) -> int:
        return self.points.size

    def matches(self, other: "TimeGrid") -> bool:
        return self is other or (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def norms(self, values: np.ndarray) -> np.ndarray:
        """Grid norms along the last axis; works on single vectors and batches."""
        return np.sqrt(np.square(values) @ self.weights)

    def integrate(self, values: np.ndarray) -> float:
        return float(values @ self.weights)


@dataclass(frozen=True, eq=False)
class Curve:
    """One unit's trajectory: a value per grid point."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        values = _readonly(np.atleast_1d(self.values))
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("curve values must be one-dimensional")
        if values.size != self.grid.n_points:
            raise ValueError(
                f"curve has {values.size} values but the grid has {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")


@dataclass(frozen=True, eq=False)
class CurvePopulation:
    """A finite population of curves sharing one grid.

    ids are unit labels (defaulting to 1..N) used for serialization and tie
    breaking; positional indices 0..N-1 are what samples refer to.
    """

    values: np.ndarray
    grid: TimeGrid
    ids: np.ndarray = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 2:
            raise ValueError("population values must be an (N, D) matrix")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        n, d = values.shape
        if n < 1:
            raise ValueError("population must contain at least one curve")
        if d != self.grid.n_points:
            raise ValueError("population row length does not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("population values must be finite")
        ids = self.ids
        if ids is None:
            ids = np.arange(1, n + 1)
        ids = np.asarray(ids)
        if ids.shape != (n,):
            raise ValueError("ids must have one label per curve")
        if len(np.unique(ids)) != n:
            raise ValueError("unit ids must be unique")
        ids = ids.copy()
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.n_units

    def subset(self, indices) -> "CurvePopulation":
        """The curves at the given positions, in the given order.

        A strictly increasing, in-range vector of integer positions (what a
        sample draw holds) picks distinct rows already checked here, so
        their copies skip the constructor's checks. Any other index array
        goes through the constructor and its errors.
        """
        indices = np.asarray(indices)
        if (
            indices.ndim == 1
            and indices.size
            and np.issubdtype(indices.dtype, np.integer)
            and 0 <= indices[0]
            and indices[-1] < self.n_units
            and np.all(indices[1:] > indices[:-1])
        ):
            return CurvePopulation._trusted(self.values[indices], self.grid, self.ids[indices])
        return CurvePopulation(self.values[indices], self.grid, ids=self.ids[indices])

    @classmethod
    def _trusted(cls, values: np.ndarray, grid: TimeGrid, ids: np.ndarray) -> "CurvePopulation":
        """Keep, read-only and uncopied, a checked finite (N, D) matrix and N unique ids."""
        out = object.__new__(cls)
        for name, array in (("values", values), ("ids", ids)):
            array.setflags(write=False)
            object.__setattr__(out, name, array)
        object.__setattr__(out, "grid", grid)
        return out


def as_matrix(source) -> tuple[np.ndarray, TimeGrid]:
    """Normalize a CurvePopulation, Curve sequence, or single Curve to (values, grid)."""
    if isinstance(source, CurvePopulation):
        return source.values, source.grid
    if isinstance(source, Curve):
        return source.values[None, :], source.grid
    curves = list(source)
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    if not all(c.grid.matches(grid) for c in curves[1:]):
        raise GridMismatchError("curves are not defined on the same time grid")
    return np.vstack([c.values for c in curves]), grid


def norm(a: Curve) -> float:
    """Grid norm sqrt(sum_d q_d a(t_d)^2)."""
    return float(a.grid.norms(a.values))


def as_vector(y) -> np.ndarray:
    """Value vector of a Curve, or a plain array as floats."""
    return y.values if isinstance(y, Curve) else np.asarray(y, dtype=float)


def values_on_grid(z, grid: TimeGrid | None = None) -> tuple[np.ndarray, TimeGrid]:
    """(values, grid) of anything carrying both, or of a plain array on an explicit grid."""
    if hasattr(z, "values") and hasattr(z, "grid"):
        return np.asarray(z.values, dtype=float), z.grid
    if grid is None:
        raise ValueError("grid is required when the values are a plain array")
    return np.asarray(z, dtype=float), grid


def _positive_weights(weights, n: int) -> np.ndarray:
    """Unit weights when None, else a length-n vector of positive finite floats."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be positive and finite")
    return w


def pointwise_median(pop: CurvePopulation, weights=None) -> Curve:
    """Coordinate-wise (weighted) median across units.

    Uses the lower-median convention: at each t_d the result is the smallest
    value whose cumulative weight reaches half the total.
    """
    values = pop.values
    if weights is None:
        return Curve(lower_median(values), pop.grid)
    n, _ = values.shape
    w = _positive_weights(weights, n)
    total = w.sum()
    order = np.argsort(values, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=0)
    sorted_w = np.take_along_axis(np.broadcast_to(w[:, None], values.shape), order, axis=0)
    cum = np.cumsum(sorted_w, axis=0)
    # the tiny slack keeps exact-half ties (even unit-weight counts) on the lower value
    target = 0.5 * total * (1.0 - 1e-12)
    idx = np.argmax(cum >= target, axis=0)
    med = np.take_along_axis(sorted_vals, idx[None, :], axis=0)[0]
    return Curve(med, pop.grid)


def lower_median(values: np.ndarray) -> np.ndarray:
    """Unit-weight lower median of each column of an (N, D) matrix.

    Selects the value of rank (N + 1) // 2 in each column, the value the
    weighted rule above picks when every weight is one, without sorting.
    """
    k = (values.shape[0] + 1) // 2 - 1
    med = np.partition(values, k, axis=0)[k].copy()
    # -0.0 and 0.0 tie; a stable sort decides which sign of zero has rank k
    zero = np.flatnonzero(med == 0)
    if zero.size:
        med[zero] = np.sort(values[:, zero], axis=0, kind="stable")[k]
    return med
