"""Weighted L1-median of a set of curves.

The median m minimizes f(y) = sum_k w_k ||Y_k - y|| over curves y, with
the grid norm of `curves`. Equivalently it solves the estimating equation

    R(y) = sum_k w_k (Y_k - y) / ||Y_k - y|| = 0.

Away from the data curves f is smooth, and its Hessian is the operator G
that `linearize` uses for the variance (Bedall & Zimmermann, 1979). Each
iteration takes one of three steps:

- Newton. y + G^{-1} R(y), solved in sqrt(q)-scaled coordinates, where
  G is symmetric (see `scaled_operator`). The full step is taken. When
  the objective at the new point exceeds the objective at y by more than
  1e-12 of the starting objective, or the solve fails or gives a
  non-finite step, the Weiszfeld step from y replaces it. There is no
  backtracking, and a replaced step counts as one iteration.
- Weiszfeld. The point T(y) averaging the curves with weights
  w_k / ||Y_k - y||, which never raises the objective.
- Blend, when the iterate lands on a data curve, where R is undefined
  and so is G. Writing R for the estimating-equation value over the
  non-coincident curves and eta for the weight sitting exactly on the
  iterate (Vardi & Zhang), the next point is

      max(0, 1 - eta/||R||) * T + min(1, eta/||R||) * y,

  which also yields the stopping rule: a data curve is the median exactly
  when ||R|| <= eta there.

Newton steps need a D x D assembly and solve, which pays only when the
fit has several curves per grid point: fits with fewer than 3 D curves
start with Weiszfeld steps. Newton typically reaches the tolerance in 2
to 4 steps where Weiszfeld takes about 30. Weiszfeld converges only
linearly, though, and can need thousands of steps when the median lies
just off a data curve, or on one that the iterates approach without
landing. So after 100 steps every iteration first tests the nearest data
curve as the solution, and then steps by Newton whatever the row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import Curve, _positive_weights, _readonly, as_vector, lower_median

__all__ = ["SolverConfig", "MedianFit", "l1_median", "objective_value"]

# Newton steps pay for a D x D assembly and solve; with fewer curves per
# grid point than this, plain Weiszfeld steps reach the tolerance sooner
_NEWTON_ROWS_PER_POINT = 3
# Weiszfeld steps a fit with fewer rows takes before it turns to Newton
_WEISZFELD_PATIENCE = 100
# a curve coincides with a point when their grid distance is at most this
# times the data spread (the largest distance, floored at 1); the solver
# and the linearization both apply this one rule
_ANCHOR_EPS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the median iteration.

    tol is relative: the fit counts as converged when the optimality gap
    (see MedianFit.residual_norm) falls below tol times the total weight.
    max_iter caps the accepted steps; a Newton step replaced by its
    Weiszfeld fallback counts once. init is "pointwise-median" or an
    explicit starting Curve or value vector.
    """

    tol: float = 1e-8
    max_iter: int = 500
    init: str | Curve | np.ndarray = "pointwise-median"

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be a finite positive number")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True, eq=False)
class MedianFit:
    """Result of the median iteration.

    residual_norm is the optimality gap: the grid norm of the estimating
    equation over non-anchored curves, minus the anchored weight when the
    solution sits on a data curve (floored at zero). converged means the
    gap dropped below tol * total weight; a fit that ran out of iterations
    comes back with converged False and the last iterate, it never raises.
    maybe_non_unique flags populations whose curves are (numerically)
    collinear, the only geometry where the minimizer can fail to be unique;
    it is computed from the fitted curves on first read, so fits whose
    flag nobody reads skip the check. curves and weights are what the fit
    ran on (the weights as a read-only copy), and objective is
    sum_k w_k ||Y_k - median||, the last entry of objective_trace.
    """

    median: Curve
    converged: bool
    iterations: int
    residual_norm: float
    objective: float
    curves: object = field(repr=False)
    weights: np.ndarray = field(repr=False)
    anchored: bool = False
    anchor_index: int | None = None
    objective_trace: tuple = field(default=(), repr=False)

    @cached_property
    def maybe_non_unique(self) -> bool:
        return _collinear(self.curves.values, self.curves.grid)


def _anchor_radius(r: np.ndarray) -> float:
    """Distance below which a curve coincides with the point, relative to the data spread."""
    return _ANCHOR_EPS * max(float(r.max()) if r.size else 0.0, 1.0)


def _gap_at_curve(values: np.ndarray, grid, w: np.ndarray, k: int) -> float:
    """The optimality gap (see MedianFit.residual_norm) at data curve k, unfloored."""
    diffs = values - values[k]
    r = grid.norms(diffs)
    on_point = r <= _anchor_radius(r)
    off = ~on_point
    return float(grid.norms((w[off] / r[off]) @ diffs[off])) - float(w[on_point].sum())


def _initial_point(values, grid, init) -> np.ndarray:
    if isinstance(init, str):
        if init != "pointwise-median":
            raise ValueError(f"unknown init {init!r}")
        return lower_median(values)
    if isinstance(init, Curve):
        if not init.grid.matches(grid):
            raise ValueError("init curve is on a different grid")
        return init.values.copy()
    init = np.asarray(init, dtype=float)
    if init.shape != (grid.n_points,):
        raise ValueError("init vector length does not match the grid")
    return init.copy()


def _collinear(values: np.ndarray, grid) -> bool:
    """True when all curves lie on one line in the grid geometry.

    The test is s_1 <= 1e-8 s_0 on the singular values of the centered,
    sqrt(q)-scaled rows C. Most populations are certified non-collinear in
    O(N D) first: for the row a of largest norm and the row b farthest from
    the line through a, interlacing gives s_1(C) >= s_1([a; b]) >=
    |a| |b_perp| / sqrt(|a|^2 + |b|^2), and s_0(C) <= |C|_F. A bound above
    2e-8 |C|_F (twice the threshold, so rounding cannot flip the answer)
    settles it; anything else goes to the SVD.
    """
    if values.shape[0] <= 2 or values.shape[1] == 1:
        return True
    centered = values - values.mean(axis=0)
    centered *= np.sqrt(grid.weights)
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    fro2 = float(sq_norms.sum())
    # below this scale squared entries lose digits to underflow
    if 1e-200 < fro2 < np.inf:
        top = int(np.argmax(sq_norms))
        a, aa = centered[top], float(sq_norms[top])
        proj = centered @ a
        b = centered[np.argmax(sq_norms - proj * proj / aa)]
        # recompute b's residual directly: the difference above cancels badly
        b_perp = b - (float(b @ a) / aa) * a
        # |a|^2 |b_perp|^2 / (|a|^2 + |b|^2), in an order that cannot overflow
        lower2 = float(b_perp @ b_perp) / (1.0 + float(b @ b) / aa)
        if lower2 > 4e-16 * fro2:
            return False
    s = np.linalg.svd(centered, compute_uv=False)
    return bool(s[1] <= 1e-8 * s[0]) if s[0] > 0 else True


def scaled_operator(z: np.ndarray, inv_r: np.ndarray, r: np.ndarray, out=None) -> np.ndarray:
    """The derivative operator G at a point, in sqrt(q)-scaled coordinates.

    z holds the rows (Y_k - y) * sqrt(q) of the curves off the point, inv_r
    their w_k / r_k and r their distances r_k. The result is

        c I - z^T diag(w_k / r_k^3) z,   c = sum_k w_k / r_k,

    symmetric up to rounding. out, an array shaped like z, receives the
    weighted rows z * w_k / r_k^3 when given.
    """
    wz = np.multiply(z, (inv_r / (r * r))[:, None], out=out)
    sym = wz.T @ z
    np.negative(sym, out=sym)
    sym.flat[:: len(sym) + 1] += inv_r.sum()
    return sym


def l1_median(curves, weights=None, cfg: SolverConfig | None = None) -> MedianFit:
    """Compute the weighted L1-median of a curve set (see curves)."""
    cfg = cfg or SolverConfig()
    values, grid = curves.values, curves.grid
    w = _positive_weights(weights, values.shape[0])
    total_w = w.sum()
    y = _initial_point(values, grid, cfg.init)
    gap_tol = cfg.tol * total_w
    newton = values.shape[0] >= _NEWTON_ROWS_PER_POINT * values.shape[1]
    sqrt_q = np.sqrt(grid.weights)

    trace: list[float] = []
    gap = np.inf
    anchored = False
    anchor_index: int | None = None
    iterations = 0
    diffs = np.empty_like(values)
    sq = np.empty_like(values)
    # after a Newton step: the Weiszfeld weights at the point it left
    fallback = None

    for it in range(cfg.max_iter + 1):
        np.subtract(values, y, out=diffs)
        r = np.sqrt(np.square(diffs, out=sq) @ grid.weights)
        if it == 0:
            radius = _anchor_radius(r)
        objective = float(w @ r)
        if fallback is not None and not objective - trace[-1] <= 1e-12 * trace[0]:
            # the Newton step raised the objective: take the Weiszfeld step instead
            y = (fallback @ values) / fallback.sum()
            np.subtract(values, y, out=diffs)
            r = np.sqrt(np.square(diffs, out=sq) @ grid.weights)
            objective = float(w @ r)
        fallback = None
        trace.append(objective)
        on_point = r <= radius

        eta = float(w[on_point].sum())
        anchored = eta > 0.0
        if not anchored:
            # no row to mask out: use the buffers as they are
            inv_r = w / r
            residual = inv_r @ diffs
        elif on_point.all():
            # every curve coincides with the iterate
            gap = 0.0
            anchor_index = int(np.argmax(on_point))
            break
        else:
            inv_r = w[~on_point] / r[~on_point]
            residual = inv_r @ diffs[~on_point]
        rn = float(grid.norms(residual))

        anchor_index = int(np.argmax(on_point)) if anchored else None
        gap = max(0.0, rn - eta)
        if gap <= gap_tol:
            break
        if it == cfg.max_iter:
            break
        iterations += 1
        if iterations > _WEISZFELD_PATIENCE and not anchored:
            # a median on a data curve draws the iterates ever closer
            # without landing on it: try the nearest curve as the solution
            k = int(np.argmin(r))
            if _gap_at_curve(values, grid, w, k) <= gap_tol:
                y = values[k].copy()
                continue
            newton = True

        if newton and not anchored:
            # the buffers are not read again at this point: build Z and its
            # weighted copy in them
            diffs *= sqrt_q
            sym = scaled_operator(diffs, inv_r, r, out=sq)
            try:
                step = np.linalg.solve(sym, residual * sqrt_q) / sqrt_q
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                fallback = inv_r
                y = y + step
                continue
        t_point = (inv_r @ (values[~on_point] if anchored else values)) / inv_r.sum()
        if anchored and rn > 0:
            beta = min(1.0, eta / rn)
            y = (1.0 - beta) * t_point + beta * y
        else:
            y = t_point

    converged = gap <= gap_tol
    return MedianFit(
        median=Curve(y, grid),
        converged=converged,
        iterations=iterations,
        residual_norm=gap,
        objective=trace[-1],
        curves=curves,
        weights=_readonly(w),
        anchored=anchored and converged,
        anchor_index=anchor_index if (anchored and converged) else None,
        objective_trace=tuple(trace),
    )


def objective_value(curves, y: Curve | np.ndarray, weights=None) -> float:
    """The criterion sum_k w_k ||Y_k - y|| at a candidate point."""
    w = _positive_weights(weights, curves.values.shape[0])
    return float(w @ curves.grid.norms(curves.values - as_vector(y)))

