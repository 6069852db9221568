"""Linearization of the median estimating equation.

The median solves S(y) = sum_k w_k (Y_k - y) / ||Y_k - y|| = 0. Its
derivative at the solution m, as an operator on curves, is

    G = sum_k (w_k / r_k) (I - e_k (x) e_k),   r_k = ||Y_k - m||,
    e_k = (Y_k - m) / r_k,

where (x) is the outer product in the grid inner product: (e (x) e) y =
<e, y> e. The linearized variable of unit k is u_k = G^{-1} e_k; a first
order expansion of a weighted median around m replaces each curve by its
u_k, which is what the design-based variance formulas consume.

On the value-vector side the operator is the D x D matrix

    A[i, j] = c * delta_ij - gam[i, j] * q_j,
    c = sum_k w_k / r_k,
    gam[i, j] = sum_k w_k (Y_k(t_i) - m(t_i)) (Y_k(t_j) - m(t_j)) / r_k^3,

with q the quadrature weights. A is similar to the symmetric positive
semidefinite matrix sqrt(q_i) A[i, j] / sqrt(q_j), which is what the
eigenvalue and linear-solve paths use. That matrix is assembled by
`solver.scaled_operator`, the same assembly the solver's Newton steps
use, and A is derived from it. The operator is singular exactly when
every e_k lies on one line, the same degenerate geometry where the median
itself can be non-unique.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .curves import Curve, TimeGrid, _positive_weights, as_matrix, as_vector
from .errors import LinearizationError
from .solver import point_offsets, scaled_operator

__all__ = ["GammaMatrix", "LinearizedSet", "gamma_matrix", "linearized_variables"]

# ridge kicks in past this spectral condition number
_COND_LIMIT = 1e12
_RIDGE_SCALE = 1e-10


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """Derivative of the median estimating equation at a point.

    matrix is the raw action on value vectors (apply/solve use the
    symmetrized form internally). excluded lists input positions whose
    curves coincided with the expansion point, by the solver's one
    coincidence rule, and were left out. When the spectral condition
    exceeded 1e12 a small diagonal ridge was added and ridged is True;
    condition reports the pre-ridge value.
    """

    matrix: np.ndarray
    grid: TimeGrid
    excluded: tuple[int, ...]
    condition: float
    ridged: bool
    _sym: np.ndarray
    _sqrt_q: np.ndarray

    def apply(self, y) -> np.ndarray:
        return as_vector(y) @ self.matrix.T

    def solve(self, b) -> np.ndarray:
        """Solve G u = b; b may be a vector or a stack of rows."""
        scaled = np.linalg.solve(self._sym, (as_vector(b) * self._sqrt_q).T).T
        return scaled / self._sqrt_q

    def symmetrized(self) -> np.ndarray:
        return self._sym.copy()

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self._sym)[0])


@dataclass(frozen=True, eq=False)
class LinearizedSet:
    """Linearized variables u_k = G^{-1} e_k for the retained units.

    units holds positions into the input curve set; curves coinciding with
    the expansion point have no direction e_k and are dropped (gamma.excluded
    lists them).
    """

    values: np.ndarray
    units: np.ndarray
    grid: TimeGrid
    gamma: GammaMatrix


def gamma_matrix(curves, at: Curve | np.ndarray, weights=None) -> GammaMatrix:
    """Assemble the derivative operator at a point (usually a fitted median)."""
    return _gamma_and_directions(curves, at, weights)[0]


def _gamma_and_directions(curves, at, weights):
    """The operator, plus the unit directions e_k of the retained curves it was built from."""
    values, grid = as_matrix(curves)
    d = values.shape[1]
    w = _positive_weights(weights, values.shape[0])
    point = as_vector(at)
    if point.shape != (d,):
        raise ValueError("expansion point length does not match the grid")

    diffs, r, on_point = point_offsets(values, grid, point)
    excluded = tuple(int(i) for i in np.flatnonzero(on_point))
    keep = ~on_point
    if not np.any(keep):
        raise LinearizationError("every curve coincides with the expansion point")
    if excluded:
        warnings.warn(
            f"{len(excluded)} curve(s) coincide with the expansion point "
            "and are excluded from the linearization",
            stacklevel=3,
        )
    diffs, r = diffs[keep], r[keep]
    e = diffs / r[:, None]
    sqrt_q = np.sqrt(grid.weights)
    diffs *= sqrt_q
    sym = scaled_operator(diffs, w[keep] / r, r)
    sym = (sym + sym.T) / 2.0
    a = sym * (sqrt_q[None, :] / sqrt_q[:, None])

    eig = np.linalg.eigvalsh(sym)
    condition = float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")
    ridged = False
    if not np.isfinite(condition) or condition > _COND_LIMIT:
        ridge = _RIDGE_SCALE * float(np.trace(sym)) / d
        sym = sym + ridge * np.eye(d)
        a = a + ridge * np.eye(d)
        ridged = True
        eig = np.linalg.eigvalsh(sym)
        if eig[0] <= 0:
            raise LinearizationError(
                "derivative operator is numerically singular even after ridging",
                condition=condition,
            )
    gamma = GammaMatrix(
        matrix=a,
        grid=grid,
        excluded=excluded,
        condition=condition,
        ridged=ridged,
        _sym=sym,
        _sqrt_q=sqrt_q,
    )
    return gamma, e, keep


def linearized_variables(curves, at: Curve | np.ndarray, weights=None) -> LinearizedSet:
    """Compute u_k = G^{-1} e_k for every curve not coinciding with `at`.

    With unit weights and `at` the population median, the u_k sum to zero
    (the estimating equation pushed through G^{-1}). For a design-based
    expansion pass the sampled curves with their sampling weights.
    """
    gamma, e, keep = _gamma_and_directions(curves, at, weights)
    return LinearizedSet(
        values=gamma.solve(e),
        units=np.flatnonzero(keep),
        grid=gamma.grid,
        gamma=gamma,
    )
