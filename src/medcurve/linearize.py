"""Linearization of the median estimating equation.

The median solves S(y) = sum_k w_k (Y_k - y) / ||Y_k - y|| = 0. Its
derivative at the solution m, as an operator on curves, is

    G = sum_k (w_k / r_k) (I - e_k (x) e_k),   r_k = ||Y_k - m||,
    e_k = (Y_k - m) / r_k,

where (x) is the outer product in the grid inner product: (e (x) e) y =
<e, y> e. The linearized variable of unit k is u_k = G^{-1} e_k; a first
order expansion of a weighted median around m replaces each curve by its
u_k, which is what the design-based variance formulas consume.
linearized_variables reads a curve set (see ``curves``) and returns the
u_k as a LinearizedSet, itself a curve set.

On the value-vector side the operator is the D x D matrix

    A[i, j] = c * delta_ij - gam[i, j] * q_j,
    c = sum_k w_k / r_k,
    gam[i, j] = sum_k w_k (Y_k(t_i) - m(t_i)) (Y_k(t_j) - m(t_j)) / r_k^3,

with q the quadrature weights. A is similar to the symmetric positive
semidefinite matrix S[i, j] = sqrt(q_i) A[i, j] / sqrt(q_j), which is
what the eigenvalue and linear-solve paths use. S is assembled by
`solver.scaled_operator`, the same assembly the solver's Newton steps
use, and A is derived from it. The operator is singular exactly when
every e_k lies on one line, the same degenerate geometry where the median
itself can be non-unique.

The linearization works in that frame: with z_k = (Y_k - m) sqrt(q),
S = c I - sum_k (w_k / r_k^3) z_k z_k^T and u_k = (z_k / r_k) S^-1^T / sqrt(q),
so one inverse of S and one matrix product give every u_k. The offsets
become z_k and then z_k / r_k in place, and u, the only other N x D array,
first holds S's weighted rows: the peak is about twice the curve matrix.

The ridge decision needs the spectral condition only when the inverse
cannot rule it out: ||S||_F ||S^-1||_F bounds it from above, and a bound
within a tenth of the ridge threshold computes no eigenvalue. Otherwise
the eigenvalues decide. The condition and the smallest eigenvalue are
computed when first read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import Curve, TimeGrid, _positive_weights, as_vector
from .errors import LinearizationError
from .solver import _anchor_radius, scaled_operator

__all__ = ["GammaMatrix", "LinearizedSet", "linearized_variables"]

# ridge kicks in past this spectral condition number
_COND_LIMIT = 1e12
_RIDGE_SCALE = 1e-10


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """Derivative of the median estimating equation at a point.

    matrix is the raw action on value vectors (solve uses the symmetrized
    form internally). excluded lists input positions whose curves
    coincided with the expansion point, by the solver's one coincidence
    rule, and were left out. When the spectral condition
    exceeded 1e12 a small diagonal ridge was added and ridged is True;
    condition reports the pre-ridge value. matrix, condition and
    min_eigenvalue() are computed on first read; solve applies the
    inverse the linearization already took.
    """

    grid: TimeGrid
    excluded: tuple[int, ...]
    ridged: bool
    _sym: np.ndarray
    _inv: np.ndarray
    # the pre-ridge condition, known only when the eigenvalue path ran
    _condition: float | None = None

    @cached_property
    def _sqrt_q(self) -> np.ndarray:
        return np.sqrt(self.grid.weights)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._sym * (self._sqrt_q[None, :] / self._sqrt_q[:, None])

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._sym)

    @cached_property
    def condition(self) -> float:
        if self._condition is not None:
            return self._condition
        return _spectral_condition(self._eigenvalues)

    def solve(self, b) -> np.ndarray:
        """Solve G u = b; b may be a vector or a stack of rows."""
        return ((as_vector(b) * self._sqrt_q) @ self._inv.T) / self._sqrt_q

    def min_eigenvalue(self) -> float:
        return float(self._eigenvalues[0])


def _spectral_condition(eig: np.ndarray) -> float:
    return float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")


def _operator(sym: np.ndarray, grid: TimeGrid, excluded: tuple[int, ...] = ()) -> GammaMatrix:
    """The GammaMatrix of a symmetric PSD scaled operator S, inverted once.

    The ridge goes on when the spectral condition exceeds _COND_LIMIT.
    Since that condition is at most ||S||_F ||S^-1||_F, a product within
    _COND_LIMIT / 10 settles the decision without eigenvalues; the margin
    keeps rounding in the eigenvalues from disagreeing with it. Anything
    else (a singular or ill-conditioned S, a failed or non-finite inverse)
    takes the eigenvalue rule.
    """
    try:
        inv = np.linalg.inv(sym)
    except np.linalg.LinAlgError:
        inv = None
    # a non-finite product fails the comparison
    if inv is not None and np.linalg.norm(sym) * np.linalg.norm(inv) <= _COND_LIMIT / 10:
        return GammaMatrix(grid, excluded, False, sym, inv)

    condition = _spectral_condition(np.linalg.eigvalsh(sym))
    if np.isfinite(condition) and condition <= _COND_LIMIT:
        if inv is None:
            inv = np.linalg.inv(sym)
        return GammaMatrix(grid, excluded, False, sym, inv, condition)
    d = sym.shape[0]
    sym = sym + (_RIDGE_SCALE * float(np.trace(sym)) / d) * np.eye(d)
    if np.linalg.eigvalsh(sym)[0] <= 0:
        raise LinearizationError(
            "derivative operator is numerically singular even after ridging",
            condition=condition,
        )
    return GammaMatrix(grid, excluded, True, sym, np.linalg.inv(sym), condition)


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


def linearized_variables(curves, at: Curve | np.ndarray, weights=None) -> LinearizedSet:
    """Compute u_k = G^{-1} e_k for every curve of a curve set not coinciding with `at`.

    With unit weights and `at` the population median, the u_k sum to zero
    (the estimating equation pushed through G^{-1}). For a design-based
    expansion pass the sampled curves with their sampling weights.
    """
    values, grid = curves.values, curves.grid
    w = _positive_weights(weights, values.shape[0])
    point = as_vector(at)
    if point.shape != (values.shape[1],):
        raise ValueError("expansion point length does not match the grid")

    z = values - point
    r = grid.norms(z)
    on_point = r <= _anchor_radius(r)
    excluded = tuple(int(i) for i in np.flatnonzero(on_point))
    keep = ~on_point
    if not np.any(keep):
        raise LinearizationError("every curve coincides with the expansion point")
    if excluded:
        warnings.warn(
            f"{len(excluded)} curve(s) coincide with the expansion point "
            "and are excluded from the linearization",
            stacklevel=2,
        )
        z, r, w = z[keep], r[keep], w[keep]
    z *= np.sqrt(grid.weights)
    u = np.empty_like(z)
    sym = scaled_operator(z, w / r, r, out=u)
    gamma = _operator((sym + sym.T) / 2.0, grid, excluded)
    z /= r[:, None]
    np.matmul(z, gamma._inv.T, out=u)
    u /= gamma._sqrt_q
    return LinearizedSet(values=u, units=np.flatnonzero(keep), grid=grid, gamma=gamma)
