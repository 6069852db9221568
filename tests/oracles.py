"""Reference implementations that several test modules compare the library against.

Each one shares no code with what it checks: the derivative operator summed
term by term, the estimating equation (the score) whose root the solver
finds, the weighted pointwise-median rule that lower_median selects
without sorting, pairwise inclusion probabilities counted over every
possible sample, the Horvitz-Thompson variance as an explicit double sum
over pairs, k-means on the full difference broadcast and the ridge rule
from eigenvalues alone. on_grid wraps plain values and a grid as a bare
curve set (an object with only .values and .grid), and symmetrized reads
back the scaled operator a linearization inverted.
"""

import warnings
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np

from medcurve.curves import Curve
from medcurve.designs import Srswor, Stratified
from medcurve.errors import LinearizationError


def on_grid(values, grid):
    """A bare curve set: float values with a grid, and nothing else."""
    return SimpleNamespace(values=np.asarray(values, dtype=float), grid=grid)


def symmetrized(gamma):
    """A copy of the symmetric scaled operator S a GammaMatrix inverted (ridge included)."""
    return gamma._sym.copy()


def score(pop, y, weights=None, anchor_eps=1e-12):
    """Estimating-equation value sum_k w_k (Y_k - y) / ||Y_k - y|| at y, as a Curve.

    Curves within anchor_eps of y (relative to the data spread, the
    solver's coincidence rule) contribute nothing; a warning notes how
    many were skipped.
    """
    values, grid = pop.values, pop.grid
    w = np.ones(values.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    diffs = values - (y.values if isinstance(y, Curve) else np.asarray(y, dtype=float))
    r = grid.norms(diffs)
    on_point = r <= anchor_eps * max(float(r.max()), 1.0)
    if np.any(on_point):
        warnings.warn(
            f"{int(on_point.sum())} curve(s) coincide with the evaluation point "
            "and are excluded from the score",
            stacklevel=2,
        )
    free = ~on_point
    if not np.any(free):
        return Curve(np.zeros(grid.n_points), grid)
    inv_r = w[free] / r[free]
    return Curve(inv_r @ diffs[free], grid)


def weighted_pointwise_median(values, weights):
    """Per column, the smallest value whose cumulative weight reaches half the total.

    Values are taken in stable sort order; the tiny slack keeps exact-half
    ties (even unit-weight counts) on the lower value.
    """
    w = np.asarray(weights, dtype=float)
    order = np.argsort(values, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=0)
    sorted_w = np.take_along_axis(np.broadcast_to(w[:, None], values.shape), order, axis=0)
    cum = np.cumsum(sorted_w, axis=0)
    idx = np.argmax(cum >= 0.5 * w.sum() * (1.0 - 1e-12), axis=0)
    return np.take_along_axis(sorted_vals, idx[None, :], axis=0)[0]


def tensor_gamma(pop, at, weights=None, anchor_eps=1e-12):
    """The derivative operator's action matrix, summed one rank-one term per curve.

    A = sum_k (w_k / r_k) (I - e_k (x) e_k) over the curves farther than
    anchor_eps (relative to the data spread) from `at`, written term by
    term so that it shares no assembly code with the library.
    """
    values, grid = pop.values, pop.grid
    w = np.ones(values.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    diffs = values - np.asarray(at, dtype=float)
    r = grid.norms(diffs)
    keep = r > anchor_eps * max(float(r.max()), 1.0)
    d = values.shape[1]
    a = np.zeros((d, d))
    for dk, rk, wk in zip(diffs[keep], r[keep], w[keep]):
        ek = dk / rk
        a += (wk / rk) * (np.eye(d) - np.outer(ek, ek * grid.weights))
    return a


def enumerated_pi_kl(design):
    """The N x N pairwise inclusion matrix (pi_k on the diagonal) of a tiny frame.

    Lists every sample a Srswor or Stratified design can draw, all equally
    likely, and counts how often each pair of units is drawn together.
    """
    if isinstance(design, Srswor):
        samples = combinations(range(design.N), design.n)
    elif isinstance(design, Stratified):
        per_stratum = [
            combinations(design.strata.members(h), int(n_h)) for h, n_h in enumerate(design.alloc)
        ]
        samples = (sum(parts, ()) for parts in product(*per_stratum))
    else:
        raise TypeError(f"no equally likely samples to list for {design.kind!r}")
    together = np.zeros((design.N, design.N))
    count = 0
    for sample in samples:
        drawn = np.zeros(design.N)
        drawn[list(sample)] = 1.0
        together += np.outer(drawn, drawn)
        count += 1
    return together / count


def double_sum_variance(u, pi, pi_kl, sampled=False):
    """Pointwise sum_k sum_l (pi_kl - pi_k pi_l) u_k u_l / (pi_k pi_l) over the rows of u.

    sampled=True gives the variance estimator over the sampled pairs
    instead, which also divides each pair's term by pi_kl.
    """
    delta = pi_kl - np.outer(pi, pi)
    if sampled:
        delta = delta / pi_kl
    scaled = u / pi[:, None]
    return np.einsum("kl,kt,lt->t", delta, scaled, scaled)


def plus_plus_init(z, k, rng):
    """k-means++ starting centroids from exact distances over all rows at once."""
    n = z.shape[0]
    centroids = np.empty((k, z.shape[1]))
    centroids[0] = z[rng.integers(n)]
    d2 = np.sum((z - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = z[rng.integers(n)]
            continue
        centroids[j] = z[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((z - centroids[j]) ** 2, axis=1))
    return centroids


def broadcast_lloyd(z, k, rng, max_iter=100, reseeds=None):
    """Lloyd's algorithm on the full (N, k, D) difference broadcast: (labels, objective).

    An emptied cluster is re-seeded at the row farthest from its nearest
    centroid; each re-seed's step number is appended to reseeds when given.
    """
    centroids = plus_plus_init(z, k, rng)
    labels = np.full(z.shape[0], -1, dtype=np.int64)
    for step in range(max_iter):
        d2 = np.sum((z[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(k):
            members = z[new_labels == j]
            if members.shape[0] == 0:
                worst = int(np.argmax(np.min(d2, axis=1)))
                centroids[j] = z[worst]
                new_labels[worst] = j
                if reseeds is not None:
                    reseeds.append(step)
            else:
                centroids[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = np.sum((z - centroids[labels]) ** 2, axis=1)
    return labels, float(d2.sum())


def eigenvalue_ridge_rule(sym, cond_limit=1e12, ridge_scale=1e-10):
    """The ridge decision from eigenvalues alone: (ridged, pre-ridge condition, operator used).

    Raises LinearizationError when the ridged operator still has a
    nonpositive eigenvalue.
    """
    eig = np.linalg.eigvalsh(sym)
    condition = float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")
    if np.isfinite(condition) and condition <= cond_limit:
        return False, condition, sym
    d = sym.shape[0]
    sym = sym + ridge_scale * float(np.trace(sym)) / d * np.eye(d)
    if np.linalg.eigvalsh(sym)[0] <= 0:
        raise LinearizationError("singular even after ridging", condition=condition)
    return True, condition, sym
