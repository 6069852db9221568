"""Reference implementations that several test modules compare the library against."""

import numpy as np

from medcurve.designs import joint_inclusion
from medcurve.errors import LinearizationError


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


def pi_kl_loop(design):
    """The N x N pairwise inclusion matrix, one joint_inclusion call per entry."""
    n_population = design.N
    out = np.empty((n_population, n_population))
    for k in range(n_population):
        for l in range(n_population):
            out[k, l] = joint_inclusion(design, k, l)
    return out


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
