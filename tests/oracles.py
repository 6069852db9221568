"""Reference implementations that several test modules compare the library against."""

import numpy as np


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
