"""Strata construction and sample allocation.

Strata can come from k-means clustering of curves (typically the
linearized variables, so the strata are homogeneous in exactly the
quantity that drives the median estimator's variance), or from quartiles
of a scalar summary such as each unit's peak level. Allocations split n
across strata proportionally or Neyman-style, with n_h proportional to
N_h times the root of the integrated within-stratum variance of a chosen
curve variable.

All rounding uses largest remainder: floor the quotas, then hand the
leftover units to the largest fractional parts (ties to the lower stratum
index). Repairs guarantee 1 <= n_h <= N_h afterwards and are flagged on
the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TimeGrid, as_matrix, values_on_grid
from .designs import StrataSpec, child_seeds
from .errors import DesignError

__all__ = [
    "Allocation",
    "proportional_allocation",
    "optimal_allocation",
    "quartile_strata",
    "kmeans_strata",
]

# k-means: restarts from independent k-means++ starts, and the Lloyd step cap
_RESTARTS = 20
_LLOYD_MAX_ITER = 100
# k-means works through row blocks of about this many values (2 MB): its
# temporaries stay bounded, and a block read for the distances is still in
# cache when its rows are summed
_BLOCK_VALUES = 1 << 18


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-stratum sample sizes summing to n.

    repaired notes a minimum-1 or capacity repair after rounding; fallback
    notes an optimal allocation that degraded to proportional because every
    within-stratum variance was zero.
    """

    counts: np.ndarray
    rule: str
    n: int
    repaired: bool = False
    fallback: bool = False

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.n:
            raise ValueError(f"allocation sums to {counts.sum()}, expected {self.n}")
        if np.any(counts < 1):
            raise ValueError("every stratum must receive at least one unit")


def _largest_remainder(quotas: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    base = np.floor(quotas).astype(np.int64)
    base = np.minimum(base, caps)
    leftover = total - int(base.sum())
    if leftover < 0:
        raise ValueError("quotas exceed the total; allocation bug")
    remainders = quotas - np.floor(quotas)
    # hand out leftovers to the largest remainders among strata with room
    order = np.argsort(-remainders, kind="stable")
    counts = base.copy()
    idx = 0
    while leftover > 0:
        h = order[idx % len(order)]
        if counts[h] < caps[h]:
            counts[h] += 1
            leftover -= 1
        idx += 1
        if idx > 4 * len(order) and leftover > 0:
            raise DesignError("allocation exceeds total capacity")
    return counts


def _repair_minimum(counts: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, bool]:
    counts = counts.copy()
    repaired = False
    while np.any(counts == 0):
        repaired = True
        needy = int(np.flatnonzero(counts == 0)[0])
        donors = np.flatnonzero(counts > 1)
        if donors.size == 0:
            raise DesignError("cannot give every stratum a unit: n is too small")
        donor = donors[np.argmax(counts[donors])]
        counts[donor] -= 1
        counts[needy] += 1
    return np.minimum(counts, caps), repaired


def proportional_allocation(sizes, n: int) -> Allocation:
    """n_h = n N_h / N, rounded by largest remainder."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if np.any(sizes < 1):
        raise DesignError("stratum sizes must be positive")
    total = int(sizes.sum())
    if not 1 <= n <= total:
        raise DesignError(f"sample size {n} must lie in 1..{total}")
    quotas = n * sizes / total
    counts = _largest_remainder(quotas, n, sizes)
    counts, repaired = _repair_minimum(counts, sizes)
    return Allocation(counts=counts, rule="PROP", n=n, repaired=repaired)


def optimal_allocation(
    strata: StrataSpec, z, n: int, grid: TimeGrid | None = None, rule: str = "OPTIM"
) -> Allocation:
    """Allocate proportionally to N_h sqrt(integrated within-stratum variance).

    z is the per-unit curve variable the allocation should optimize for
    (the linearized variables or the raw curves); the integral over the
    grid uses its quadrature weights. Strata whose share would exceed N_h
    are capped with the surplus redistributed. If every within-stratum
    variance is zero the allocation falls back to proportional, flagged.
    """
    values, grid = values_on_grid(z, grid)
    sizes = strata.sizes
    if values.shape[0] != strata.n_units:
        raise DesignError("allocation variable must cover every unit")
    total = int(sizes.sum())
    if not 1 <= n <= total:
        raise DesignError(f"sample size {n} must lie in 1..{total}")

    score = np.zeros(strata.n_strata)
    for h in range(strata.n_strata):
        members = values[strata.labels == h]
        if members.shape[0] >= 2:
            s2_t = np.var(members, axis=0, ddof=1)
            score[h] = sizes[h] * np.sqrt(grid.integrate(s2_t))
    if np.all(score == 0):
        prop = proportional_allocation(sizes, n)
        return Allocation(
            counts=prop.counts, rule=rule, n=n, repaired=prop.repaired, fallback=True
        )

    # cap-and-redistribute: strata whose quota overflows N_h take N_h and
    # drop out; the rest of n is shared among the remainder by the same rule
    counts = np.zeros(strata.n_strata, dtype=np.int64)
    active = np.ones(strata.n_strata, dtype=bool)
    remaining = n
    while True:
        share = score[active] / score[active].sum() if score[active].sum() > 0 else None
        if share is None:
            # only zero-variance strata left; spread the rest proportionally
            quotas = remaining * sizes[active] / sizes[active].sum()
        else:
            quotas = remaining * share
        over = quotas > sizes[active]
        if not np.any(over):
            counts[active] = _largest_remainder(quotas, remaining, sizes[active])
            break
        full = np.flatnonzero(active)[over]
        counts[full] = sizes[full]
        remaining -= int(sizes[full].sum())
        active[full] = False
        if not np.any(active):
            break
    counts, repaired = _repair_minimum(counts, sizes)
    return Allocation(counts=counts, rule=rule, n=n, repaired=repaired)


def quartile_strata(summary, n_strata: int = 4) -> StrataSpec:
    """Equal-size strata along a sorted scalar summary.

    Stratum h covers sorted ranks floor(h N / H) .. floor((h+1) N / H) - 1,
    so sizes differ by at most one. Ties in the summary keep frame order.
    """
    summary = np.asarray(summary, dtype=float)
    n = summary.size
    if n_strata < 1:
        raise DesignError("need at least one stratum")
    if n < n_strata:
        raise DesignError(f"cannot cut {n} units into {n_strata} strata")
    order = np.argsort(summary, kind="stable")
    bounds = (np.arange(n_strata + 1) * n) // n_strata
    labels = np.empty(n, dtype=np.int64)
    for h in range(n_strata):
        labels[order[bounds[h] : bounds[h + 1]]] = h
    return StrataSpec(labels)


def kmeans_strata(curves, n_strata: int, seed) -> StrataSpec:
    """Cluster curves into strata by Lloyd's algorithm in the grid geometry.

    Each of the _RESTARTS restarts draws k-means++ starting centroids from
    its own child of seed and runs at most _LLOYD_MAX_ITER Lloyd steps;
    the partition with the lowest within-cluster sum of squared grid
    distances wins (ties to the earliest restart). An emptied cluster is
    re-seeded at the point farthest from its centroid. Labels are
    canonicalized by first occurrence, so the result is reproducible and
    independent of internal centroid order. Beyond the curves themselves
    it holds one scaled copy of them and blocks of rows (see _lloyd).
    """
    values, grid = as_matrix(curves)
    if n_strata < 2:
        raise DesignError("clustering into fewer than 2 strata is not meaningful")
    if _distinct_rows(values, n_strata) < n_strata:
        raise DesignError(f"need at least {n_strata} distinct curves")
    z = values * np.sqrt(grid.weights)
    zz = np.einsum("ij,ij->i", z, z)

    best_labels, best_obj = None, np.inf
    for child in child_seeds(seed, _RESTARTS):
        rng = np.random.default_rng(child)
        labels, obj = _lloyd(z, n_strata, rng, zz)
        if best_labels is None or obj < best_obj - 1e-12 * max(best_obj, 1.0):
            best_labels, best_obj = labels, obj

    # canonicalize: clusters are numbered in the order their first units appear
    _, first, inverse = np.unique(best_labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return StrataSpec(rank[inverse])


def _distinct_rows(values: np.ndarray, limit: int) -> int:
    """How many distinct rows values holds, counted up to limit, in row blocks."""
    found = []
    for rows in _row_blocks(values.shape[0], values.shape[1]):
        block = values[rows]
        while len(found) < limit:
            new = np.ones(block.shape[0], dtype=bool)
            for row in found:
                new &= np.any(block != row, axis=1)
            if not new.any():
                break
            found.append(block[np.argmax(new)])
    return len(found)


def _row_blocks(n: int, width: int):
    """Row slices whose block of width values each stays near _BLOCK_VALUES."""
    step = max(1, _BLOCK_VALUES // max(width, 1))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _exact_d2(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances from each row of z to each centroid, coordinate by coordinate.

    These are the reference values: every label and objective agrees with
    them. Rows go through in blocks, so the (rows, k, D) difference stays
    bounded.
    """
    out = np.empty((z.shape[0], centroids.shape[0]))
    for rows in _row_blocks(z.shape[0], centroids.size):
        out[rows] = np.sum((z[rows, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return out


def _plus_plus_init(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = z.shape[0]
    centroids = np.empty((k, z.shape[1]))
    centroids[0] = z[rng.integers(n)]
    d2 = _exact_d2(z, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = z[rng.integers(n)]
            continue
        centroids[j] = z[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _exact_d2(z, centroids[j : j + 1])[:, 0])
    return centroids


def _nearest(z: np.ndarray, zz: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The index of each row's nearest centroid, first index on ties, as _exact_d2 ranks them.

    The distances come from one product as |z|^2 - 2 z C^T + |c|^2. Each
    such value, and the exact one, lies within (D + 3) eps (|z| + |c|)^2
    of the true distance, to first order. Where a row's best and
    second-best values are further apart than four times that, the exact
    values rank the same centroid first; the bound below takes twice this
    for the higher-order terms. Every other row is recomputed exactly.
    """
    cc = np.einsum("ij,ij->i", centroids, centroids)
    # z times a contiguous -2 C^T takes half the time of C @ z.T at 2000 x 48;
    # the result goes one row per centroid, so each pass below runs along z
    d2 = np.ascontiguousarray((z @ (-2.0 * centroids).T.copy()).T)
    d2 += zz
    nearest = np.zeros(z.shape[0], dtype=np.int64)
    best, second = d2[0] + cc[0], np.full(z.shape[0], np.inf)
    for j in range(1, centroids.shape[0]):
        dj = d2[j] + cc[j]
        np.minimum(second, np.maximum(best, dj), out=second)
        nearest[dj < best] = j
        np.minimum(best, dj, out=best)
    gap = second - best
    bound = (np.sqrt(zz) + np.sqrt(cc.max())) ** 2
    bound *= 8.0 * (z.shape[1] + 3) * np.finfo(float).eps
    close = np.flatnonzero(~(gap > bound))
    if close.size:
        nearest[close] = np.argmin(_exact_d2(z[close], centroids), axis=1)
    return nearest


def _assign(z: np.ndarray, zz: np.ndarray, centroids: np.ndarray):
    """Each row's nearest centroid (see _nearest), with each cluster's row count and row sum.

    One pass over row blocks. A cluster's sum adds its rows one after
    another in row order, carried from block to block. numpy's axis-0 sum
    of a cluster's gathered rows adds them in that same order, so
    sum / count is bit for bit members.mean(axis=0); the k-means tests
    compare the two.
    """
    k = centroids.shape[0]
    labels = np.empty(z.shape[0], dtype=np.int64)
    sums = np.zeros((k, z.shape[1]))
    counts = np.zeros(k, dtype=np.int64)
    # row 0 carries a cluster's sum over earlier blocks, its rows here follow
    buf = None
    for rows in _row_blocks(z.shape[0], z.shape[1]):
        block = z[rows]
        if buf is None:
            buf = np.empty((block.shape[0] + 1, z.shape[1]))
        labels[rows] = nearest = _nearest(block, zz[rows], centroids)
        for j in range(k):
            members = np.flatnonzero(nearest == j)
            m = members.size
            if m == 0:
                continue
            buf[0] = sums[j]
            np.take(block, members, axis=0, out=buf[1 : m + 1], mode="clip")
            np.add.reduce(buf[0 if counts[j] else 1 : m + 1], axis=0, out=sums[j])
            counts[j] += m
    return labels, sums, counts


def _lloyd(z: np.ndarray, k: int, rng: np.random.Generator, zz: np.ndarray):
    """One k-means run from a k-means++ start: (labels, objective).

    zz holds the rows' squared norms. Labels are those of the exact
    coordinate-wise distances (see _nearest), and the objective is their
    exact sum; no step holds more than a bounded block of (rows, k, D)
    differences. An emptied cluster is re-seeded at the row farthest from
    its nearest centroid, by exact distances.
    """
    centroids = _plus_plus_init(z, k, rng)
    labels = np.full(z.shape[0], -1, dtype=np.int64)
    for _ in range(_LLOYD_MAX_ITER):
        new_labels, sums, counts = _assign(z, zz, centroids)
        if counts.all():
            centroids = sums / counts[:, None]
        else:
            # re-seed at the row farthest from this step's centroids; taking
            # that row can empty a later cluster, which then takes it too
            worst = int(np.argmax(np.min(_exact_d2(z, centroids), axis=1)))
            for j in range(k):
                members = z[new_labels == j]
                if members.shape[0] == 0:
                    centroids[j] = z[worst]
                    new_labels[worst] = j
                else:
                    centroids[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = np.empty(z.shape[0])
    for rows in _row_blocks(z.shape[0], z.shape[1]):
        d2[rows] = np.sum((z[rows] - centroids[labels[rows]]) ** 2, axis=1)
    return labels, float(d2.sum())
