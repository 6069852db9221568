"""Allocations and strata construction.

Allocation oracles are hand-computed largest-remainder arithmetic, e.g.
sizes [6767, 2420, 2503, 7212] with n = 2000 give quotas
716.019, 256.057, 264.840, 763.083; floors sum to 1999 and the largest
remainder (0.840) tops up the third stratum: [716, 256, 265, 763].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medcurve import CurvePopulation, TimeGrid, stratify
from medcurve.designs import StrataSpec
from medcurve.errors import DesignError
from medcurve.stratify import (
    _distinct_rows,
    _lloyd,
    _nearest,
    kmeans_strata,
    optimal_allocation,
    proportional_allocation,
    quartile_strata,
)
from oracles import broadcast_lloyd, on_grid


def test_proportional_allocation_oracles():
    assert list(proportional_allocation([6767, 2420, 2503, 7212], 2000).counts) == [
        716,
        256,
        265,
        763,
    ]
    assert list(proportional_allocation([4725, 4726, 4725, 4726], 2000).counts) == [
        500,
        500,
        500,
        500,
    ]
    assert list(proportional_allocation([100, 100], 10).counts) == [5, 5]


def test_proportional_allocation_sums_and_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        sizes = rng.integers(1, 50, size=rng.integers(2, 7))
        n = int(rng.integers(sizes.size, sizes.sum() + 1))
        alloc = proportional_allocation(sizes, n)
        assert alloc.counts.sum() == n
        assert np.all(alloc.counts >= 1)
        assert np.all(alloc.counts <= sizes)


def test_proportional_minimum_repair():
    alloc = proportional_allocation([98, 1, 1], 3)
    assert list(alloc.counts) == [1, 1, 1]
    assert alloc.repaired


def test_optimal_allocation_hand_case():
    # two strata of 10 units whose within-stratum variance integrals are
    # 1 and 4: scores 10*1 and 10*2, quotas 3.33 / 6.67, rounded [3, 7]
    c1 = np.sqrt(9.0 / 10.0)
    c2 = 2.0 * c1
    z = np.concatenate([np.tile([c1, -c1], 5), np.tile([c2, -c2], 5)])[:, None]
    strata = StrataSpec(np.repeat([0, 1], 10))
    alloc = optimal_allocation(strata, on_grid(z, TimeGrid.uniform(1)), 10)
    assert list(alloc.counts) == [3, 7]
    assert not alloc.fallback


def test_optimal_allocation_symmetry():
    z = np.tile([1.0, -1.0], 10)[:, None]
    strata = StrataSpec(np.repeat([0, 1], 10))
    alloc = optimal_allocation(strata, on_grid(z, TimeGrid.uniform(1)), 8)
    assert list(alloc.counts) == [4, 4]


def test_optimal_allocation_zero_variance_stratum():
    z = np.concatenate([np.tile([1.0, -1.0], 5), np.zeros(10)])[:, None]
    strata = StrataSpec(np.repeat([0, 1], 10))
    alloc = optimal_allocation(strata, on_grid(z, TimeGrid.uniform(1)), 10)
    assert list(alloc.counts) == [9, 1]
    assert alloc.repaired


def test_optimal_allocation_all_zero_falls_back_to_proportional():
    z = np.zeros((12, 1))
    strata = StrataSpec(np.repeat([0, 1], 6))
    alloc = optimal_allocation(strata, on_grid(z, TimeGrid.uniform(1)), 6)
    assert alloc.fallback
    assert list(alloc.counts) == [3, 3]


def test_optimal_allocation_caps_at_stratum_size():
    # stratum 0 has 3 units but a huge variance score; its share is capped
    # and the surplus flows to stratum 1
    z = np.concatenate([np.array([100.0, -100.0, 0.0]), np.tile([1.0, -1.0], 10)])[:, None]
    strata = StrataSpec(np.array([0] * 3 + [1] * 20))
    alloc = optimal_allocation(strata, on_grid(z, TimeGrid.uniform(1)), 12)
    assert list(alloc.counts) == [3, 9]


@st.composite
def allocation_inputs(draw):
    sizes = np.array(draw(st.lists(st.integers(1, 60), min_size=1, max_size=8)))
    n = draw(st.integers(sizes.size, int(sizes.sum())))
    # zero scores included, down to all zero (the proportional fallback)
    score = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=sizes.size, max_size=sizes.size)))
    return score, sizes, n


@settings(max_examples=300, deadline=None)
@given(allocation_inputs())
def test_allocation_counts_lie_in_one_to_the_stratum_size_and_sum_to_n(case):
    score, sizes, n = case
    counts = stratify._allocate(score, sizes, n, "OPTIM").counts
    assert np.all(counts >= 1) and np.all(counts <= sizes)
    assert counts.sum() == n


def test_quartile_strata_rank_cuts():
    spec = quartile_strata(np.arange(1.0, 9.0), 4)
    assert list(spec.labels) == [0, 0, 1, 1, 2, 2, 3, 3]
    # unsorted input follows ranks, not positions
    spec = quartile_strata(np.array([8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]), 4)
    assert list(spec.labels) == [3, 0, 3, 0, 2, 1, 2, 1]


def test_quartile_strata_sizes_balance_at_survey_scale():
    rng = np.random.default_rng(5)
    spec = quartile_strata(rng.normal(size=18902), 4)
    assert list(spec.sizes) == [4725, 4726, 4725, 4726]


def test_quartile_strata_constant_summary_splits_by_frame_order():
    spec = quartile_strata(np.zeros(8), 4)
    assert list(spec.labels) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    values = np.vstack([c + 0.1 * rng.normal(size=(25, 2)) for c in centers])
    pop = CurvePopulation(values, TimeGrid.uniform(2))
    spec = kmeans_strata(pop, 4, seed=0)
    # canonical labels: first unit of each block introduces the next id
    assert np.array_equal(spec.labels, np.repeat([0, 1, 2, 3], 25))


def test_kmeans_is_deterministic_and_seed_dependent():
    rng = np.random.default_rng(11)
    pop = CurvePopulation(rng.normal(size=(40, 5)), TimeGrid.uniform(5))
    a = kmeans_strata(pop, 3, seed=4)
    b = kmeans_strata(pop, 3, seed=4)
    assert np.array_equal(a.labels, b.labels)
    # a SeedSequence is not advanced: each call gets the int seed's restarts
    seq = np.random.SeedSequence(4)
    for _ in range(2):
        assert np.array_equal(kmeans_strata(pop, 3, seed=seq).labels, a.labels)


def test_kmeans_duplication_invariance():
    rng = np.random.default_rng(13)
    centers = np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0], [-8.0, 8.0, 0.0]])
    values = np.vstack([c + 0.2 * rng.normal(size=(10, 3)) for c in centers])
    grid = TimeGrid.uniform(3)
    single = kmeans_strata(CurvePopulation(values, grid), 3, seed=9)
    doubled = kmeans_strata(
        CurvePopulation(np.vstack([values, values]), grid), 3, seed=10
    )
    assert np.array_equal(doubled.labels[:30], doubled.labels[30:])
    assert np.array_equal(single.labels, doubled.labels[:30])


def test_kmeans_respects_quadrature_weights():
    # trapezoid weights [0.49, 0.5, 0.01]: a large gap in the last
    # coordinate is worth less than a small gap in the heavy ones
    grid = TimeGrid.from_points([0.0, 0.98, 1.0])
    a = np.tile([0.0, 0.0, 0.0], (5, 1))
    b = np.tile([0.0, 0.0, 10.0], (5, 1))
    c = np.tile([2.0, 2.0, 0.0], (5, 1))
    pop = CurvePopulation(np.vstack([a, b, c]), grid)
    spec = kmeans_strata(pop, 2, seed=2)
    labels = spec.labels
    assert np.all(labels[:5] == labels[5:10])
    assert np.all(labels[10:] != labels[0])


def test_kmeans_preconditions():
    pop = CurvePopulation(np.zeros((5, 2)) + np.arange(5)[:, None], TimeGrid.uniform(2))
    with pytest.raises(DesignError, match="fewer than 2"):
        kmeans_strata(pop, 1, seed=0)
    same = CurvePopulation(np.ones((5, 2)), TimeGrid.uniform(2))
    with pytest.raises(DesignError, match="distinct"):
        kmeans_strata(same, 3, seed=0)


def _lloyd_pair(z, k, seed):
    """The library's and the broadcast oracle's Lloyd runs from one seed, with the oracle's re-seeds."""
    zz = np.einsum("ij,ij->i", z, z)
    ours = _lloyd(z, k, np.random.default_rng(seed), zz)
    reseeds = []
    theirs = broadcast_lloyd(z, k, np.random.default_rng(seed), reseeds=reseeds)
    return ours, theirs, reseeds


@st.composite
def kmeans_inputs(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(2, min(n, 5)))
    if draw(st.booleans()):
        # a few small integers: tied distances and duplicated rows
        cells = st.integers(-2, 2).map(float)
    else:
        cells = st.floats(-3.0, 3.0, allow_nan=False)
    z = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    # a shared offset far from the spread makes the Gram form cancel
    z = z + draw(st.sampled_from([0.0, 1e3, -1e6]))
    return z, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(kmeans_inputs())
def test_lloyd_matches_the_broadcast_oracle(case):
    z, k, seed = case
    (labels, obj), (want_labels, want_obj), _ = _lloyd_pair(z, k, seed)
    assert np.array_equal(labels, want_labels)
    assert obj == want_obj


@pytest.mark.parametrize("block_values", [64, 1 << 18])
@pytest.mark.parametrize("seed", range(4))
def test_lloyd_matches_the_broadcast_oracle_on_larger_frames(monkeypatch, seed, block_values):
    # sums over hundreds of rows round differently in any other order; small
    # blocks carry each cluster's sum across many of them
    monkeypatch.setattr(stratify, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(600, 7)) * rng.lognormal(size=(600, 1)) + 10.0 * rng.normal(size=7)
    (labels, obj), (want_labels, want_obj), _ = _lloyd_pair(z, 4, seed)
    assert np.array_equal(labels, want_labels)
    assert obj == want_obj


@pytest.mark.parametrize("block_values", [2, 1 << 18])
def test_lloyd_matches_the_oracle_through_an_emptied_cluster(monkeypatch, block_values):
    # two distinct points for three centroids: k-means++ runs out of
    # distance mass and repeats a centroid, whose cluster then empties
    monkeypatch.setattr(stratify, "_BLOCK_VALUES", block_values)
    z = np.repeat([[0.0, 0.0], [1.0, 2.0]], [5, 3], axis=0)
    hit = 0
    for seed in range(10):
        (labels, obj), (want_labels, want_obj), reseeds = _lloyd_pair(z, 3, seed)
        assert np.array_equal(labels, want_labels)
        assert obj == want_obj
        hit += bool(reseeds)
    assert hit


def test_nearest_recomputes_close_rows_exactly(monkeypatch):
    # rows midway between two centroids far from the origin: the Gram
    # form cannot rank them, so the exact distances must
    rng = np.random.default_rng(3)
    centroids = 1e4 + np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    z = np.vstack(
        [
            1e4 + np.column_stack([np.ones(6), rng.normal(size=(6, 2)) * [0, 1]]),
            centroids + rng.normal(scale=0.1, size=(3, 3)),
        ]
    )
    recomputed = []
    exact_d2 = stratify._exact_d2
    monkeypatch.setattr(
        stratify, "_exact_d2", lambda rows, c: recomputed.append(len(rows)) or exact_d2(rows, c)
    )
    got = _nearest(z, np.einsum("ij,ij->i", z, z), centroids)
    want = np.argmin(np.sum((z[:, None, :] - centroids[None, :, :]) ** 2, axis=2), axis=1)
    assert np.array_equal(got, want)
    assert recomputed and recomputed[0] >= 6


@pytest.mark.parametrize("block_values", [1, 5, 1 << 18])
def test_distinct_rows_counts_what_unique_counts(monkeypatch, block_values):
    # signed zeros are one value, as for np.unique
    monkeypatch.setattr(stratify, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(block_values)
    for _ in range(50):
        n, d = rng.integers(1, 25), rng.integers(1, 4)
        values = rng.integers(-1, 2, size=(n, d)) * rng.choice([1.0, -0.0], size=(n, d))
        distinct = np.unique(values, axis=0).shape[0]
        for limit in range(1, 7):
            assert _distinct_rows(values, limit) == min(distinct, limit)
