"""Sampling designs: inclusion probabilities, reproducibility, edge cases.

Frequency checks here use modest draw counts with 4-sigma binomial bounds
to keep the suite quick; the heavier 50k-draw audit lives in the
acceptance tests.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medcurve import CurvePopulation, TimeGrid
from medcurve.designs import (
    PpsWr,
    SampleDraw,
    Srswor,
    StrataSpec,
    Stratified,
    Systematic,
    _group_s2,
    child_seeds,
    draw_ppswr,
    draw_srswor,
    draw_stratified,
    draw_systematic,
    pps_weights_from_curves,
)
from medcurve.errors import DesignError
from oracles import enumerated_pi_kl


def test_srswor_census_selects_everything():
    draw = draw_srswor(6, 6, seed=0)
    assert list(draw.units) == list(range(6))
    assert np.allclose(draw.pi, 1.0)
    assert np.allclose(draw.weights, 1.0)


def test_srswor_pi_and_fixed_size():
    draw = draw_srswor(5, 2, seed=11)
    assert draw.n_units == 2
    assert np.allclose(draw.pi, 0.4)
    assert len(set(draw.units.tolist())) == 2


def test_srswor_is_reproducible_and_seed_sensitive():
    a = draw_srswor(100, 10, seed=42)
    b = draw_srswor(100, 10, seed=42)
    c = draw_srswor(100, 10, seed=43)
    assert np.array_equal(a.units, b.units)
    assert not np.array_equal(a.units, c.units)


def test_srswor_pair_frequencies_match_enumeration():
    # C(5,2) = 10 pairs, each with probability 1/10
    counts = {}
    reps = 4000
    for r in range(reps):
        draw = draw_srswor(5, 2, seed=np.random.SeedSequence(entropy=77, spawn_key=(r,)))
        counts[tuple(draw.units)] = counts.get(tuple(draw.units), 0) + 1
    assert len(counts) == 10
    sigma = np.sqrt(reps * 0.1 * 0.9)
    for pair, c in counts.items():
        assert abs(c - reps * 0.1) <= 4 * sigma, (pair, c)


def test_systematic_integer_interval_hand_case():
    # N=10, n=2: step 5; seed 3 puts the start at about 2.395, so sorted
    # ranks 2 and 7 (0-based) are selected; an increasing key keeps frame order
    draw = draw_systematic(np.arange(10.0), 2, seed=3)
    assert list(draw.units) == [2, 7]
    assert np.allclose(draw.pi, 0.2)


def test_systematic_fractional_interval_keeps_exact_pi():
    # N=7, n=3 has a non-integer step; sizes stay exactly n and pi = n/N
    for seed in range(30):
        draw = draw_systematic(np.arange(7.0), 3, seed=seed)
        assert draw.n_units == 3
        assert np.allclose(draw.pi, 3.0 / 7.0)
        # population-level sum of pi: all 7 units share pi = 3/7
        assert 7 * draw.pi[0] == pytest.approx(3.0, abs=1e-12)


def test_systematic_unit_frequencies():
    key = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 0.0, 6.0, 8.0, 7.0])
    reps = 4000
    hits = np.zeros(10)
    for r in range(reps):
        draw = draw_systematic(key, 2, seed=np.random.SeedSequence(entropy=5, spawn_key=(r,)))
        hits[draw.units] += 1
    sigma = np.sqrt(reps * 0.2 * 0.8)
    assert np.all(np.abs(hits - reps * 0.2) <= 4 * sigma)


def test_systematic_constant_key_still_has_uniform_pi():
    reps = 4000
    hits = np.zeros(6)
    for r in range(reps):
        draw = draw_systematic(np.zeros(6), 2, seed=np.random.SeedSequence(entropy=9, spawn_key=(r,)))
        hits[draw.units] += 1
    sigma = np.sqrt(reps * (1 / 3) * (2 / 3))
    assert np.all(np.abs(hits - reps / 3) <= 4 * sigma)


def test_strata_spec_canonicalizes_labels():
    spec = StrataSpec.from_labels(["b", "a", "b", "c", "a"])
    assert list(spec.labels) == [1, 0, 1, 2, 0]
    assert list(spec.sizes) == [2, 2, 1]
    assert spec.n_strata == 3
    assert list(spec.members(1)) == [0, 2]
    with pytest.raises(DesignError, match="nonempty"):
        StrataSpec(np.array([], dtype=np.int64))
    with pytest.raises(DesignError, match="at least one unit"):
        StrataSpec(np.array([0, 2, 2]))


def test_stratified_census_and_pi():
    spec = StrataSpec(np.array([0, 0, 0, 1, 1]))
    draw = draw_stratified(spec, [3, 2], seed=1)
    assert list(draw.units) == [0, 1, 2, 3, 4]
    assert np.allclose(draw.pi, 1.0)

    draw = draw_stratified(spec, [1, 2], seed=1)
    labels = spec.labels[draw.units]
    assert np.allclose(draw.pi[labels == 0], 1.0 / 3.0)
    assert np.allclose(draw.pi[labels == 1], 1.0)
    # population-level sum of pi equals n
    alloc, sizes = draw.design.alloc, draw.design.strata.sizes
    pop_pi = alloc[spec.labels] / sizes[spec.labels]
    assert pop_pi.sum() == pytest.approx(3.0, abs=1e-12)


def test_stratified_unit_frequencies():
    spec = StrataSpec(np.array([0, 0, 0, 1, 1, 1]))
    reps = 4000
    hits = np.zeros(6)
    for r in range(reps):
        draw = draw_stratified(
            spec, [1, 2], seed=np.random.SeedSequence(entropy=13, spawn_key=(r,))
        )
        hits[draw.units] += 1
    for k, expected in enumerate([1 / 3] * 3 + [2 / 3] * 3):
        sigma = np.sqrt(reps * expected * (1 - expected))
        assert abs(hits[k] - reps * expected) <= 4 * sigma


def test_one_seed_sequence_gives_the_same_stratified_draw_every_time():
    # the per-stratum streams are children of the sequence taken without
    # advancing it, the same children an int seed gives
    design = Stratified(StrataSpec(np.arange(20) % 2), [3, 3])
    seq = np.random.SeedSequence(5)
    first = design.draw(seq)
    assert np.array_equal(design.draw(seq).units, first.units)
    assert np.array_equal(design.draw(5).units, first.units)


@pytest.mark.parametrize("spawn_key", [(), (3,)])
def test_child_seeds_are_a_first_spawn_that_leaves_the_parent_alone(spawn_key):
    parent = np.random.SeedSequence(7, spawn_key=spawn_key)
    children = child_seeds(parent, 4)
    assert parent.n_children_spawned == 0
    expected = np.random.SeedSequence(7, spawn_key=spawn_key).spawn(4)
    for got, want in zip(children, expected):
        assert np.array_equal(got.generate_state(8), want.generate_state(8))


def test_child_seeds_of_a_range_are_those_children_alone():
    parent = np.random.SeedSequence(7, spawn_key=(3,))
    block = child_seeds(parent, range(5, 8))
    expected = np.random.SeedSequence(7, spawn_key=(3,)).spawn(8)[5:]
    assert parent.n_children_spawned == 0
    assert [c.spawn_key for c in block] == [(3, 5), (3, 6), (3, 7)]
    for got, want in zip(block, expected):
        assert np.array_equal(got.generate_state(8), want.generate_state(8))


def test_stratified_rejects_oversized_allocation():
    spec = StrataSpec(np.array([0, 0, 1]))
    with pytest.raises(DesignError, match="stratum"):
        draw_stratified(spec, [3, 1], seed=0)
    with pytest.raises(DesignError):
        draw_stratified(spec, [1, 0], seed=0)


def test_ppswr_equal_probabilities():
    draw = draw_ppswr(np.full(4, 0.25), 2, seed=21)
    assert np.allclose(draw.pi, 1.0 - 0.75**2)
    assert draw.multiplicities.sum() == 2


def test_ppswr_single_draw_pi_equals_p():
    p = np.array([0.5, 0.3, 0.2])
    draw = draw_ppswr(p, 1, seed=2)
    assert np.allclose(draw.pi, p[draw.units])


def test_ppswr_distinct_set_frequencies():
    p = np.array([0.5, 0.3, 0.2])
    target = 1.0 - (1.0 - p) ** 2
    reps = 4000
    hits = np.zeros(3)
    for r in range(reps):
        draw = draw_ppswr(p, 2, seed=np.random.SeedSequence(entropy=31, spawn_key=(r,)))
        hits[draw.units] += 1
    sigma = np.sqrt(reps * target * (1 - target))
    assert np.all(np.abs(hits - reps * target) <= 4 * sigma)


def test_ppswr_rejects_bad_probabilities():
    with pytest.raises(DesignError, match="sum"):
        draw_ppswr(np.array([0.5, 0.4]), 2, seed=0)
    with pytest.raises(DesignError, match="positive"):
        draw_ppswr(np.array([1.1, -0.1]), 2, seed=0)


def test_pps_weights_from_curves():
    grid = TimeGrid.uniform(4)
    pop = CurvePopulation(np.ones((3, 4)), grid)
    assert np.allclose(pps_weights_from_curves(pop), 1.0 / 3.0)
    pop = CurvePopulation(np.vstack([np.full(4, 1.0), np.full(4, 3.0)]), grid)
    assert np.allclose(pps_weights_from_curves(pop), [0.25, 0.75])
    pop = CurvePopulation(np.vstack([np.full(4, 1.0), np.full(4, -1.0)]), grid, ids=[7, 9])
    with pytest.raises(DesignError, match="9"):
        pps_weights_from_curves(pop)


def test_joint_inclusion_srswor():
    pi_kl = enumerated_pi_kl(Srswor(5, 2))
    assert pi_kl[0, 1] == pytest.approx(0.1)
    assert pi_kl[3, 3] == pytest.approx(0.4)
    # identity sum_{l != k} pi_kl = (n-1) pi_k on N=6, n=3
    pi_kl = enumerated_pi_kl(Srswor(6, 3))
    total = sum(pi_kl[0, l] for l in range(1, 6))
    assert total == pytest.approx(2 * 0.5, abs=1e-12)


def test_joint_inclusion_stratified():
    spec = StrataSpec(np.array([0, 0, 0, 1, 1]))
    draw = draw_stratified(spec, [2, 1], seed=3)
    pi_kl = enumerated_pi_kl(draw.design)
    assert pi_kl[0, 1] == pytest.approx(2 * 1 / (3 * 2))
    assert pi_kl[0, 3] == pytest.approx((2 / 3) * (1 / 2))
    assert pi_kl[4, 4] == pytest.approx(0.5)


def test_draw_arrays_are_read_only():
    p = np.array([0.2, 0.3, 0.5])
    draws = [
        Srswor(10, 4).draw(1),
        Systematic(np.arange(10.0), 4).draw(1),
        Stratified(StrataSpec(np.repeat([0, 1], 5)), [2, 2]).draw(1),
        PpsWr(np.full(10, 0.1), 4).draw(1),
        SampleDraw([1, 3], [0.5, 0.5], Srswor(4, 2)),
        SampleDraw(np.array([0, 2]), 1.0 - (1.0 - p[[0, 2]]) ** 2, PpsWr(p, 2), np.array([1, 1])),
    ]
    assert draws[3].multiplicities is not None
    for draw in draws:
        arrays = [draw.units, draw.pi]
        if draw.multiplicities is not None:
            arrays.append(draw.multiplicities)
        for values in arrays:
            with pytest.raises(ValueError, match="read-only"):
                values[0] = values[0]


def test_draw_keeps_the_callers_arrays_writable():
    units, mult = np.array([0, 2]), np.array([1, 2])
    draw = SampleDraw(units, [0.5, 0.75], PpsWr(np.array([0.2, 0.3, 0.5]), 3), mult)
    assert units.flags.writeable and mult.flags.writeable
    assert not draw.units.flags.writeable and not draw.multiplicities.flags.writeable
    units[0], mult[0] = 1, 3
    assert list(draw.units) == [0, 2] and list(draw.multiplicities) == [1, 2]


@pytest.mark.parametrize(
    "design",
    [
        Srswor(30, 7),
        Systematic(np.arange(30.0) % 4, 7),
        Stratified(StrataSpec(np.arange(30) % 3), [2, 3, 2]),
        PpsWr(np.arange(1.0, 31.0) / 465.0, 12),
    ],
    ids=lambda design: type(design).__name__,
)
def test_a_designs_own_draw_equals_the_checked_draw_of_its_arrays(design):
    for seed in range(5):
        own = design.draw(seed)
        checked = SampleDraw(own.units, own.pi, own.design, own.multiplicities)
        assert own.design is design
        for name in ("units", "pi", "multiplicities"):
            a, b = getattr(own, name), getattr(checked, name)
            if isinstance(design, PpsWr) or name != "multiplicities":
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert not a.flags.writeable
            else:
                assert a is None and b is None


@pytest.mark.parametrize(
    "units, pi, multiplicities, message",
    [
        ([], [], None, "at least one unit"),
        ([[1, 2]], [[0.5, 0.5]], None, "at least one unit"),
        ([2, 1], [0.5, 0.5], None, "distinct and ascending"),
        ([1, 1], [0.5, 0.5], None, "distinct and ascending"),
        ([1, 2], [0.5], None, "align with the selected units"),
        ([1, 2], [0.0, 0.5], None, "\\(0, 1\\]"),
        ([1, 2], [0.5, 1.5], None, "\\(0, 1\\]"),
        ([1, 2], [0.5, 0.5], [1, 0], "multiplicities must be positive"),
        ([1, 2], [0.5, 0.5], [1], "multiplicities must be positive"),
    ],
)
def test_a_hand_built_draw_is_still_checked(units, pi, multiplicities, message):
    with pytest.raises(DesignError, match=message):
        SampleDraw(np.array(units), np.array(pi), Srswor(4, 2), multiplicities)


def test_sample_draw_validation():
    with pytest.raises(DesignError, match="ascending"):
        SampleDraw(np.array([2, 1]), np.array([0.5, 0.5]), Srswor(4, 2))
    with pytest.raises(DesignError, match="\\(0, 1\\]"):
        SampleDraw(np.array([1, 2]), np.array([0.0, 0.5]), Srswor(4, 2))
    with pytest.raises(DesignError, match="seed"):
        draw_srswor(4, 2, seed=None)


@st.composite
def grouped_rows(draw):
    """Rows with group labels: some groups empty, some of one row, some of many."""
    n_groups = draw(st.integers(1, 6))
    labels = np.array(draw(st.lists(st.integers(0, n_groups - 1), min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    values = offset + scale * rng.standard_normal((labels.size, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        # a constant column: every group's variance there is zero, up to the mean's rounding
        values[:, 0] = offset + 0.1
    return values, labels, n_groups


@settings(max_examples=300, deadline=None)
@given(grouped_rows())
def test_group_s2_is_each_groups_sample_variance(case):
    values, labels, n_groups = case
    counts, s2 = _group_s2(values, labels, n_groups)
    eps = np.finfo(float).eps
    for g in range(n_groups):
        rows = values[labels == g]
        n = rows.shape[0]
        assert counts[g] == n
        if n < 2:
            assert np.all(s2[g] == 0.0)
            continue
        ref = np.var(rows, axis=0, ddof=1)
        # both sum n rounded squares about a mean that is itself off by at
        # most n eps max|x|, which adds n (n eps max|x|)^2 / (n - 1) to each
        bound = 4 * (n + 2) * eps * ref + 4 * (n * eps * np.abs(rows).max(axis=0)) ** 2
        assert np.all(np.abs(s2[g] - ref) <= bound)


def _population_variance_peak(design, values):
    tracemalloc.start()
    try:
        design.population_variance(values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["poststratified", "stratified"])
def test_population_variance_holds_one_buffer_the_size_of_the_matrix(kind):
    n_units, n_points = 4000, 336
    values = np.random.default_rng(2).standard_normal((n_units, n_points))
    groups = StrataSpec(np.arange(n_units) % 4)
    if kind == "poststratified":
        design = Srswor(n_units, 400, groups)
    else:
        design = Stratified(groups, np.full(4, 100))
    # the squared deviations take one N x D buffer; the one-hot matrix,
    # the labels and the group means take about 1.5% of the matrix more
    assert _population_variance_peak(design, values) <= 1.25 * values.nbytes
