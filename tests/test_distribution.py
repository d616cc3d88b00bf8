import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqdist import (
    ALMOST_CONVERGENT,
    INCONCLUSIVE,
    IntervalSet,
    InvalidSpecError,
    NotSimplyDistributedError,
    OverweightError,
    Partition,
    Prefix,
    ResourceLimitError,
    ValueOutOfBoundsError,
    WeightEstimate,
    WindowSchedule,
    banach_limit_bounds,
    banach_limit_simply,
    banach_limit_via_quantization,
    density_profile,
    fixture,
    interval_about,
    is_simply_distributed,
    limit_point_weight,
    materialize,
    naive_count_extrema,
    quantize,
    set_weight,
    Tolerances,
    run_weights,
    table,
    weight_bounds_estimate,
)
from seqdist import distribution, sequences
from seqdist.distribution import (
    _cells,
    _group_bounds,
    _representatives,
    _uniform_cells,
    quantized_banach_limit,
)
from seqdist.sequences import _CHUNK
from seqdist.windows import Membership, head_profile

ALL_FIXTURES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


def exact_weight(value):
    """A weight known exactly, with no profile behind it."""
    f = Fraction(value)
    return WeightEstimate(
        w_l_hat=f, w_u_hat=f, gap=Fraction(0), per_window=None,
        converged=True, tail_rows_used=0,
    )


def safe_partition(bound, cells):
    """Uniform grid with the top cell split, so no value can realize the mesh."""
    pts = list(np.linspace(-bound, bound, cells + 1))
    pts.insert(-1, (pts[-2] + pts[-1]) / 2)
    return Partition(tuple(pts))


# ---------------------------------------------------------------- IntervalSet


def test_interval_set_validation():
    with pytest.raises(InvalidSpecError):
        IntervalSet(intervals=((0.5, 0.5),))
    with pytest.raises(InvalidSpecError):
        IntervalSet(intervals=((0.0, 0.6), (0.5, 1.0)))
    s = IntervalSet(intervals=((0.0, 0.25), (0.5, 1.0)), top_closed=True)
    vals = np.array([0.0, 0.25, 0.5, 0.99, 1.0, -0.1])
    assert s.contains(vals).tolist() == [True, False, True, True, True, False]


@given(
    edges=st.lists(st.sampled_from([i / 8 for i in range(-8, 9)]), max_size=8, unique=True),
    top_closed=st.booleans(),
    values=st.lists(st.sampled_from([i / 16 for i in range(-17, 18)] + [-0.0]), max_size=40),
    chunk=st.sampled_from([1, 3, 7, _CHUNK]),
)
@settings(max_examples=200, deadline=None)
def test_interval_set_contains_matches_per_value_rule(edges, top_closed, values, chunk):
    # Chunks of 1, 3 and 7 values split most inputs into several, the last
    # partial.
    edges = sorted(edges)
    pairs = tuple(zip(edges[::2], edges[1::2]))
    s = IntervalSet(intervals=pairs, top_closed=top_closed)
    vals = np.array(values, dtype=np.float64)
    expected = [
        any(a <= v < b for a, b in pairs) or (top_closed and bool(pairs) and v == pairs[-1][1])
        for v in values
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", chunk)
        assert s.contains(vals).tolist() == expected


def test_interval_about_clipping():
    s = interval_about(1.0, 0.1, 1.0)
    assert s.intervals == ((0.9, 1.0),) and s.top_closed
    s2 = interval_about(0.0, 0.1, 1.0)
    assert s2.intervals == ((-0.1, 0.1),) and not s2.top_closed
    assert interval_about(5.0, 0.1, 1.0).intervals == ()


# ----------------------------------------------------------------- set_weight


def test_set_weight_constant_sequence():
    p = materialize(fixture("F2"), 10_000)
    w = set_weight(p, interval_about(1.0, 0.05, 1.0))
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(1), Fraction(1))


def test_set_weight_transient_sequence():
    p = materialize(fixture("F1"), 10_000)
    w = set_weight(p, interval_about(1.0, 0.05, 1.0))
    assert w.w_l_hat == 0
    assert w.w_u_hat <= Fraction(3, w.n_tail)


def test_set_weight_rotation_half_interval(f5_prefix_large):
    # Brute-force count: 49999 of the first 10**5 golden multiples land in
    # [0, 0.5), so the uniform-distribution weight is 1/2 within 0.01.
    vals = f5_prefix_large.values
    assert int(((vals >= 0) & (vals < 0.5)).sum()) == 49_999
    w = set_weight(f5_prefix_large, IntervalSet(intervals=((0.0, 0.5),)))
    assert abs(float(w.midpoint) - 0.5) <= 0.01
    assert w.converged


def test_set_weight_empty_interval_set():
    p = materialize(fixture("F3"), 500)
    w = set_weight(p, IntervalSet(intervals=()))
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(0), Fraction(0))
    assert w.converged


def test_set_weight_count_additivity():
    # Disjoint interval sets have pointwise-additive window counts, so the
    # union's count extrema are bounded by the sums of the parts' extrema.
    p = materialize(fixture("F5"), 3000)
    a = IntervalSet(intervals=((0.0, 0.3),))
    b = IntervalSet(intervals=((0.3, 0.7),))
    union = IntervalSet(intervals=((0.0, 0.3), (0.3, 0.7)))
    sched = WindowSchedule((7, 64, 600))
    masks = [Membership.from_mask(s.contains(p.values)) for s in (a, b, union)]
    rows_a, rows_b, rows_u = (density_profile(m, sched).rows for m in masks)
    for ra, rb, ru in zip(rows_a, rows_b, rows_u):
        assert ru.max_count <= ra.max_count + rb.max_count
        assert ru.min_count >= ra.min_count + rb.min_count
    for m, rows in zip(masks, (rows_a, rows_b, rows_u)):
        assert [(r.min_count, r.max_count) for r in rows] == [
            naive_count_extrema(m, n) for n in sched.lengths
        ]


# ------------------------------------------------------- is_simply_distributed


def test_simply_distributed_f4():
    rep = is_simply_distributed(materialize(fixture("F4"), 10_000))
    assert rep.values == (0.0, 1.0)
    assert rep.simply_distributed
    w0, w1 = rep.weights
    assert abs(w0.midpoint - Fraction(2, 3)) <= Fraction(1, w0.n_tail)
    assert abs(w1.midpoint - Fraction(1, 3)) <= Fraction(1, w1.n_tail)


def test_simply_distributed_f3():
    rep = is_simply_distributed(materialize(fixture("F3"), 10_000))
    assert rep.values == (-1.0, 1.0)
    assert rep.simply_distributed
    assert all(w.w_l_hat == Fraction(1, 2) == w.w_u_hat for w in rep.weights)
    assert rep.weight_sum == 1


def test_simply_distributed_rejects_rotation():
    rep = is_simply_distributed(materialize(fixture("F5"), 10_000))
    assert not rep.simply_distributed
    assert rep.distinct_count > 64
    assert rep.values == ()
    assert rep.residual_mass == 1


def test_value_tolerance_merging():
    values = np.array([0.0, 1.0, 1.0 + 1e-9] * 200)
    p = Prefix(values=values, horizon=values.size, bound=2.0)
    rep = is_simply_distributed(p, value_tolerance=1e-6, schedule=WindowSchedule((3, 6)))
    assert rep.values == (0.0, 1.0)
    assert rep.distinct_count == 2


def test_nan_value_tolerance_rejected():
    # Checked as `value_tolerance < 0`, NaN passed: no gap exceeds NaN, so
    # F5's 4096 distinct values merged into one group of weight 1 and the
    # prefix was reported simply distributed.
    with pytest.raises(InvalidSpecError):
        is_simply_distributed(materialize(fixture("F5"), 4096), value_tolerance=math.nan)


def merge_values_oracle(uniq, counts, tol):
    """(representative, member positions) per group, by a loop over the gaps."""
    groups = []
    start = 0
    for i in range(1, uniq.size + 1):
        if i == uniq.size or uniq[i] - uniq[i - 1] > tol:
            groups.append(np.arange(start, i))
            start = i
    return [(float(uniq[g[np.lexsort((uniq[g], -counts[g]))[0]]]), g) for g in groups]


@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=200),
    st.sampled_from([0.0, 0.05, 0.1, 0.25, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_value_groups_match_loop_oracle(twentieths, tol):
    values = np.array(twentieths) / 20
    p = Prefix(values=values, horizon=values.size, bound=2.0)
    uniq, counts = p.index
    want = merge_values_oracle(uniq, counts, tol)
    bounds = _group_bounds(uniq, tol)
    assert [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])] == [g.tolist() for _, g in want]
    assert _representatives(uniq, counts, bounds) == [v for v, _ in want]
    rep = is_simply_distributed(p, tol, WindowSchedule((1,)), value_cap=len(want))
    assert rep.values == tuple(v for v, _ in want) and rep.distinct_count == len(want)
    capped = is_simply_distributed(p, tol, WindowSchedule((1,)), value_cap=len(want) - 1)
    assert capped.values == () and capped.distinct_count == len(want)


def test_over_cap_report_picks_no_representative(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("over-cap report did per-group work")

    monkeypatch.setattr(distribution, "_representatives", fail)
    monkeypatch.setattr(distribution, "run_weights", fail)
    rep = is_simply_distributed(materialize(fixture("F5"), 4096))
    assert (rep.values, rep.distinct_count, rep.simply_distributed) == ((), 4096, False)


# -------------------------------------------------------------------- quantize


def test_quantize_constant_sequence():
    p = materialize(fixture("F2"), 100)
    q = quantize(p, Partition((-1.0, 0.5, 1.0)))
    assert np.all(q.values == 0.5)
    err = np.max(np.abs(q.values - p.values))
    assert err == 0.5 < 1.5  # mesh of this partition


def test_quantize_rotation_quarters(f5_prefix_large):
    q = quantize(f5_prefix_large, Partition((0.0, 0.25, 0.5, 0.75, 1.0)))
    assert set(np.unique(q.values)) == {0.0, 0.25, 0.5, 0.75}
    assert np.max(np.abs(q.values - f5_prefix_large.values)) < 0.25


def test_quantize_on_distinct_values_grid():
    # Grid = the distinct values, each owning the cell to its right: every
    # term maps to itself, so the error is 0, strictly under any mesh.
    p = materialize(fixture("F4"), 300)
    q = quantize(p, Partition((0.0, 1.0, 2.0)))
    assert np.array_equal(q.values, p.values)


def test_quantize_error_strictly_below_mesh_everywhere():
    for name in ALL_FIXTURES:
        p = materialize(fixture(name), 2048)
        for cells in (3, 8, 32):
            part = safe_partition(p.bound, cells)
            q = quantize(p, part)
            assert float(np.max(np.abs(q.values - p.values))) < part.mesh


def test_quantize_top_cell_closed():
    p = Prefix(values=np.array([1.0, 0.3, -1.0]), horizon=3, bound=1.0)
    q = quantize(p, Partition((-1.0, 0.0, 1.0)))
    assert q.values.tolist() == [0.0, 0.0, -1.0]


def test_empty_prefix_quantized_and_grouped():
    p = Prefix(values=np.array([]), horizon=0, bound=1.0)
    assert quantize(p, Partition((-1.0, 0.0, 1.0))).values.size == 0
    rep = is_simply_distributed(p, schedule=WindowSchedule((1,)))
    assert (rep.values, rep.weights, rep.distinct_count) == ((), (), 0)


def test_quantize_out_of_bounds():
    p = materialize(fixture("F3"), 10)
    with pytest.raises(ValueOutOfBoundsError):
        quantize(p, Partition((0.0, 1.0)))


@pytest.mark.parametrize("name", ["F4", "F6"])
@pytest.mark.parametrize("points", [(0.0, 1.0), (-1.0, 0.5, 1.0), (-1.0, 0.0, 0.25, 1.0)])
def test_quantize_of_a_prefix_read_from_its_head_fills_neither(name, points, monkeypatch):
    # F4 repeats one period and F6 is made of runs: either quantizes to a
    # prefix of the same layout, read from its head like the input.
    filled = []
    fill = Prefix.values.func

    def spy(self):
        filled.append(self.horizon)
        return fill(self)

    monkeypatch.setattr(Prefix.values, "func", spy)
    p = materialize(fixture(name), 2**21)
    part = Partition(points)
    q = quantize(p, part)
    assert filled == [] and q.head.size == p.head.size < q.horizon
    full = quantize(Prefix(values=p.values, horizon=p.horizon, bound=p.bound), part)
    assert q.span == full.span
    assert all(np.array_equal(a, b) for a, b in zip(q.index, full.index))
    sched = WindowSchedule.geometric(p.horizon)
    for v in full.index.uniq:
        assert head_profile(q, q.head == v, sched) == head_profile(full, full.head == v, sched)
    assert np.array_equal(q.values, full.values)


@st.composite
def cell_case(draw):
    """A prefix on a partition: values on its points, at +-bound, signed
    zeros and anywhere between; uniform or irregular points."""
    bound = draw(st.sampled_from([0.5, 1.0, 3.0]))
    if draw(st.booleans()):
        points = Partition.with_mesh(-bound, bound, draw(st.sampled_from([2.0, 0.5, 1 / 16]))).points
    else:
        inner = draw(st.sets(st.floats(-bound, bound, exclude_min=True, exclude_max=True), max_size=12))
        points = np.array(sorted({-bound, bound, *inner}))
    pool = st.one_of(
        st.sampled_from([*points, -bound, bound, 0.0, -0.0]), st.floats(-bound, bound),
    )
    values = np.array(draw(st.lists(pool, min_size=1, max_size=300)))
    return values, bound, Partition(points)


@st.composite
def lopsided_cell_case(draw):
    """A fine mesh over a few distinct values (m >> k) or a few cells over
    many (k >> m), with values on the points, on the top point and between;
    _CHUNK - 1 to _CHUNK + 1 terms, or twice the distinct values."""
    bound = draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        part = Partition.with_mesh(-bound, bound, bound / draw(st.sampled_from([1000, 2**12])))
        k = draw(st.integers(1, 4))
    else:
        part = Partition.with_mesh(-bound, bound, bound * draw(st.sampled_from([0.75, 1.0, 2.0])))
        k = draw(st.integers(1000, 4000))
    pool = np.concatenate((
        rng.choice(part.points, k), rng.uniform(-bound, bound, k), [bound, 0.0, -0.0],
    ))
    n = draw(st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * pool.size]))
    return rng.choice(pool, n), bound, part


@given(cell_case())
@settings(max_examples=200, deadline=None)
def test_cells_match_per_term_rule(case):
    assert_cells_match(*case)


@given(lopsided_cell_case())
@settings(max_examples=40, deadline=None)
def test_cells_on_lopsided_partitions_and_chunk_edges(case):
    assert_cells_match(*case)


def assert_cells_match(values, bound, part):
    p = Prefix(values=values, horizon=values.size, bound=bound)
    starts, occupied = _cells(p.index.uniq, part.points[:-1])
    m = len(part.points) - 1
    want = np.minimum(np.searchsorted(part.points, values, "right") - 1, m - 1)
    assert np.array_equal(occupied[p.run_labels(starts, p.values)], want)
    assert np.array_equal(occupied, np.unique(want))
    assert np.array_equal(quantize(p, part).values, part.points[want])


@st.composite
def uniform_cell_case(draw):
    """Sorted distinct values on a uniform mesh's points, one float either
    side of them and between, fewer or more of them than cells; bounds from
    1e-3 to 468000 and meshes of the analyze path and others."""
    bound = draw(st.sampled_from([1e-3, 0.3, 1.0, 3.0, 1000.0, 468000.0]))
    mesh = draw(st.sampled_from([1 / 16, 1 / 64, 0.1, 1 / 3, bound / 1000, bound / 2**12, bound]))
    cells = math.ceil(2 * bound / mesh)
    assume(cells <= 2**17)
    part = Partition.with_mesh(-bound, bound, mesh)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on = rng.choice(part.points, draw(st.sampled_from([1, 3, 40, 2 * cells])))
    values = np.concatenate((
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        rng.uniform(-bound, bound, on.size), [bound, -bound, 0.0],
    ))
    return np.unique(np.clip(values, -bound, bound)), bound, part


@given(uniform_cell_case())
@settings(max_examples=300, deadline=None)
def test_uniform_cells_match_a_search_on_the_points(case):
    uniq, bound, part = case
    starts, lefts = _uniform_cells(uniq, -bound, bound, part.points.size - 1)
    want_starts, occupied = _cells(uniq, part.points[:-1])
    assert np.array_equal(starts, want_starts)
    assert np.array_equal(lefts.view(np.int64), part.points[occupied].view(np.int64))


def test_partition_helpers():
    part = Partition.with_mesh(-1.0, 1.0, 1.0 / 16.0)
    assert len(part.points) == 33
    assert part.mesh == pytest.approx(1.0 / 16.0)
    with pytest.raises(InvalidSpecError):
        Partition((1.0,))
    with pytest.raises(InvalidSpecError):
        Partition((0.0, 0.0))
    for bad in ((0.0, math.nan, 1.0), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(InvalidSpecError):
            Partition(bad)
    with pytest.raises(InvalidSpecError):
        Partition.with_mesh(-1.0, 1.0, math.nan)


@pytest.mark.parametrize("cells, error", [
    (math.nan, InvalidSpecError), (2.5, InvalidSpecError), (2.9, InvalidSpecError),
    (3.0, None), (math.inf, ResourceLimitError),
])
def test_cell_count_must_be_whole(cells, error):
    # Checked as `cells < 1`, NaN passed and then failed the cap check with
    # a ResourceLimitError (exit 3); int() truncated 2.5 and 2.9 cells to 2.
    # inf is over the cap.
    if error is None:
        assert len(Partition.uniform(0.0, 1.0, cells).points) == 4
    else:
        with pytest.raises(error):
            Partition.uniform(0.0, 1.0, cells)


# ------------------------------------------------------- Banach limit estimates


def test_banach_limit_simply_alternating():
    rep = is_simply_distributed(materialize(fixture("F3"), 10_000))
    est = banach_limit_simply(rep)
    assert est.point == 0.0
    assert est.verdict == ALMOST_CONVERGENT
    assert est.lower <= est.point <= est.upper


def test_banach_limit_simply_f4_exact_thirds():
    sched = WindowSchedule((24, 48, 96, 192, 384, 768))
    rep = is_simply_distributed(materialize(fixture("F4"), 10_000), schedule=sched)
    est = banach_limit_simply(rep)
    assert est.point == 1 / 3
    assert (est.lower, est.upper) == (1 / 3, 1 / 3)


def test_banach_limit_simply_constant():
    est = banach_limit_simply(is_simply_distributed(materialize(fixture("F2"), 5000)))
    assert est.point == 1.0


def test_banach_limit_simply_requires_verdict():
    rep = is_simply_distributed(materialize(fixture("F5"), 5000))
    with pytest.raises(NotSimplyDistributedError):
        banach_limit_simply(rep)


def test_weight_bounds_estimate_invariants():
    from seqdist import weight_bounds_estimate

    w = WeightEstimate(
        w_l_hat=Fraction(1, 4), w_u_hat=Fraction(1, 2), gap=Fraction(1, 4),
        per_window=None, converged=True, tail_rows_used=0,
    )
    est = weight_bounds_estimate([(1.0, w), (-0.5, exact_weight(Fraction(1, 2)))])
    assert est.method == "weight-bounds"
    assert est.lower <= est.point <= est.upper
    assert est.point == pytest.approx((est.lower + est.upper) / 2)
    assert est.verdict == ALMOST_CONVERGENT
    unsettled = WeightEstimate(
        w_l_hat=Fraction(0), w_u_hat=Fraction(1), gap=Fraction(1),
        per_window=None, converged=False, tail_rows_used=0,
    )
    assert weight_bounds_estimate([(1.0, unsettled)]).verdict == INCONCLUSIVE


def test_banach_limit_bounds_examples():
    assert banach_limit_bounds([(1.0, exact_weight(1))]) == (1.0, 1.0)
    w = WeightEstimate(
        w_l_hat=Fraction(45, 100), w_u_hat=Fraction(55, 100),
        gap=Fraction(10, 100), per_window=None, converged=True, tail_rows_used=0,
    )
    lower, upper = banach_limit_bounds([(1.0, w), (-1.0, w)])
    assert (lower, upper) == (-0.1, 0.1)
    lower, upper = banach_limit_bounds(
        [(1.0, exact_weight(Fraction(1, 3))), (0.0, exact_weight(Fraction(2, 3)))]
    )
    assert (lower, upper) == (1 / 3, 1 / 3)  # the zero value drops out
    with pytest.raises(InvalidSpecError):
        banach_limit_bounds([(1.0, w), (1.0, w)])


def test_quantization_estimate_constant():
    est = banach_limit_via_quantization(fixture("F2"), 2000, (1 / 4, 1 / 16))
    assert abs(est.point - 1.0) <= 1 / 16
    assert est.verdict == ALMOST_CONVERGENT
    assert est.error_bound is not None and est.error_bound <= 1 / 16 + 1e-12


def test_quantization_estimate_rotation(f5_prefix_large):
    est = banach_limit_via_quantization(fixture("F5"), 100_000, (1 / 16, 1 / 64))
    assert abs(est.point - 0.5) <= 1 / 64 + 0.01
    assert est.verdict == ALMOST_CONVERGENT
    assert est.lower <= est.point <= est.upper


def test_quantization_estimate_dyadic(f7_prefix_large):
    est = banach_limit_via_quantization(fixture("F7"), 2**20, (1 / 8, 1 / 32))
    assert abs(est.point - math.log(2)) <= 1 / 32 + 0.01


def test_quantization_inconclusive_on_doubling_blocks():
    est = banach_limit_via_quantization(fixture("F6"), 2**14)
    assert est.verdict == INCONCLUSIVE


def test_quantization_monotone_refinement():
    # Nested dyadic grids: estimates move by at most the two meshes plus
    # twice the convergence tolerance times the bound.
    a = banach_limit_via_quantization(fixture("F5"), 20_000, (1 / 16,))
    b = banach_limit_via_quantization(fixture("F5"), 20_000, (1 / 64,))
    assert abs(a.point - b.point) <= 1 / 16 + 1 / 64 + 2 * 0.02 * 1.0


def test_quantization_validates_meshes():
    with pytest.raises(InvalidSpecError):
        banach_limit_via_quantization(fixture("F2"), 100, ())
    with pytest.raises(InvalidSpecError):
        banach_limit_via_quantization(fixture("F2"), 100, (1 / 4, 1 / 2))


def test_nan_mesh_rejected():
    # Checked as `m <= 0`, NaN passed: a zero-bound prefix came back
    # almost-convergent, and any other failed later on the partition.
    zero = Prefix(values=np.zeros(64), horizon=64, bound=0.0)
    for p in (zero, materialize(fixture("F4"), 64)):
        with pytest.raises(InvalidSpecError, match="meshes must be positive"):
            quantized_banach_limit(p, (math.nan,))


@st.composite
def quantization_case(draw):
    """A table prefix holding +-bound and exact cell edges, decreasing meshes, a schedule."""
    bound = draw(st.sampled_from([0.5, 1.0, 3.0]))
    pool = [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 64]
    meshes = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3)), reverse=True)
    edges = sorted({x for m in meshes for x in Partition.with_mesh(-bound, bound, m).points})
    values = draw(
        st.lists(st.one_of(st.sampled_from(edges), st.floats(-bound, bound)), max_size=300)
    )
    values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from([-bound, bound])))
    n = len(values)
    if draw(st.booleans()):
        sched = WindowSchedule.geometric(n, base=draw(st.integers(1, 8)), ratio=2)
    else:
        lengths = draw(st.sets(st.integers(1, n), min_size=1, max_size=4))
        sched = WindowSchedule(tuple(sorted(lengths)))
    return materialize(table(values), n), tuple(meshes), sched


@given(quantization_case())
@settings(max_examples=60, deadline=None)
def test_quantized_banach_limit_matches_public_composition(case):
    p, meshes, sched = case
    got = quantized_banach_limit(p, meshes, sched)
    points, converged = [], True
    for mesh in meshes:
        part = Partition.with_mesh(-p.bound, p.bound, mesh)
        rep = is_simply_distributed(quantize(p, part), 0.0, sched, value_cap=len(part.points))
        pairs = list(zip(rep.values, rep.weights))
        est = weight_bounds_estimate(pairs)
        points.append(sum((Fraction(v) * w.midpoint for v, w in pairs), Fraction(0)))
        converged = converged and est.verdict == ALMOST_CONVERGENT
    steady = all(
        abs(float(b - a)) < m0 + m1
        for a, b, m0, m1 in zip(points, points[1:], meshes, meshes[1:])
    )
    assert (got.point, got.lower, got.upper) == (est.point, est.lower, est.upper)
    assert got.error_bound == meshes[-1] + est.error_bound
    assert got.verdict == (ALMOST_CONVERGENT if converged and steady else INCONCLUSIVE)


@given(quantization_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_tail_rows_only_change_nothing(case, data):
    p, meshes, sched = case
    tol = Tolerances(tail_rows=data.draw(st.integers(1, len(sched.lengths) + 2)))
    got = quantized_banach_limit(p, meshes, sched, tol)
    points, converged = [], True
    for mesh in meshes:
        part = Partition.with_mesh(-p.bound, p.bound, mesh)
        rep = is_simply_distributed(quantize(p, part), 0.0, sched, tol, value_cap=len(part.points))
        pairs = list(zip(rep.values, rep.weights))
        est = weight_bounds_estimate(pairs)
        points.append(sum((Fraction(v) * w.midpoint for v, w in pairs), Fraction(0)))
        converged = converged and est.verdict == ALMOST_CONVERGENT
    steady = all(
        abs(float(b - a)) < m0 + m1
        for a, b, m0, m1 in zip(points, points[1:], meshes, meshes[1:])
    )
    assert (got.point, got.lower, got.upper) == (est.point, est.lower, est.upper)
    assert got.error_bound == meshes[-1] + est.error_bound
    assert got.verdict == (ALMOST_CONVERGENT if converged and steady else INCONCLUSIVE)

    def summary(w):
        return w.w_l_hat, w.w_u_hat, w.gap, w.converged, w.n_tail

    # A fresh prefix for the tail, so its rows are counted, not kept ones.
    runs = np.arange(p.index.uniq.size)
    tail = WindowSchedule(sched.lengths[-tol.tail_rows:])
    fresh = Prefix(values=p.values, horizon=p.horizon, bound=p.bound)
    full_ws = run_weights(p, runs, range(runs.size), sched, tol)
    tail_ws = run_weights(fresh, runs, range(runs.size), tail, tol)
    assert [summary(w) for w in full_ws] == [summary(w) for w in tail_ws]


# ------------------------------------------------------------ limit point rule


def test_limit_point_weight_dyadic_tail():
    known = [(1.0 / j, exact_weight(Fraction(1, 2**j))) for j in range(1, 13)]
    w = limit_point_weight(known, 0.0)
    assert w.w_l_hat == w.w_u_hat == Fraction(1, 4096)


def test_limit_point_weight_trivial_cases():
    w = limit_point_weight([], 0.0)
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(1), Fraction(1))
    w = limit_point_weight([(1.0, exact_weight(1))], 0.0)
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(0), Fraction(0))


def test_limit_point_weight_overweight():
    heavy = exact_weight(Fraction(3, 5))
    with pytest.raises(OverweightError):
        limit_point_weight([(0.5, heavy), (0.25, heavy)], 0.0)


def test_limit_point_weight_requires_convergence():
    w = WeightEstimate(
        w_l_hat=Fraction(0), w_u_hat=Fraction(1), gap=Fraction(1),
        per_window=None, converged=False, tail_rows_used=0,
    )
    with pytest.raises(InvalidSpecError):
        limit_point_weight([(1.0, w)], 0.0)
