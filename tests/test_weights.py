from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import entry_map, fraction_estimate

from seqdist import (
    DegenerateEpsilonError,
    DensityProfile,
    DensityRow,
    IntervalSet,
    InvalidSpecError,
    Membership,
    Prefix,
    Tolerances,
    WindowSchedule,
    WindowTooLongError,
    cross_validate,
    density_profile,
    detect_sublimits,
    dyadic_harmonic,
    fixture,
    interval_about,
    materialize,
    naive_count_extrema,
    periodic,
    run_weights,
    set_weight,
    shift,
    sublimit_weight,
    weight_from_membership,
)
from seqdist import sequences, windows
from seqdist.distribution import is_simply_distributed, mesh_cells, quantized_estimate
from seqdist.sequences import _CHUNK, ValueIndex
from seqdist.weights import _estimate, cluster_starts
from seqdist.windows import head_profile, member_profile


def mask_weight(mask, schedule):
    return weight_from_membership(Membership.from_mask(mask), schedule)


@pytest.mark.parametrize("lengths", [(1, 2, 3), (5, 50), (16, 32, 64, 128)])
def test_full_sequence_weight_is_one(lengths):
    w = mask_weight(np.ones(600, dtype=bool), WindowSchedule(lengths))
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(1), Fraction(1))
    assert w.converged and w.gap == 0


def test_empty_subsequence_weight_is_zero():
    w = mask_weight(np.zeros(500, dtype=bool), WindowSchedule.geometric(500))
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(0), Fraction(0))


def test_finite_support_weight_vanishes():
    # Three fixed indices: the windowed density dies like 3/n.
    w = mask_weight(np.arange(10_000) < 3, WindowSchedule.geometric(10_000))
    assert w.w_l_hat == 0
    assert w.w_u_hat <= Fraction(3, w.n_tail)
    assert w.converged


def test_arithmetic_progression_weight():
    # Indices 1 mod 3.  At N=300 with lengths divisible by 3 the density is
    # exactly 1/3 (naive recount: every window of length 3k holds k members).
    w = mask_weight(np.arange(300) % 3 == 0, WindowSchedule((30, 60, 75)))
    assert w.w_l_hat == Fraction(1, 3) == w.w_u_hat
    # At scale, an arbitrary geometric schedule stays within 1/n_tail.
    horizon = 30_000
    w = mask_weight(np.arange(horizon) % 3 == 0, WindowSchedule.geometric(horizon))
    assert abs(w.midpoint - Fraction(1, 3)) <= Fraction(1, w.n_tail)
    assert w.converged


def test_essential_indices_examples():
    # The terms in [a - 1/2, a + 1/2) weigh what the mask of their indices
    # weighs, row for row over every window length.
    cases = [
        ("F3", 40, 1.0, np.arange(40) % 2 == 1),
        ("F1", 100, 1.0, np.arange(100) < 3),
        ("F4", 30, 0.0, np.arange(30) % 3 != 0),
    ]
    for name, horizon, a, mask in cases:
        p = materialize(fixture(name), horizon)
        sched = WindowSchedule(tuple(range(1, horizon + 1)))
        assert sublimit_weight(p, a, 0.5, sched) == mask_weight(mask, sched)


def test_essential_indices_window_is_half_open():
    p3 = materialize(fixture("F3"), 10)
    sched = WindowSchedule((10,))
    # [0, 1) excludes the value 1 itself; [1, 2) holds it.
    assert sublimit_weight(p3, 0.5, 0.5, sched).per_window.rows[0].max_count == 0
    assert sublimit_weight(p3, 1.5, 0.5, sched).per_window.rows[0].max_count == 5


def test_sublimit_weight_matches_composition():
    p = materialize(fixture("F4"), 5000)
    sched = WindowSchedule.geometric(5000)
    direct = sublimit_weight(p, 1.0, 0.1, sched)
    composed = set_weight(p, IntervalSet(((0.9, 1.1),)), sched)
    assert direct == composed  # bit-identical, not merely close


def test_sublimit_weight_f2():
    p = materialize(fixture("F2"), 2000)
    w = sublimit_weight(p, 1.0, 0.1, WindowSchedule.geometric(2000))
    assert (w.w_l_hat, w.w_u_hat) == (Fraction(1), Fraction(1))


def test_sublimit_weight_f4_third():
    p = materialize(fixture("F4"), 30_000)
    w = sublimit_weight(p, 1.0, 0.1, WindowSchedule.geometric(30_000))
    assert abs(w.midpoint - Fraction(1, 3)) <= Fraction(1, w.n_tail)


def test_sublimit_weight_rotation_half(f5_prefix_large):
    # Count of frac(n*phi) in [0, 0.5) is equidistributed: weight 1/2 +- 0.01.
    w = sublimit_weight(f5_prefix_large, 0.25, 0.25, WindowSchedule.geometric(100_000))
    assert abs(float(w.midpoint) - 0.5) <= 0.01


def test_detect_sublimits_alternating():
    p = materialize(fixture("F3"), 1000)
    rep = detect_sublimits(p, 0.1)
    assert [c.center for c in rep.clusters] == [-1.0, 1.0]
    assert all(c.isolated for c in rep.clusters)
    for c in rep.clusters:
        assert c.weight.w_l_hat == Fraction(1, 2) == c.weight.w_u_hat
    assert rep.residual_count == 0
    assert sum(c.occurrences for c in rep.clusters) == 1000


def test_detect_sublimits_constant():
    p = materialize(fixture("F2"), 1000)
    rep = detect_sublimits(p, 0.1)
    (c,) = rep.clusters
    assert c.center == 1.0 and c.isolated
    assert (c.weight.w_l_hat, c.weight.w_u_hat) == (Fraction(1), Fraction(1))


def test_detect_sublimits_dyadic(f7_prefix_large):
    rep = detect_sublimits(f7_prefix_large, 0.01)
    centers = [c.center for c in rep.clusters]
    for expected in (1.0, 0.5, 1.0 / 3.0, 0.25, 0.2):
        assert any(abs(c - expected) < 1e-12 for c in centers)
    by_center = {c.center: c for c in rep.clusters}
    # Separations above 3 * epsilon leave 1 .. 1/5 isolated; the tail of
    # centers piling up toward 0 is flagged non-isolated.
    for j in range(1, 6):
        assert by_center[1.0 / j].isolated
    assert any(not c.isolated for c in rep.clusters if c.center < 0.12)
    for j in range(1, 6):
        w = by_center[1.0 / j].weight
        assert abs(float(w.midpoint) - 2.0**-j) <= 0.1 * 2.0**-j + 1e-4


def test_detect_sublimits_cluster_accounting():
    # Occurrences of reported clusters plus the residual cover every term.
    p = materialize(fixture("F7"), 4096)
    rep = detect_sublimits(p, 0.004)
    assert sum(c.occurrences for c in rep.clusters) + rep.residual_count == 4096
    assert rep.residual_mass == Fraction(rep.residual_count, 4096)
    # Cluster extents stay pairwise disjoint.
    spans = sorted((c.center - c.radius, c.center + c.radius) for c in rep.clusters)
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi < lo or hi == pytest.approx(lo)


def test_detect_sublimits_degenerate_epsilon():
    p = materialize(fixture("F3"), 100)
    with pytest.raises(DegenerateEpsilonError):
        detect_sublimits(p, 2.0)
    with pytest.raises(InvalidSpecError):
        detect_sublimits(p, -0.1)
    with pytest.raises(InvalidSpecError):
        detect_sublimits(p, 0.1, recurrence_window=0.0)


def test_nan_epsilon_rejected():
    # NaN fails every comparison: checked as `epsilon <= 0`, it let
    # detect_sublimits (and cross_validate) run forever and sublimit_weight
    # return weight 0.
    nan = float("nan")
    p = materialize(fixture("F4"), 4096)
    sched = WindowSchedule.geometric(4096)
    calls = (
        lambda: detect_sublimits(p, nan),
        lambda: cross_validate(fixture("F4"), 4096, sublimit_epsilon=nan),
        lambda: sublimit_weight(p, 1.0, nan, sched),
        lambda: interval_about(0.5, nan, 1.0),
        # A center that is not finite gave an empty set the same way.
        lambda: sublimit_weight(p, nan, 0.5, sched),
        lambda: sublimit_weight(p, float("inf"), 0.5, sched),
        lambda: sublimit_weight(p, float("-inf"), 0.5, sched),
        lambda: interval_about(nan, 0.1, 1.0),
        lambda: interval_about(float("inf"), 0.1, 1.0),
    )
    for call in calls:
        with pytest.raises(InvalidSpecError):
            call()


def test_detect_sublimits_rejects_an_empty_prefix():
    # With an explicit schedule the seed loop used to reach numpy's
    # "argmax of an empty sequence".
    empty = Prefix(values=np.zeros(0), horizon=0, bound=1.0)
    for schedule in (WindowSchedule((1,)), None):
        with pytest.raises(InvalidSpecError):
            detect_sublimits(empty, 0.1, schedule=schedule)


def docstring_clusters(values, epsilon, recurrence_window=0.25):
    """(center, occurrences, last_index, radius, isolated) of the recurrent
    clusters, by center.

    Written in plain Python from the ``detect_sublimits`` docstring: distinct
    values visited in decreasing occurrence order, ties toward smaller
    values; each unassigned seed absorbs every still-unassigned value in
    [seed - epsilon, seed + epsilon); centers are occurrence-weighted means;
    the radius is the largest distance from the center to a member, and a
    cluster is isolated when no other cluster's center, recurrent or not,
    lies within 3 * epsilon of its own.
    """
    counts = Counter(values)
    last = {v: k for k, v in enumerate(values, start=1)}
    taken = set()
    clusters = []
    for seed in sorted(counts, key=lambda v: (-counts[v], v)):
        if seed in taken:
            continue
        members = [v for v in sorted(counts) if v not in taken and seed - epsilon <= v < seed + epsilon]
        taken.update(members)
        occurrences = sum(counts[v] for v in members)
        center = sum(v * counts[v] for v in members) / occurrences
        radius = max(abs(v - center) for v in members)
        clusters.append((center, occurrences, max(last[v] for v in members), radius))
    threshold = (1 - recurrence_window) * len(values)
    return sorted(
        (
            (*c, all(abs(c[0] - o[0]) >= 3 * epsilon for o in clusters if o is not c))
            for c in clusters
            if c[2] > threshold
        ),
        key=lambda c: c[0],
    )


def cluster_rows(rep):
    return [(c.center, c.occurrences, c.last_index, c.radius, c.isolated) for c in rep.clusters]


@given(
    # Multiples of 1/8 keep every center's sum exact, so the float centers of
    # both implementations agree bit for bit; an epsilon on the same grid
    # makes spans abut exactly at their half-open ends.
    eighths=st.lists(st.integers(-16, 16), min_size=1, max_size=200),
    epsilon_eighths=st.integers(1, 8),
)
@settings(max_examples=150, deadline=None)
def test_detect_sublimits_matches_docstring_clustering(eighths, epsilon_eighths):
    values = [k / 8 for k in eighths]
    epsilon = epsilon_eighths / 8
    p = Prefix(values=np.array(values), horizon=len(values), bound=2.0)
    rep = detect_sublimits(p, epsilon, schedule=WindowSchedule((1,)))
    want = docstring_clusters(values, epsilon)
    assert cluster_rows(rep) == want
    assert rep.residual_count == len(values) - sum(c[1] for c in want)


@given(
    steps=st.lists(st.integers(-64, 64), min_size=1, max_size=120, unique=True),
    copies=st.integers(1, 3),
    epsilon_eighths=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_clusters_of_equally_frequent_values_match_docstring_clustering(
    steps, copies, epsilon_eighths
):
    # Every value occurs equally often, so the seeds are visited in value
    # order and cluster_starts sweeps the values once.
    values = [k / 32 for k in steps] * copies
    epsilon = epsilon_eighths / 8
    p = Prefix(values=np.array(values), horizon=len(values), bound=2.0)
    rep = detect_sublimits(p, epsilon, schedule=WindowSchedule((1,)))
    assert cluster_rows(rep) == docstring_clusters(values, epsilon)


def test_cross_validate_of_distinct_terms_sorts_no_counts(monkeypatch):
    # F5's terms are all distinct, so every count is 1; the only integer
    # arrays argsorted are the head's uint8 labels, never the counts.
    argsort = np.argsort
    sorted_kinds = []

    def spy(a, *args, **kwargs):
        sorted_kinds.append((np.asarray(a).dtype.kind, np.size(a)))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    cross_validate(fixture("F5"), 4096)
    assert ("u", 4096) in sorted_kinds
    assert not [size for kind, size in sorted_kinds if kind == "i" and size >= 4096]


def test_detect_sublimits_earlier_clusters_take_both_ends_of_a_span():
    # 1/8 and 7/8 seed first and take 5/16 and 11/16; the seed 1/2 then
    # spans [1/4, 3/4) but keeps only 7/16 and 1/2 from its middle.
    block = [1 / 8] * 9 + [7 / 8] * 9 + [1 / 2] * 2 + [5 / 16, 7 / 16, 11 / 16]
    values = block * 4
    p = Prefix(values=np.array(values), horizon=len(values), bound=1.0)
    rep = detect_sublimits(p, 1 / 4, schedule=WindowSchedule((1,)))
    assert cluster_rows(rep) == docstring_clusters(values, 1 / 4)
    members = ([1 / 8, 5 / 16], [7 / 16, 1 / 2], [11 / 16, 7 / 8])
    occurrences = [sum(values.count(v) for v in m) for m in members]
    assert [c.occurrences for c in rep.clusters] == occurrences == [40, 12, 40]
    for c, m, n in zip(rep.clusters, members, occurrences):
        assert c.center == sum(v * values.count(v) for v in m) / n
    assert rep.residual_count == 0


def test_detect_sublimits_epsilon_below_ulp_of_seed():
    # 1e20 + 1.0 rounds to 1e20: each seed must still join its own cluster.
    p = Prefix(values=np.array([1e20, 1e20, 3e20, 1e20] * 16), horizon=64, bound=1e21)
    rep = detect_sublimits(p, 1.0, schedule=WindowSchedule((4, 8)))
    assert [(c.center, c.occurrences) for c in rep.clusters] == [(1e20, 48), (3e20, 16)]
    assert rep.residual_count == 0


@given(
    bits=st.lists(st.integers(0, 1), min_size=8, max_size=120),
    flips=st.sets(st.integers(0, 119), min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_index_set_robustness(bits, flips):
    # Index sets differing in F entries give per-window densities within F/n.
    horizon = len(bits)
    flips = {f % horizon for f in flips}
    other = [(1 - b if i in flips else b) for i, b in enumerate(bits)]
    sched = WindowSchedule(tuple(sorted({2, max(2, horizon // 3), horizon})))
    prof_a = density_profile(Membership(np.array(bits, dtype=np.int64), horizon), sched)
    prof_b = density_profile(Membership(np.array(other, dtype=np.int64), horizon), sched)
    for ra, rb in zip(prof_a.rows, prof_b.rows):
        assert abs(ra.min_count - rb.min_count) <= len(flips)
        assert abs(ra.max_count - rb.max_count) <= len(flips)


@pytest.mark.parametrize(
    "field, value",
    [
        ("gap", float("nan")),
        ("trend", float("nan")),
        ("divergence_floor", float("nan")),
        ("gap", float("inf")),
        ("trend", 0.0),
        ("divergence_floor", -0.25),
        ("tail_rows", 0),
    ],
)
def test_tolerances_reject_non_positive_and_non_finite(field, value):
    with pytest.raises(InvalidSpecError):
        Tolerances(**{field: value})


@pytest.mark.parametrize("tail_rows", [2.5, float("inf")])
def test_tolerances_tail_rows_must_be_an_integer(tail_rows):
    # Both were accepted, and lorentz_verdict then sliced its rows with them.
    with pytest.raises(InvalidSpecError):
        Tolerances(tail_rows=tail_rows)
    tol = Tolerances(tail_rows=2.0)
    assert tol.tail_rows == 2 and type(tol.tail_rows) is int


def count_row(n, lo, hi):
    return DensityRow(n=n, min_count=lo, max_count=hi, offsets_scanned=1)


@st.composite
def tail_case(draw):
    """(rows, tolerances): count rows of lengths up to 64, some of them a
    multiple (k n, k lo, k hi) of an earlier row so that ratios tie, and
    tolerances that may be a row movement or a gap of the rows themselves,
    so that compares land on equality."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            r, k = draw(st.sampled_from(rows)), draw(st.integers(1, 4))
            rows.append(count_row(k * r.n, k * r.min_count, k * r.max_count))
        else:
            n = draw(st.integers(1, 64))
            lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
            rows.append(count_row(n, lo, hi))
    ratios = [Fraction(c, r.n) for r in rows for c in (r.min_count, r.max_count)]
    moves = [abs(a - b) for a in ratios for b in ratios if a != b]

    def tolerance():
        # A ratio difference as a float is the exact value when it is dyadic.
        free = st.floats(1e-6, 1.5) | st.sampled_from([2.0**-k for k in range(1, 8)])
        return draw(free | st.sampled_from([float(m) for m in moves] or [0.5]))

    tol = Tolerances(gap=tolerance(), trend=tolerance(), tail_rows=draw(st.integers(1, 4)))
    return rows, tol


@given(tail_case())
# A trend move of exactly the trend tolerance, |delta| * q == p * n_a * n_b
# (1/2 - 1/4 against 1/4), and a gap of exactly the gap tolerance (1/2):
# both are settled.
@example(([count_row(4, 0, 1), count_row(8, 0, 4)], Tolerances(gap=0.5, trend=0.25, tail_rows=2)))
@settings(max_examples=300, deadline=None)
def test_estimate_compares_ratios_exactly(case):
    # Integer cross-products give the Fraction formula's estimate, field by
    # field.
    rows, tol = case
    est = _estimate(DensityProfile(rows=tuple(rows)), tol)
    want = fraction_estimate(rows, tol)
    assert {name: getattr(est, name) for name in want} == want
    assert type(est.converged) is bool
    assert all(type(getattr(est, name)) is Fraction for name in ("w_l_hat", "w_u_hat", "gap"))


def test_estimate_builds_a_fixed_number_of_fractions(fractions_built):
    # Whatever the rows and tail, an estimate builds the same few Fractions:
    # the stored w_l, w_u and gap, none per row.
    counts = set()
    for rows in (1, 4, 64):
        for tail_rows in (1, 2, 4, 64):
            prof = DensityProfile(rows=tuple(count_row(n, n // 3, n // 2) for n in range(1, rows + 1)))
            fractions_built.clear()
            _estimate(prof, Tolerances(tail_rows=tail_rows))
            counts.add(len(fractions_built))
    assert len(counts) == 1 and counts.pop() <= 3


@st.composite
def run_case(draw):
    """A prefix of <= 400 small integers, its distinct values cut into runs
    (one and two runs included), and one to three calls on that one prefix,
    each a schedule (geometric, its tail, or explicit lengths, so calls
    overlap in any order) with the runs it weighs."""
    n = draw(st.integers(1, 400))
    k = draw(st.integers(1, 6))
    values = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=float)
    distinct = np.unique(values).size
    runs = draw(st.integers(1, distinct))
    cuts = draw(st.sets(st.integers(1, max(distinct - 1, 1)), min_size=runs - 1, max_size=runs - 1))
    starts = np.array([0, *sorted(cuts)])
    geo = WindowSchedule.geometric(n, base=draw(st.integers(1, 8)), ratio=draw(st.integers(2, 3)))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["full", "tail", "explicit"]))
        if kind == "full":
            sched = geo
        elif kind == "tail":
            sched = WindowSchedule(geo.lengths[-draw(st.integers(1, len(geo.lengths))):])
        else:
            sched = WindowSchedule(tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=5)))))
        calls.append((sched, draw(st.lists(st.integers(0, runs - 1), unique=True))))
    return Prefix(values=values, horizon=n, bound=float(k)), starts, calls


@given(run_case())
@settings(max_examples=120, deadline=None)
def test_run_weights_match_oracle(case):
    p, starts, calls = case
    uniq = np.unique(p.values)
    edges = [*starts.tolist(), uniq.size]

    def member(a, b):
        return Membership.from_mask((p.values >= uniq[a]) & (p.values <= uniq[b - 1]))

    for sched, ids in calls:
        estimates = run_weights(p, starts, ids, sched)
        assert len(estimates) == len(ids)
        for j, w in zip(ids, estimates):
            assert w == weight_from_membership(member(edges[j], edges[j + 1]), sched)
    # Whichever calls filled them, the kept rows are the oracle's.
    assert set(p.run_rows) <= set(zip(edges, edges[1:]))
    for (a, b), rows in p.run_rows.items():
        m = member(a, b)
        assert rows == {n: naive_count_extrema(m, n) for n in rows}


@st.composite
def few_cluster_values(draw):
    """Up to 300 terms of 1 to 4 values half apart, each its own cluster at
    epsilon 1/4."""
    grid = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=1, max_size=4, unique=True))
    return draw(st.lists(st.sampled_from(grid), min_size=1, max_size=300))


@given(
    few_cluster_values(),
    st.sampled_from([0.01, 0.25, 0.5, 1.0]),
    st.sampled_from([7, 64, _CHUNK]),
)
@settings(max_examples=150, deadline=None)
def test_last_index_of_two_clusters_matches_docstring_clustering(values, window, chunk):
    # Of two clusters and of one, three or four: each cluster's last term
    # is searched backward, in steps that double up to a chunk, until every
    # cluster is found.
    p = Prefix(values=np.array(values), horizon=len(values), bound=2.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", chunk)
        rep = detect_sublimits(p, 0.25, recurrence_window=window, schedule=WindowSchedule((1,)))
    assert cluster_rows(rep) == docstring_clusters(values, 0.25, window)


def test_three_clusters_of_a_periodic_prefix_leave_it_unfilled(monkeypatch):
    # Each cluster's last index lies in the last period, read from the head:
    # N = 2 mod 3, so x(N) = 0.5.
    filled = []
    fill = Prefix.values.func

    def spy(self):
        filled.append(self.horizon)
        return fill(self)

    monkeypatch.setattr(Prefix.values, "func", spy)
    n = 2**21
    rep = detect_sublimits(materialize(periodic((0.0, 0.5, 1.0)), n), 0.1)
    assert [c.last_index for c in rep.clusters] == [n - 1, n, n - 2]
    assert filled == []


@pytest.mark.parametrize("name, masks", [("F4", 1), ("F6", 1), ("F1", 1), ("F7", None), ("F5", None)])
def test_cross_validate_counts_each_run_once(name, masks, monkeypatch):
    # F1, F4 and F6 take two values: every estimator splits them into the
    # same two runs, and only the smaller is counted, on the full schedule.
    # F1 and F4 are periodic, so their run is counted over one period, and F6
    # is made of runs, so its mask holds one bit per run.  Every run is
    # counted by member_profile from its head positions, keyed here by
    # their mask over the head.
    counted = []

    def recording(p, members, schedule):
        bits = np.zeros(p.head.size, dtype=bool)
        bits[members] = True
        counted.extend((bits.tobytes(), n) for n in schedule.lengths)
        return member_profile(p, members, schedule)

    monkeypatch.setattr(windows, "member_profile", recording)
    cross_validate(fixture(name), 4096)
    assert counted and len(set(counted)) == len(counted)
    if masks is not None:
        assert len({bits for bits, _ in counted}) == masks


def test_cross_validate_labels_a_filled_prefix_once(monkeypatch):
    # F5's terms are all distinct, so its head is all N terms.  Every
    # cell's first value is registered before the clusters' last indices
    # group the head, so one labelling of the head groups the terms for all
    # 32 clusters and the 16 + 64 occupied cells, and the last indices are
    # read from that grouping.
    n = 2**16
    labelled = []
    run_labels = Prefix.run_labels

    def spy(self, starts, terms):
        labelled.append((terms is self.head, terms.size))
        return run_labels(self, starts, terms)

    monkeypatch.setattr(Prefix, "run_labels", spy)
    cross_validate(fixture("F5"), n)
    assert labelled == [(True, n)]


@st.composite
def periodic_run_case(draw):
    """Small integers that repeat with period q after t terms, their
    distinct values cut into runs, and a schedule up to N: geometric, its
    tail, or explicit lengths."""
    head = draw(st.lists(st.integers(0, 4), max_size=20))
    pattern = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    # Often just below, at or just past one transient and period.
    near = [len(head) + len(pattern) + d for d in (-1, 0, 1)]
    n = draw(st.integers(1, 300) | st.sampled_from([k for k in near if k > 0]))
    values = np.array((head + pattern * n)[:n], dtype=float)
    distinct = np.unique(values).size
    cuts = draw(st.sets(st.integers(1, max(distinct - 1, 1)), max_size=distinct - 1))
    starts = np.array([0, *sorted(cuts)])
    geo = WindowSchedule.geometric(n, base=draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["full", "tail", "explicit"]))
    if kind == "full":
        sched = geo
    elif kind == "tail":
        sched = WindowSchedule(geo.lengths[-3:])
    else:
        lengths = draw(st.sets(st.sampled_from([1, n]) | st.integers(1, n), min_size=1, max_size=5))
        sched = WindowSchedule(tuple(sorted(lengths)))
    return values, (len(head), len(pattern)), starts, sched


@given(periodic_run_case())
@settings(max_examples=300, deadline=None)
def test_period_kernel_matches_oracle(case):
    # Transients, N below, at and past t + q, a partial last period, and
    # rows with fewer than t + q offsets (explicit lengths up to N).
    values, (t, q), starts, sched = case
    n = values.size
    uniq = np.unique(values)
    edges = [*starts.tolist(), uniq.size]
    p = Prefix(values=values, horizon=n, bound=4.0, period=(t, q))
    for a, b in zip(edges, edges[1:]):
        bits = (values >= uniq[a]) & (values <= uniq[b - 1])
        prof = head_profile(p, bits[: t + q], sched)
        whole = Membership.from_mask(bits)
        assert [(r.n, r.min_count, r.max_count, r.offsets_scanned) for r in prof.rows] == [
            (k, *naive_count_extrema(whole, k), n - k + 1) for k in sched.lengths
        ]
        with pytest.raises(WindowTooLongError):
            head_profile(p, bits[: t + q], WindowSchedule((n + 1,)))


@given(periodic_run_case())
@settings(max_examples=200, deadline=None)
def test_run_weights_of_a_periodic_prefix_count_one_period(case):
    values, period, starts, sched = case
    n = values.size
    p = Prefix(values=values, horizon=n, bound=4.0, period=period)
    plain = Prefix(values=values, horizon=n, bound=4.0)
    counted = []

    def recording(m, schedule):
        counted.append(("walk", m.horizon))
        return density_profile(m, schedule)

    def recording_period(bits, t, q, horizon, lengths):
        counted.append(("period", bits.size))
        return period_extrema(bits, t, q, horizon, lengths)

    ids = range(starts.size)
    period_extrema = windows._period_extrema
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "density_profile", recording)
        mp.setattr(windows, "_period_extrema", recording_period)
        got = run_weights(p, starts, ids, sched)
    # Every window at an offset past t + q repeats one q terms earlier, so
    # the mask is the first t + q terms and density_profile is not called;
    # a prefix of at most t + q terms is its head, counted as any other.
    assert set(counted) <= {("period", sum(period)) if n > sum(period) else ("walk", n)}
    assert got == run_weights(plain, starts, ids, sched)
    assert p.run_rows == plain.run_rows


@st.composite
def class_mask_case(draw):
    """A dyadic harmonic shifted by 0-40 over N from 4 to 3000, a set of
    its classes (often every class from some a on), and a schedule."""
    n = draw(st.integers(4, 300) | st.sampled_from([255, 256, 257, 3000]))
    p = materialize(shift(dyadic_harmonic(), draw(st.integers(0, 40))), n)
    size = p.head.size
    if draw(st.booleans()):
        bits = np.arange(size) >= draw(st.integers(0, size))
    else:
        bits = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    lengths = draw(st.sets(st.integers(1, n), min_size=1, max_size=5))
    return p, bits, WindowSchedule(tuple(sorted(lengths)))


@given(class_mask_case())
# Class 8 of F7 at 256 terms repeats every 256 terms: its mask is the whole
# prefix, counted as any other.
@example((materialize(dyadic_harmonic(), 256), np.arange(9) == 7, WindowSchedule((1, 100, 256))))
@settings(max_examples=200, deadline=None)
def test_class_kernel_matches_oracle(case):
    # A set of classes whose period is shorter than the prefix is counted
    # over one period, folded onto the general kernels; any other is made
    # over all N terms.
    p, bits, sched = case
    whole = Membership.from_mask(bits[entry_map(p)])
    periods = []
    period_extrema = windows._period_extrema

    def recording(bits, t, q, horizon, lengths):
        periods.append(q)
        return period_extrema(bits, t, q, horizon, lengths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_period_extrema", recording)
        prof = head_profile(p, bits, sched)
    assert [(r.n, r.min_count, r.max_count, r.offsets_scanned) for r in prof.rows] == [
        (k, *naive_count_extrema(whole, k), p.horizon - k + 1) for k in sched.lengths
    ]
    # The period of a set is 2**b, b its largest class, or 2**(a - 1) when
    # it holds every class from a on.
    classes = [step.bit_length() - 1 for step in p.strides[1]]
    flagged = [j for j, b in zip(classes, bits) if b]
    q = 2 ** (flagged[0] - 1) if flagged and bits[classes.index(flagged[0]):].all() else 2 ** max(flagged, default=0)
    assert periods == ([q] if q < p.horizon else [])


@pytest.mark.parametrize("s", [0, 3])
@pytest.mark.parametrize("n", [2**12, 2**12 + 5])
@pytest.mark.parametrize("low", [[1], [2], [1, 2], [3, 4]])
def test_dense_class_sets_keep_their_period(low, n, s):
    # Classes `low` with one class b, or with every class up to b: more than
    # SPARSE_SHARE of the terms, with a period 2**b from N/32 up to N.  A
    # period shorter than N is counted over one period, and a period of N
    # or more over all N terms; the rows equal the oracle's either way.
    p = materialize(shift(dyadic_harmonic(), s), n)
    classes = [step.bit_length() - 1 for step in p.strides[1]]
    sched = WindowSchedule.geometric(n)
    period_extrema = windows._period_extrema
    for b in range(8, 13):
        for flagged in (low + [b], list(range(low[0], b + 1))):
            bits = np.isin(classes, flagged)
            assert sum(2.0**-j for j in flagged) > windows.SPARSE_SHARE
            periods = []

            def recording(bits, t, q, horizon, lengths):
                periods.append(q)
                return period_extrema(bits, t, q, horizon, lengths)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(windows, "_period_extrema", recording)
                prof = head_profile(p, bits, sched)
            assert periods == ([2**b] if 2**b < n else [])
            whole = Membership.from_mask(bits[entry_map(p)])
            assert [(r.n, r.min_count, r.max_count) for r in prof.rows] == [
                (k, *naive_count_extrema(whole, k)) for k in sched.lengths
            ]


@st.composite
def distinct_terms(draw):
    """Up to 300 distinct terms in [-1, 1], one zero at most, in any order."""
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300, unique=True))
    return np.array(values, dtype=np.float64)


@given(distinct_terms(), st.sampled_from([1 / 64, 0.1, 0.5]), st.sampled_from([0.0, 0.01, 0.1]))
@settings(max_examples=100, deadline=None)
def test_distinct_terms_weigh_the_same_as_with_stored_counts(values, epsilon, tol):
    # The index of distinct terms stores one count, read through a zero
    # stride; every reader of the counts must see what an N-long array of
    # ones would give it.
    n = values.size
    p = Prefix(values=values, horizon=n, bound=1.0)
    assert p.index.counts.strides == (0,)
    stored = Prefix(values=values, horizon=n, bound=1.0)
    ones = np.ones(n, dtype=p.index.counts.dtype)
    ones.flags.writeable = False
    stored.__dict__["index"] = ValueIndex(p.index.uniq, ones)
    sched = WindowSchedule.geometric(n, base=2)

    def weighed(q):
        starts = cluster_starts(q, epsilon)
        return (
            starts.tolist(),
            detect_sublimits(q, epsilon, schedule=sched),
            quantized_estimate(q, mesh_cells(q, (0.5, 0.0625)), sched),
            is_simply_distributed(q, tol, sched),
            run_weights(q, starts, range(starts.size), sched),
        )

    assert weighed(p) == weighed(stored)


def test_distinct_term_centers_equal_those_from_stored_counts():
    # The centers of distinct terms sum the values themselves; with stored
    # ones they sum each value times its count.  The two agree bit for bit.
    p = materialize(fixture("F5"), 2**16)
    assert p.index.counts.strides == (0,)
    stored = Prefix(values=p.values, horizon=p.horizon, bound=p.bound)
    ones = np.ones(p.horizon, dtype=p.index.counts.dtype)
    ones.flags.writeable = False
    stored.__dict__["index"] = ValueIndex(p.index.uniq, ones)
    sched = WindowSchedule.geometric(p.horizon)

    def centers(q):
        report = detect_sublimits(q, 1 / 64, schedule=sched)
        return [repr(c.center) for c in report.clusters]

    assert len(centers(p)) > 1
    assert centers(p) == centers(stored)
