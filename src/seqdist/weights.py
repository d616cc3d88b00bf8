"""Sub-limit detection and upper/lower weight estimation.

The upper (lower) weight of a subsequence is the limsup (liminf), over
window length n, of the largest (smallest) windowed density of its index
set.  A prefix cannot take n to infinity, so the estimators here surrogate
the limit superior/inferior with the extreme densities over the last few
rows of a window schedule; using a tail window rather than the single last
row captures oscillation, since the plain limit need not exist.

All weight values are exact rationals (window count over window length);
convergence flags are the only place tolerances enter.  The window counts
of a run of the sorted distinct values (a cluster, value group or
quantization cell) come from ``windows.run_profiles``, which keeps them in
``Prefix.run_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateEpsilonError, InvalidSpecError, whole
from .sequences import Prefix
from .windows import (
    DensityProfile,
    Membership,
    WindowSchedule,
    density_profile,
    head_profile,
    run_profiles,
)


@dataclass(frozen=True)
class Tolerances:
    """Estimator knobs shared by the weight and Cesaro paths.

    gap: max spread between upper and lower tail densities (as a fraction
    of total mass 1, or of 2M for means) still called converged.
    trend: max movement between the last two rows still called settled.
    tail_rows: how many trailing schedule rows feed the limsup/liminf
    surrogates.
    divergence_floor: gap level (times 2M) that, if held across the whole
    tail while windows double, is reported as divergence.
    """

    gap: float = 0.02
    trend: float = 0.01
    tail_rows: int = 3
    divergence_floor: float = 0.25

    def __post_init__(self):
        # Negated so that NaN, which fails every comparison, is rejected too.
        if not all(0 < v < np.inf for v in (self.gap, self.trend, self.divergence_floor)):
            raise InvalidSpecError("tolerances must be positive and finite")
        object.__setattr__(self, "tail_rows", whole(self.tail_rows, "tolerance tail_rows"))


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class WeightEstimate:
    """Finite-horizon surrogate of a (lower, upper) weight pair.

    w_u_hat is the largest tail-row density max_count/n, w_l_hat the
    smallest tail-row density min_count/n, both exact rationals.
    ``converged`` means the gap is within tolerance and the last two rows
    barely moved.  ``per_window`` is None for derived estimates (e.g. the
    complement weight at a limit point) that were never counted directly.
    """

    w_l_hat: Fraction
    w_u_hat: Fraction
    gap: Fraction
    per_window: DensityProfile | None
    converged: bool
    tail_rows_used: int

    def __post_init__(self):
        if not 0 <= self.w_l_hat <= self.w_u_hat <= 1:
            raise InvalidSpecError("need 0 <= w_l_hat <= w_u_hat <= 1")

    @property
    def midpoint(self) -> Fraction:
        return (self.w_l_hat + self.w_u_hat) / 2

    @property
    def n_tail(self) -> int | None:
        """Smallest window length among the tail rows used."""
        if self.per_window is None or not self.per_window.rows:
            return None
        return self.per_window.rows[-self.tail_rows_used].n


def _estimate(prof: DensityProfile, tolerances: Tolerances) -> WeightEstimate:
    """Weight estimate from the count rows of one index set.

    w_u is the largest max_count / n of the last ``tail_rows`` rows and w_l
    the smallest min_count / n; the estimate has converged when w_u - w_l
    is at most ``tolerances.gap`` and, between the last two rows, neither
    density moved by more than ``tolerances.trend``.  Densities are
    compared as integers, c / n against c' / n' as c * n' against c' * n,
    and a tolerance as p / q, its ``as_integer_ratio``, so every compare is
    exact and no ``Fraction`` is built for a row: only the stored w_l, w_u
    and gap are.
    """
    k = min(tolerances.tail_rows, len(prof.rows))
    tail = prof.rows[-k:]
    top = low = tail[0]
    for r in tail[1:]:
        if r.max_count * top.n > top.max_count * r.n:
            top = r
        if r.min_count * low.n < low.min_count * r.n:
            low = r
    w_u = Fraction(top.max_count, top.n)
    w_l = Fraction(low.min_count, low.n)
    gap = w_u - w_l
    p, q = tolerances.gap.as_integer_ratio()
    converged = gap.numerator * q <= p * gap.denominator
    if converged and len(tail) >= 2:
        a, b = tail[-2], tail[-1]
        p, q = tolerances.trend.as_integer_ratio()
        converged = all(
            abs(y * a.n - x * b.n) * q <= p * a.n * b.n
            for x, y in ((a.max_count, b.max_count), (a.min_count, b.min_count))
        )
    return WeightEstimate(
        w_l_hat=w_l,
        w_u_hat=w_u,
        gap=gap,
        per_window=prof,
        converged=converged,
        tail_rows_used=k,
    )


def weight_from_membership(
    m: Membership,
    schedule: WindowSchedule,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> WeightEstimate:
    """Weight estimate of an index set given as an indicator."""
    return _estimate(density_profile(m, schedule), tolerances)


def head_weight(
    p: Prefix,
    bits: np.ndarray,
    schedule: WindowSchedule,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> WeightEstimate:
    """Weight estimate of the terms of ``p`` that repeat a head entry
    flagged in ``bits``, a bool mask over ``p.head`` (``head_profile``)."""
    return _estimate(head_profile(p, bits, schedule), tolerances)


def run_weights(
    p: Prefix,
    starts: np.ndarray,
    ids,
    schedule: WindowSchedule,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[WeightEstimate, ...]:
    """One weight estimate per run j in ``ids`` of the sorted distinct values,
    from its count rows (``run_profiles``).

    Run j is ``p.index.uniq[starts[j]:starts[j + 1]]`` (``starts[0] == 0``,
    the last run ends at the last value) and weighs the terms whose value
    lies in it.  Sub-limit clusters, distinct-value groups and quantization
    cells are all such runs, so their window counts stay additive, and each
    run is counted once per prefix and length.  A caller that reads only
    the weights passes just the tail of its schedule.
    """
    return tuple(_estimate(prof, tolerances) for prof in run_profiles(p, starts, ids, schedule))


def sublimit_weight(
    p: Prefix,
    a: float,
    epsilon: float,
    schedule: WindowSchedule,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> WeightEstimate:
    """Weight estimate of the terms lying in [a - epsilon, a + epsilon).

    For an isolated candidate sub-limit with separation >= epsilon this
    estimates the weight of ``a`` itself: those terms are its essential
    subsequence, which every subsequence converging to ``a`` eventually
    lies in.  The window is half-open so that interval weights and
    sub-limit weights count the very same index set.
    """
    if not epsilon > 0:
        raise InvalidSpecError("epsilon must be positive")
    if not np.isfinite(a):
        raise InvalidSpecError(f"a must be finite, got {a!r}")
    mask = (p.head >= a - epsilon) & (p.head < a + epsilon)
    return head_weight(p, mask, schedule, tolerances)


@dataclass(frozen=True)
class SubLimitCluster:
    """One recurrent value cluster: a finite-scale sub-limit candidate."""

    center: float
    radius: float
    occurrences: int
    isolated: bool
    last_index: int
    weight: WeightEstimate


@dataclass(frozen=True)
class SubLimitReport:
    """Recurrent clusters plus the mass they fail to cover.

    ``clusters`` holds only candidates (clusters that recur in the final
    stretch of the prefix), sorted by center.  ``residual_count`` is the
    number of terms falling in clusters that stopped recurring; candidate
    occurrences plus the residual always account for every term.
    """

    clusters: tuple[SubLimitCluster, ...]
    residual_count: int
    residual_mass: Fraction
    horizon: int
    epsilon: float


def check_sublimit_epsilon(epsilon: float, bound: float) -> None:
    """Reject a clustering epsilon that is not positive (NaN included) or
    that cannot separate two values within [-bound, bound]."""
    if not epsilon > 0:
        raise InvalidSpecError("epsilon must be positive")
    if epsilon >= 2 * bound:
        raise DegenerateEpsilonError(
            f"epsilon {epsilon} cannot separate values within [-{bound}, {bound}]"
        )


def cluster_starts(p: Prefix, epsilon: float) -> np.ndarray:
    """The sorted first indices into ``p.index.uniq`` of the sub-limit
    clusters of ``detect_sublimits``, which checks ``epsilon``.

    Clustering is greedy on an epsilon grid over the prefix's distinct-value
    index.  Distinct values are visited in decreasing occurrence order (ties
    toward smaller values) and each unassigned seed absorbs every
    still-unassigned value in [seed - epsilon, seed + epsilon); what it
    absorbs is always one run of the sorted distinct values, as a value
    group or quantization cell is, so the clusters' starts are all a
    grouping of the head needs.  Reads no term.

    When every count is equal, as among distinct terms, the visiting order
    is ``uniq`` order, so each seed absorbs exactly [seed, seed + epsilon)
    and the starts are one sweep of searches, with no sort.
    """
    uniq, counts = p.index
    if counts.min() == counts.max():
        starts = [0]
        while starts[-1] < uniq.size:
            s = starts[-1]
            starts.append(max(int(np.searchsorted(uniq, uniq[s] + epsilon, "left")), s + 1))
        return np.array(starts[:-1])

    # waiting[r] flags the value order[r] as unassigned, so the next seed is
    # the first flag left in visiting order: argmax jumps over assigned
    # values instead of walking every distinct value in Python.  A stable
    # sort keeps ties in ``uniq`` order, toward smaller values.  order and
    # rank take the counts' dtype (int32 below 2**31 terms) and, with
    # waiting, are freed on return.
    order = np.argsort(-counts, kind="stable").astype(counts.dtype)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=order.dtype)
    waiting = np.ones(uniq.size, dtype=bool)
    starts = []
    r = 0
    while True:
        r += int(waiting[r:].argmax())
        if not waiting[r]:
            break
        uid = int(order[r])
        seed = uniq[uid]
        lo = int(np.searchsorted(uniq, seed - epsilon, side="left"))
        # seed + epsilon rounds to seed when epsilon is below half an ulp of
        # it; the seed still belongs to its own span.
        hi = max(int(np.searchsorted(uniq, seed + epsilon, side="left")), uid + 1)
        # An earlier seed's span never holds this seed, so it covers only a
        # prefix (seed below) or a suffix (seed above) of this span: the
        # values left form one run of ``uniq`` around the seed.
        free = waiting[rank[lo:hi]]
        start = lo + int(free.argmax())
        waiting[rank[start : start + int(free.sum())]] = False
        starts.append(start)
    # The runs tile ``uniq``; number the clusters in value order.
    return np.sort(starts)


def detect_sublimits(
    p: Prefix,
    epsilon: float,
    recurrence_window: float = 0.25,
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> SubLimitReport:
    """Cluster recurrent values and estimate a weight for each cluster.

    The clusters are the runs of ``cluster_starts``.  A cluster is a
    sub-limit candidate iff its last index (``Prefix.last_indices``, read
    from the prefix's one grouping of its head) lies past
    (1 - recurrence_window) * N; "recurs late" is the finite-scale stand-in
    for "occurs infinitely often", and values that stop appearing carry
    weight 0 in the limit anyway.

    Cluster centers are occurrence-weighted means of their member values.
    Each candidate's weight is estimated from the indices of its own
    members (``run_weights``); for an isolated cluster whose separation
    exceeds epsilon this equals sublimit_weight(p, center, epsilon, ...)
    exactly, and for abutting clusters it keeps the per-cluster index sets
    disjoint so their window counts stay additive.

    Whether a non-isolated cluster is a true sub-limit of the infinite
    sequence is not decidable from a prefix; the flag is all this reports.
    """
    check_sublimit_epsilon(epsilon, p.bound)
    if not 0 < recurrence_window <= 1:
        raise InvalidSpecError("recurrence_window must lie in (0, 1]")
    if p.horizon < 1:
        raise InvalidSpecError("an empty prefix has no sub-limits to detect")
    starts = cluster_starts(p, epsilon)
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    uniq, counts = p.index
    ends = np.append(starts[1:], uniq.size)
    occs = np.add.reduceat(counts, starts, dtype=np.int64)
    # One fixed-order reduction: np.dot would call BLAS, whose sum order and
    # so whose last digits depend on its thread count.  Distinct terms
    # (counts a zero-stride view of one 1) sum their values as they are,
    # with no N-long product.
    weighted = uniq if counts.strides == (0,) else uniq * counts
    centers = np.add.reduceat(weighted, starts) / occs
    # |v - center| is largest at a run's ends.
    radii = np.maximum(centers - uniq[starts], uniq[ends - 1] - centers)

    # Isolation is judged against every detected cluster, recurrent or not.
    by_center = np.argsort(centers, kind="stable")
    apart = np.diff(centers[by_center]) >= 3 * epsilon
    isolated = np.empty(starts.size, dtype=bool)
    isolated[by_center] = np.append(True, apart) & np.append(apart, True)

    lasts = p.last_indices(starts)
    recurrent = by_center[lasts[by_center] > int((1.0 - recurrence_window) * p.horizon)]
    weights = run_weights(p, starts, recurrent, sched, tolerances)
    clusters = tuple(
        SubLimitCluster(
            center=float(centers[k]),
            radius=float(radii[k]),
            occurrences=int(occs[k]),
            isolated=bool(isolated[k]),
            last_index=int(lasts[k]),
            weight=w,
        )
        for k, w in zip(recurrent, weights)
    )
    residual = p.horizon - int(occs[recurrent].sum())
    return SubLimitReport(
        clusters=clusters,
        residual_count=residual,
        residual_mass=Fraction(residual, p.horizon),
        horizon=p.horizon,
        epsilon=float(epsilon),
    )
