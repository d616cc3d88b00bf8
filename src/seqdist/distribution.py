"""Distribution diagnostics, quantization, and Banach-limit estimation.

A prefix is "simply distributed" at finite scale when it takes few distinct
values and each value's windowed density has settled uniformly in the
offset; the point estimate of the unique Banach limit is then the weighted
sum of the values.  General prefixes are handled by quantizing onto a
partition (piecewise-constant, left-endpoint rule) and driving the mesh
down, with the mesh itself serving as a rigorous sup-norm error term.

Weighted sums are accumulated in exact rational arithmetic and converted to
float only at the report boundary, so periodic fixtures whose counts are
exact produce exactly representable estimates.

Set weights are supported for finite unions of half-open intervals only.
Every weight actually used downstream is an interval weight, and nothing
beyond intervals is verifiable from data; there is deliberately no
measure-theoretic extension (windowed densities are finitely additive but
provably not countably additive, see the CLI's demo command).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidSpecError,
    NotSimplyDistributedError,
    OverweightError,
    ResourceLimitError,
    ValueOutOfBoundsError,
    whole,
)
from . import sequences
from .sequences import Prefix, SequenceSpec, materialize, max_horizon
from .weights import (
    DEFAULT_TOLERANCES,
    Tolerances,
    WeightEstimate,
    head_weight,
    run_weights,
)
from .windows import WindowSchedule

# Verdicts shared across estimation paths.
ALMOST_CONVERGENT = "almost-convergent"
NOT_ALMOST_CONVERGENT = "not-almost-convergent"
INCONCLUSIVE = "inconclusive"

METHOD_SIMPLE_SUM = "simple-sum"
METHOD_WEIGHT_BOUNDS = "weight-bounds"
METHOD_QUANTIZATION = "quantization"

DEFAULT_VALUE_CAP = 64
DEFAULT_MESHES = (1.0 / 16.0, 1.0 / 64.0)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint half-open intervals [a, b), sorted by a.

    ``top_closed`` additionally includes the right endpoint of the last
    interval, which is how a cell touching the sequence bound +M gets to
    contain +M itself (half-open cells alone can never cover the supremum).
    """

    intervals: tuple[tuple[float, float], ...]
    top_closed: bool = False

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
                raise InvalidSpecError(f"need finite a < b, got [{a}, {b})")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise InvalidSpecError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Bool mask of the 1-D ``values`` that lie in the set.

        The compares are made ``sequences._CHUNK`` values at a time, each
        written into one chunk of the mask through two reused chunk-sized
        temporaries, so no compare makes an N-long array.
        """
        mask = np.zeros(np.shape(values), dtype=bool)
        if not self.intervals:
            return mask
        chunk = sequences._CHUNK
        low, high = np.empty((2, min(chunk, mask.size)), dtype=bool)
        (a0, b0), *rest = self.intervals
        for s in range(0, mask.size, chunk):
            part, out = values[s : s + chunk], mask[s : s + chunk]
            at, below = low[: out.size], high[: out.size]
            np.greater_equal(part, a0, out=out)
            out &= np.less(part, b0, out=below)
            for a, b in rest:
                np.greater_equal(part, a, out=at)
                at &= np.less(part, b, out=below)
                out |= at
            if self.top_closed:
                out |= np.equal(part, self.intervals[-1][1], out=at)
        return mask


def interval_about(center: float, epsilon: float, bound: float) -> IntervalSet:
    """[center - epsilon, center + epsilon) clipped to [-bound, bound].

    When the window sticks out past +bound the clipped cell is closed at the
    top, so a sequence sitting exactly on its bound is still covered.
    Windows entirely outside, or degenerating to a point after clipping,
    come back empty; a center that is not finite is rejected.
    """
    if not epsilon > 0:
        raise InvalidSpecError("epsilon must be positive")
    if not math.isfinite(center):
        raise InvalidSpecError(f"center must be finite, got {center!r}")
    lo = max(center - epsilon, -bound)
    hi = min(center + epsilon, bound)
    if lo >= hi:
        return IntervalSet(intervals=())
    return IntervalSet(intervals=((lo, hi),), top_closed=center + epsilon > bound)


@dataclass(frozen=True)
class Partition:
    """Grid a_0 < a_1 < ... < a_m used for piecewise-constant quantization.

    ``points`` is kept as a read-only float64 array.  A float64 input is not
    copied: the stored array is a read-only view of the caller's memory.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).view()
        # Negated so that NaN, which fails every comparison, is rejected too;
        # strictly increasing points between finite ends are all finite.
        if pts.ndim != 1 or pts.size < 2 or not (
            np.all(np.diff(pts) > 0) and np.isfinite(pts[[0, -1]]).all()
        ):
            raise InvalidSpecError("partition needs >= 2 finite, strictly increasing points")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

    @classmethod
    def uniform(cls, lo: float, hi: float, cells: float) -> "Partition":
        return cls(points=np.linspace(lo, hi, _cell_count(cells) + 1))

    @classmethod
    def with_mesh(cls, lo: float, hi: float, mesh: float) -> "Partition":
        """Uniform partition of [lo, hi] with spacing <= mesh."""
        return cls.uniform(lo, hi, _mesh_cells(lo, hi, mesh))


def _cell_count(cells: float) -> int:
    # Negated so that NaN fails the first check and a count that
    # overflowed to inf hits the cap.
    if not cells >= 1:
        raise InvalidSpecError("need at least one cell")
    if not cells <= max_horizon():
        raise ResourceLimitError(
            f"{cells:.0f} partition cells exceed the cap of {max_horizon()}"
        )
    return whole(cells, "cell count")


def _mesh_cells(lo: float, hi: float, mesh: float) -> int:
    """Cells of the uniform partition of [lo, hi] with spacing <= mesh."""
    if not (mesh > 0 and hi > lo):
        raise InvalidSpecError("need mesh > 0 and hi > lo")
    return _cell_count(np.ceil((hi - lo) / mesh))


@dataclass(frozen=True)
class SimpleReport:
    """Distinct values of a prefix with per-value weight estimates.

    ``simply_distributed`` is true when every per-value weight converged and
    the weight midpoints sum to 1 within the gap tolerance.  When the number
    of distinct values exceeds the cap the verdict is immediately false and
    no weights are estimated (``residual_mass`` is then 1).
    """

    values: tuple[float, ...]
    weights: tuple[WeightEstimate, ...]
    residual_mass: Fraction
    simply_distributed: bool
    distinct_count: int
    weight_sum: Fraction | None


@dataclass(frozen=True)
class BanachEstimate:
    """A Banach-limit estimate with its enclosing interval.

    ``point`` always lies inside [lower, upper]: it is the weighted sum of
    weight midpoints and the interval is the weighted sum stretched to the
    lower/upper weights (positive values paired with lower weights on the
    left end, negative values the other way around).  ``error_bound``, when
    present, additionally covers the sup-norm distance to the sequence that
    was actually analyzed (the quantization mesh).
    """

    point: float
    lower: float
    upper: float
    error_bound: float | None
    method: str
    verdict: str


def set_weight(
    p: Prefix,
    region: IntervalSet,
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> WeightEstimate:
    """Weight estimate of {n : x(n) in region}.

    The gap field is the uniformity diagnostic: a small gap across the tail
    rows is consistent with the windowed density of the region converging
    uniformly in the offset.  An empty region yields exactly (0, 0).  The
    region's mask is taken over ``p.head`` and counted by ``head_weight``,
    so a prefix read from its head is not filled.
    """
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    return head_weight(p, region.contains(p.head), sched, tolerances)


def _group_bounds(uniq: np.ndarray, tol: float) -> np.ndarray:
    """Bounds of the runs of sorted distinct values whose neighbor gaps are <= tol.

    Group g is ``uniq[bounds[g]:bounds[g + 1]]``; no values make no group."""
    if not uniq.size:
        return np.zeros(1, dtype=np.intp)
    return np.concatenate(([0], np.flatnonzero(np.diff(uniq) > tol) + 1, [uniq.size]))


def _representatives(uniq: np.ndarray, counts: np.ndarray, bounds: np.ndarray) -> list[float]:
    """The most frequent member of each group, ties toward the smaller value."""
    return [float(uniq[lo + np.argmax(counts[lo:hi])]) for lo, hi in zip(bounds, bounds[1:])]


def is_simply_distributed(
    p: Prefix,
    value_tolerance: float = 0.0,
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    value_cap: int = DEFAULT_VALUE_CAP,
) -> SimpleReport:
    """Check whether the prefix looks finitely-valued with settled weights.

    Distinct values (``p.index``) whose neighbor gaps are at most
    ``value_tolerance`` merge into one group, represented by its most
    frequent member; each group is one run of ``uniq``, weighed by ``run_weights``.
    """
    # Negated so that NaN, which fails every comparison, is rejected too.
    if not value_tolerance >= 0:
        raise InvalidSpecError("value_tolerance must be >= 0")
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    uniq, counts = p.index
    bounds = _group_bounds(uniq, value_tolerance)
    groups = bounds.size - 1
    if groups > value_cap:
        return SimpleReport(
            values=(),
            weights=(),
            residual_mass=Fraction(1),
            simply_distributed=False,
            distinct_count=groups,
            weight_sum=None,
        )
    weights = run_weights(p, bounds[:-1], range(groups), sched, tolerances)
    total = sum((w.midpoint for w in weights), Fraction(0))
    verdict = all(w.converged for w in weights) and abs(total - 1) <= tolerances.gap
    return SimpleReport(
        values=tuple(_representatives(uniq, counts, bounds)),
        weights=weights,
        residual_mass=Fraction(0),
        simply_distributed=bool(verdict),
        distinct_count=groups,
        weight_sum=total,
    )


def _cells(uniq: np.ndarray, lefts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run starts, cell of each run) of the sorted distinct values, none
    below ``lefts[0]``, by the cells whose left endpoints are ``lefts``.

    Cell j is [a_j, a_{j+1}), except that the top cell is closed: it holds
    ``uniq[edges[j]:edges[j + 1]]``, edges[j] being the number of values
    below a_j.  The points are searched among the distinct values, O(m log
    k), and no array is longer than the points or the index.
    """
    edges = np.searchsorted(uniq, lefts, "left")
    occupied = np.flatnonzero(np.diff(edges, append=uniq.size))
    return edges[occupied], occupied


def _uniform_cells(uniq: np.ndarray, lo: float, hi: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(run starts, cell left endpoints) of the sorted distinct values in
    [lo, hi] by the cells of ``Partition.uniform(lo, hi, cells)``, without
    building all of its points.

    Point j is ``j * step + lo``, the expression ``np.linspace`` evaluates,
    and the last is ``hi``; the top cell is closed.  With fewer cells than
    values the cells' points are searched among the values (``_cells``).
    Otherwise each value's cell is estimated as ``floor((v - lo) / step)``
    and corrected by one comparison each way against those points; below
    the cell cap the estimate is off by less than a cell.  Either way no
    array is longer than the smaller of the two counts.
    """
    step = (hi - lo) / cells
    if cells < uniq.size:
        starts, occupied = _cells(uniq, np.arange(cells) * step + lo)
        return starts, occupied * step + lo
    j = uniq - lo
    j /= step
    np.floor(j, out=j)
    np.minimum(j, cells - 1, out=j)
    j -= uniq < j * step + lo
    j += (uniq >= (j + 1) * step + lo) & (j < cells - 1)
    starts = np.flatnonzero(np.diff(j, prepend=-1))
    return starts, j[starts] * step + lo


def mesh_cells(p: Prefix, mesh_schedule) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(mesh, run starts, cell left endpoints) of ``p.index.uniq`` for each
    mesh of ``mesh_schedule``, by the cells of ``Partition.with_mesh(-M, M,
    mesh)`` (``_uniform_cells``); none for a prefix whose bound M is 0.

    The meshes must be positive and strictly decreasing.
    """
    meshes = [float(m) for m in mesh_schedule]
    # Negated so that NaN, which fails every comparison, is rejected too.
    if not meshes or not all(m > 0 for m in meshes):
        raise InvalidSpecError("meshes must be positive")
    if any(b >= a for a, b in zip(meshes, meshes[1:])):
        raise InvalidSpecError("meshes must be strictly decreasing")
    m = p.bound
    if m == 0:
        return []
    return [(mesh, *_uniform_cells(p.index.uniq, -m, m, _mesh_cells(-m, m, mesh))) for mesh in meshes]


def quantize(p: Prefix, partition: Partition) -> Prefix:
    """Snap every term to the left endpoint of its partition cell.

    Cells are half-open [a_j, a_{j+1}) except the top cell, which is closed
    so a term sitting exactly on the partition's upper end still maps to the
    last left endpoint.  The sup-norm error is below the mesh for every term
    strictly inside the grid; a term exactly at the top can realize the full
    width of the final cell, so keep that cell no wider than the rest if the
    strict bound matters.
    """
    uniq = p.index.uniq
    if uniq.size and (uniq[0] < partition.lo or uniq[-1] > partition.hi):
        raise ValueOutOfBoundsError(
            f"values outside partition span [{partition.lo}, {partition.hi}]"
        )
    bound = max(p.bound, abs(partition.lo), abs(partition.hi))
    starts, occupied = _cells(uniq, partition.points[:-1])
    cells = partition.points[occupied]
    return p.map(lambda v: cells[p.run_labels(starts, v)], bound)


def _enclosure(pairs) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (point, lower, upper) from (value, weight) pairs.

    point is the sum of values times weight midpoints; lower and upper are
    the enclosure described in ``banach_limit_bounds``.  The values must be
    distinct: each pair weighs one disjoint index set.
    """
    vals = [float(v) for v, _ in pairs]
    if len(set(vals)) != len(vals):
        raise InvalidSpecError("values must be distinct")
    point = lower = upper = Fraction(0)
    for value, w in pairs:
        v = Fraction(value)
        point += v * w.midpoint
        if v > 0:
            lower += v * w.w_l_hat
            upper += v * w.w_u_hat
        elif v < 0:
            lower += v * w.w_u_hat
            upper += v * w.w_l_hat
    return point, lower, upper


def banach_limit_bounds(values_and_weights) -> tuple[float, float]:
    """Two-sided enclosure of every Banach limit from value weights.

    lower = sum of positive values times their lower weights plus negative
    values times their upper weights; upper mirrors it.  Zero values drop
    out of both ends.  Exact in rational arithmetic, rounded only on return.
    """
    _, lower, upper = _enclosure(list(values_and_weights))
    return float(lower), float(upper)


def weight_bounds_estimate(values_and_weights) -> BanachEstimate:
    """Enclosure-style estimate from (value, weight) pairs.

    ``point`` is the weighted sum of midpoints, which is exactly the
    midpoint of [lower, upper].  The verdict is almost-convergent when every
    weight converged (settled weights for every value force a unique limit
    inside the enclosure) and inconclusive otherwise.
    """
    pairs = list(values_and_weights)
    point, lower, upper = _enclosure(pairs)
    converged = all(w.converged for _, w in pairs)
    return BanachEstimate(
        point=float(point),
        lower=float(lower),
        upper=float(upper),
        error_bound=float((upper - lower) / 2),
        method=METHOD_WEIGHT_BOUNDS,
        verdict=ALMOST_CONVERGENT if converged else INCONCLUSIVE,
    )


def banach_limit_simply(report: SimpleReport) -> BanachEstimate:
    """Point estimate sum(value * weight midpoint) for a simple prefix."""
    if not report.simply_distributed:
        raise NotSimplyDistributedError(
            "prefix did not pass the simply-distributed check"
        )
    point, lower, upper = _enclosure(list(zip(report.values, report.weights)))
    return BanachEstimate(
        point=float(point),
        lower=float(lower),
        upper=float(upper),
        error_bound=None,
        method=METHOD_SIMPLE_SUM,
        verdict=ALMOST_CONVERGENT,
    )


def banach_limit_via_quantization(
    spec: SequenceSpec,
    horizon: int,
    mesh_schedule=DEFAULT_MESHES,
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> BanachEstimate:
    """``quantized_banach_limit`` of the prefix x(1..horizon) of ``spec``."""
    return quantized_banach_limit(materialize(spec, horizon), mesh_schedule, schedule, tolerances)


def quantized_banach_limit(
    p: Prefix,
    mesh_schedule=DEFAULT_MESHES,
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> BanachEstimate:
    """Estimate the Banach limit by quantizing at successively finer meshes.

    Each mesh splits the distinct values of ``p.index`` into runs by cell
    (the rule of ``quantize`` on ``Partition.with_mesh(-M, M, mesh)``, found
    by arithmetic so no point is built), weighs the occupied cells with
    ``run_weights`` and values each at its left endpoint.  No cell's
    per-window rows are reported, so the cells are weighed on the last
    ``tolerances.tail_rows`` schedule lengths only: the weights, gaps and
    convergence flags read nothing else.  The point
    estimate is the weighted sum over the finest mesh and the error bound
    is that mesh (sup-norm distance to the true prefix) plus the half-width
    of the weight-bounds interval.  The verdict
    is almost-convergent only when every per-cell weight converged at every
    mesh and successive point estimates moved by less than the sum of the
    two meshes involved; unsettled weights leave the verdict inconclusive.
    """
    return quantized_estimate(p, mesh_cells(p, mesh_schedule), schedule, tolerances)


def quantized_estimate(
    p: Prefix,
    cells: list[tuple[float, np.ndarray, np.ndarray]],
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> BanachEstimate:
    """The weighing half of ``quantized_banach_limit``, for the cells of
    ``mesh_cells(p, mesh_schedule)``."""
    meshes = [mesh for mesh, _, _ in cells]
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    tail = WindowSchedule(sched.lengths[-tolerances.tail_rows:])
    if p.bound == 0:
        return BanachEstimate(
            point=0.0, lower=0.0, upper=0.0, error_bound=0.0,
            method=METHOD_QUANTIZATION, verdict=ALMOST_CONVERGENT,
        )
    # Every mesh's cells are known before the first is weighed, so the
    # prefix groups its head once for all of them.
    p.register(*(starts for _, starts, _ in cells))
    points: list[Fraction] = []
    all_converged = True
    for mesh, starts, lefts in cells:
        weights = run_weights(p, starts, range(starts.size), tail, tolerances)
        point, lower, upper = _enclosure(list(zip(lefts, weights)))
        points.append(point)
        all_converged = all_converged and all(w.converged for w in weights)
    steady = all(
        abs(float(b - a)) < meshes[i] + meshes[i + 1]
        for i, (a, b) in enumerate(zip(points, points[1:]))
    )
    half_width = (upper - lower) / 2
    verdict = ALMOST_CONVERGENT if (all_converged and steady) else INCONCLUSIVE
    return BanachEstimate(
        point=float(points[-1]),
        lower=float(lower),
        upper=float(upper),
        error_bound=meshes[-1] + float(half_width),
        method=METHOD_QUANTIZATION,
        verdict=verdict,
    )


def limit_point_weight(
    known,
    p_candidate: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> WeightEstimate:
    """Complement weight at the unique accumulation point of the values.

    When every value except ``p_candidate`` carries a settled weight, the
    candidate's weight is pinned by total mass 1: its lower estimate is
    1 minus the sum of upper weights (clamped at 0) and its upper estimate
    1 minus the sum of lower weights.  An empty ``known`` list puts the
    whole mass at the candidate.
    """
    pairs = list(known)
    for _, w in pairs:
        if not w.converged:
            raise InvalidSpecError("known weights must be converged")
    sum_l = sum((w.w_l_hat for _, w in pairs), Fraction(0))
    sum_u = sum((w.w_u_hat for _, w in pairs), Fraction(0))
    if sum_l > 1 + tolerances.gap:
        raise OverweightError(f"lower weights already sum to {float(sum_l)} > 1")
    if sum_u > 1 + tolerances.gap:
        raise OverweightError(f"upper weights already sum to {float(sum_u)} > 1")
    w_l = max(Fraction(0), 1 - sum_u)
    w_u = max(Fraction(0), min(Fraction(1), 1 - sum_l))
    return WeightEstimate(
        w_l_hat=w_l,
        w_u_hat=w_u,
        gap=w_u - w_l,
        per_window=None,
        converged=True,
        tail_rows_used=0,
    )
