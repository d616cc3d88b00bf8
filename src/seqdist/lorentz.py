"""Almost-convergence verdicts from uniform-in-offset window means.

A bounded sequence is almost convergent exactly when its window means
converge uniformly in the window's starting offset (Lorentz's criterion).
The finite-scale signature is the uniform gap: max minus min of the window
mean over all offsets, at each tested length.  A vanishing gap across the
tail of the schedule is consistent with almost convergence; a gap pinned
above a floor while windows double is evidence against it.

A prefix can never prove almost convergence, so the positive verdict means
"consistent with almost convergence at every tested scale"; all reported
numbers are prefix-relative, and the verdict thresholds are engineering
choices surfaced in the report, not guaranteed convergence rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distribution import (
    ALMOST_CONVERGENT,
    DEFAULT_MESHES,
    INCONCLUSIVE,
    NOT_ALMOST_CONVERGENT,
    BanachEstimate,
    mesh_cells,
    quantized_estimate,
    weight_bounds_estimate,
)
from .sequences import Prefix, SequenceSpec, materialize
from .weights import (
    DEFAULT_TOLERANCES,
    SubLimitReport,
    Tolerances,
    check_sublimit_epsilon,
    cluster_starts,
    run_weights,
    sublimit_report,
)
from .windows import CesaroProfile, CesaroRow, WindowSchedule, cesaro_profile


@dataclass(frozen=True)
class LorentzVerdict:
    """Uniform-Cesaro summary of one prefix.

    ``estimate`` is the midpoint of the last row's mean range and
    ``uniform_gap`` that row's max minus min; ``gap_trend`` lists the gap of
    every scheduled row in order.
    """

    estimate: float
    uniform_gap: float
    gap_trend: tuple[float, ...]
    verdict: str
    profile: CesaroProfile
    tail_rows_used: int

    @property
    def n_tail(self) -> int:
        """Smallest window length among the tail rows behind the verdict."""
        return self.profile.rows[-self.tail_rows_used].n

    @property
    def error_bound(self) -> float:
        """Half-width of the last row's mean range."""
        return self.uniform_gap / 2


def _two_valued_profile(p: Prefix, sched: WindowSchedule) -> CesaroProfile | None:
    """The Cesaro rows of a prefix of at most two values, from its counted run.

    For values a <= b, a length-n window holding c terms valued b has mean
    a + (b - a) * c / n, so each row is read from the count extrema of b's
    run, as ``run_weights`` returns them.  None unless every float partial
    sum is exact: all values multiples of 2**-k with
    N * max|v| * 2**k <= 2**53.  Then ``cesaro_profile`` divides the exact
    window sum S by n and this path rounds S / n from a Fraction, both
    correctly rounded, and both report a zero mean as +0.0, so the rows
    agree bit for bit.  Exactness is judged from ``p.span``, the min and
    max the bound check found, before ``p.index`` is read, so a prefix
    whose sums are inexact, such as F5's, builds no index here.
    """
    sched.validate_for(p.horizon)
    a, b = map(Fraction, p.span)
    if p.horizon * max(-a, b) * max(a.denominator, b.denominator) > 2**53:
        return None
    if p.index.uniq.size > 2:
        return None
    if a == b:
        counts = dict.fromkeys(sched.lengths, (0, 0))
    else:
        (w,) = run_weights(p, [0, 1], [1], sched)
        counts = {r.n: (r.min_count, r.max_count) for r in w.per_window.rows}
    return CesaroProfile(rows=tuple(
        CesaroRow(n, *(float(a + (b - a) * Fraction(c, n)) + 0.0 for c in counts[n]))
        for n in sched.lengths
    ))


def lorentz_verdict(
    p: Prefix,
    schedule: WindowSchedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> LorentzVerdict:
    """Classify a prefix by the behavior of its uniform Cesaro gaps.

    almost-convergent: every tail-row gap is within tolerances.gap * 2M and
    the tail gaps are non-increasing.  not-almost-convergent: every tail-row
    gap sits at or above tolerances.divergence_floor * 2M even as the window
    lengths grow.  Anything else is inconclusive.

    A prefix of at most two values whose float sums are exact reads its
    rows from the window counts of one run, kept in ``p.run_rows`` where
    the sub-limit clusters and quantization cells read them again; any
    other prefix takes ``cesaro_profile``'s float walk.  Both routes give
    the same rows and report a zero mean, like a zero estimate, as +0.0.
    Exactness is judged from ``p.span``, and the number of values is read
    from ``p.index``, which sorts only the head and which the later stages
    reuse.
    """
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    prof = _two_valued_profile(p, sched) or cesaro_profile(p, sched)
    gaps = tuple(r.max_mean - r.min_mean for r in prof.rows)
    k = min(tolerances.tail_rows, len(gaps))
    tail = gaps[-k:]
    scale = 2.0 * p.bound
    small = all(g <= tolerances.gap * scale for g in tail)
    settling = all(b <= a for a, b in zip(tail, tail[1:]))
    if small and settling:
        verdict = ALMOST_CONVERGENT
    elif all(g >= tolerances.divergence_floor * scale for g in tail) and scale > 0:
        verdict = NOT_ALMOST_CONVERGENT
    else:
        verdict = INCONCLUSIVE
    last = prof.rows[-1]
    return LorentzVerdict(
        estimate=(last.min_mean + last.max_mean) / 2 + 0.0,
        uniform_gap=gaps[-1],
        gap_trend=gaps,
        verdict=verdict,
        profile=prof,
        tail_rows_used=k,
    )


@dataclass(frozen=True)
class CrossValidation:
    """Side-by-side record of the two independent estimation routes.

    ``difference`` is quantization point minus Cesaro estimate and
    ``consistent`` says whether it fits inside the combined reported error
    bounds.  Two routes that both refuse to name a point (divergent gap on
    one side, unsettled weights on the other) are consistent by that rule,
    since both bounds are then wide.
    """

    lorentz: LorentzVerdict
    quantization: BanachEstimate
    sublimits: SubLimitReport
    bounds: BanachEstimate
    difference: float
    combined_bound: float
    consistent: bool


def cross_validate(
    spec: SequenceSpec,
    horizon: int,
    schedule: WindowSchedule | None = None,
    mesh_schedule=DEFAULT_MESHES,
    sublimit_epsilon: float | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CrossValidation:
    """Run the Cesaro route and the weight/quantization route on one spec."""
    eps = sublimit_epsilon if sublimit_epsilon is not None else spec.bound / 32
    if spec.bound > 0:
        check_sublimit_epsilon(eps, spec.bound)
    p = materialize(spec, horizon)
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    lv = lorentz_verdict(p, sched, tolerances)
    # The clusters are counted on the whole schedule and kept in p.run_rows;
    # a quantization cell holding the same values reads its tail rows there.
    # Every cluster's and cell's first value is registered before any run
    # is weighed, so the prefix groups its head once for all of them.
    cells = mesh_cells(p, mesh_schedule)
    if p.bound > 0:
        starts = cluster_starts(p, eps)
        p.register(starts, *(s for _, s, _ in cells))
        rep = sublimit_report(p, starts, eps, schedule=sched, tolerances=tolerances)
    else:
        rep = SubLimitReport(
            clusters=(), residual_count=p.horizon,
            residual_mass=Fraction(1), horizon=p.horizon, epsilon=0.0,
        )
    qe = quantized_estimate(p, cells, sched, tolerances)
    bounds = weight_bounds_estimate([(c.center, c.weight) for c in rep.clusters])
    difference = qe.point - lv.estimate
    combined = (qe.error_bound or 0.0) + lv.error_bound
    return CrossValidation(
        lorentz=lv,
        quantization=qe,
        sublimits=rep,
        bounds=bounds,
        difference=difference,
        combined_bound=combined,
        consistent=bool(abs(difference) <= combined),
    )
