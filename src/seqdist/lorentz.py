"""Almost-convergence verdicts from uniform-in-offset window means.

A bounded sequence is almost convergent exactly when its window means
converge uniformly in the window's starting offset (Lorentz's criterion).
The finite-scale signature is the uniform gap: max minus min of the window
mean over all offsets, at each tested length.  A vanishing gap across the
tail of the schedule is consistent with almost convergence; a gap pinned
above a floor while windows double is evidence against it.

The window means come from ``windows.cesaro_profile``, the one Cesaro
entry: a prefix of at most two values with exact float sums is read from
the window counts of one run, any other from a float prefix-sum walk.

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
    detect_sublimits,
)
from .windows import CesaroProfile, WindowSchedule, cesaro_profile


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

    The rows are ``cesaro_profile``'s.  Of a prefix of at most two values
    whose float sums are exact it reads them from the window counts of one
    run, kept in ``p.run_rows`` where the sub-limit clusters and
    quantization cells read them again.  A zero estimate, like a zero mean,
    is reported as +0.0.
    """
    sched = schedule if schedule is not None else WindowSchedule.geometric(p.horizon)
    prof = cesaro_profile(p, sched)
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
    # Every cell's first value is registered before the clusters' last
    # indices group the head, so the prefix groups it once for all of them.
    cells = mesh_cells(p, mesh_schedule)
    if p.bound > 0:
        p.register(*(s for _, s, _ in cells))
        rep = detect_sublimits(p, eps, schedule=sched, tolerances=tolerances)
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
