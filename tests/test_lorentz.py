import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdist import lorentz, windows
from seqdist import (
    ALMOST_CONVERGENT,
    INCONCLUSIVE,
    DegenerateEpsilonError,
    InvalidSpecError,
    NOT_ALMOST_CONVERGENT,
    Prefix,
    WindowSchedule,
    affine_combo,
    cesaro_profile,
    cross_validate,
    fixture,
    is_simply_distributed,
    lorentz_verdict,
    materialize,
    periodic,
    shift,
    table,
)
from seqdist.cli import parse_spec_file
from seqdist.windows import CesaroRow


def test_alternating_is_almost_convergent():
    lv = lorentz_verdict(materialize(fixture("F3"), 10_000))
    assert lv.verdict == ALMOST_CONVERGENT
    assert lv.estimate == 0.0
    assert lv.uniform_gap == 0.0


def test_doubling_blocks_diverge():
    sched = WindowSchedule(tuple(16 * 2**t for t in range(8)))
    lv = lorentz_verdict(materialize(fixture("F6"), 2**14), sched)
    assert lv.verdict == NOT_ALMOST_CONVERGENT
    assert lv.uniform_gap == 1.0
    assert all(g == 1.0 for g in lv.gap_trend)


@pytest.mark.parametrize("constant", [1.0, 0.25, -0.5])
def test_constant_sequences_exact(constant):
    lv = lorentz_verdict(materialize(periodic([constant]), 5000))
    assert lv.verdict == ALMOST_CONVERGENT
    assert lv.estimate == constant
    assert lv.uniform_gap == 0.0


def test_transient_sequence_settles_to_zero():
    lv = lorentz_verdict(materialize(fixture("F1"), 10_000))
    assert lv.verdict == ALMOST_CONVERGENT
    assert abs(lv.estimate) <= 3 / lv.n_tail


def test_dyadic_harmonic_estimate(f7_prefix_large):
    lv = lorentz_verdict(f7_prefix_large)
    assert lv.verdict == ALMOST_CONVERGENT
    assert abs(lv.estimate - math.log(2)) < 1e-3


def test_inconclusive_midway():
    # A long transient caught mid-decay: tail gaps run 1, 100/128, 100/256,
    # neither settled below the gap tolerance nor all above the floor.
    lv = lorentz_verdict(materialize(fixture("F1", n0=100), 2000))
    assert lv.verdict == INCONCLUSIVE


def test_cross_validate_f4():
    record = cross_validate(fixture("F4"), 30_000)
    n_tail = record.lorentz.n_tail
    assert abs(record.lorentz.estimate - 1 / 3) <= 2 / n_tail
    assert abs(record.quantization.point - 1 / 3) <= record.quantization.error_bound
    assert record.consistent


def test_cross_validate_f7():
    record = cross_validate(fixture("F7"), 2**18)
    assert abs(record.lorentz.estimate - math.log(2)) <= 0.02
    assert abs(record.quantization.point - math.log(2)) <= 0.02
    assert record.consistent


def test_cross_validate_f6_both_refuse():
    record = cross_validate(fixture("F6"), 2**14)
    assert record.lorentz.verdict == NOT_ALMOST_CONVERGENT
    assert record.quantization.verdict == INCONCLUSIVE
    assert record.consistent  # wide bounds on both sides absorb the difference


@pytest.mark.parametrize(
    "name,horizon",
    [("F1", 10_000), ("F2", 10_000), ("F3", 10_000), ("F4", 30_000), ("F5", 100_000), ("F7", 2**18)],
)
def test_routes_agree_on_almost_convergent_fixtures(name, horizon):
    record = cross_validate(fixture(name), horizon)
    assert abs(record.difference) <= record.combined_bound
    assert record.consistent


def test_estimate_shift_invariance():
    for name in ("F3", "F4", "F5"):
        spec = fixture(name)
        sched = WindowSchedule.geometric(30_000)
        base = lorentz_verdict(materialize(spec, 30_000), sched)
        for k in (1, 5):
            moved = lorentz_verdict(materialize(shift(spec, k), 30_000), sched)
            assert abs(base.estimate - moved.estimate) <= 2 * k * 1.0 / base.n_tail


def test_estimate_linearity():
    z = affine_combo([(0.5, fixture("F3")), (0.25, fixture("F2"))])
    ez = lorentz_verdict(materialize(z, 10_000)).estimate
    e3 = lorentz_verdict(materialize(fixture("F3"), 10_000)).estimate
    assert abs(ez - (0.5 * e3 + 0.25)) <= 1e-9


def test_estimate_normalization():
    assert lorentz_verdict(materialize(fixture("F2"), 10_000)).estimate == 1.0


@pytest.mark.parametrize(
    "epsilon,error",
    [(math.nan, InvalidSpecError), (-1.0, InvalidSpecError), (0.0, InvalidSpecError),
     (2.0, DegenerateEpsilonError)],
)
def test_cross_validate_checks_epsilon_before_any_work(epsilon, error, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("materialized before checking the epsilon")

    monkeypatch.setattr(lorentz, "materialize", fail)
    with pytest.raises(error):
        cross_validate(fixture("F5"), 10**6, sublimit_epsilon=epsilon)


# Specs whose zero terms carry both signs, or only one.  -1 x F1 evaluates
# 0.0 + (-1 * 0.0), so its zero terms are +0.0.
ZERO_SPECS = {
    "periodic mixed": periodic((-0.0, 0.0, 1.0, 0.0)),
    "table mixed": table(
        np.resize([-0.0] * 5 + [0.0, 1.0, -0.0, 0.5] * 30 + [0.0], 10**5).tolist()
    ),
    "periodic -0.0 only": periodic((-0.0, 1.0)),
    "-1 x F1": affine_combo([(-1.0, fixture("F1"))]),
}


@pytest.mark.parametrize("horizon", [64, 1000, 4096, 10**5])
@pytest.mark.parametrize("name", sorted(ZERO_SPECS))
def test_zero_value_sign_follows_the_terms(name, horizon):
    # The reported zero is +0.0 when any zero term is +0.0, and -0.0 only
    # when every zero term is, whichever zero a sort puts first.
    spec = ZERO_SPECS[name]
    p = materialize(spec, horizon)
    negative = bool(np.signbit(p.values[p.values == 0]).all())
    centers = [c.center for c in cross_validate(spec, horizon).sublimits.clusters if c.center == 0]
    values = [v for v in is_simply_distributed(p).values if v == 0]
    assert len(centers) == len(values) == 1
    assert math.copysign(1, centers[0]) == math.copysign(1, values[0]) == (-1 if negative else 1)


@st.composite
def two_valued_case(draw):
    """(prefix, schedule, exact): a periodic prefix of at most two values
    m * 2**-k, each m odd or 0, so ``exact`` is N * max|m| <= 2**53.  In the
    "edge" draws the larger |m| puts that product within a few N of 2**53."""
    horizon = draw(st.integers(2, 600))
    k = draw(st.integers(0, 60))
    if draw(st.booleans()):
        top = (2**53 // horizon + draw(st.integers(-3, 2))) | 1
        ms = [top * draw(st.sampled_from([-1, 1]))]
        ms.append(draw(st.integers(-top // 2, top // 2)) * 2 + 1)
    else:
        ms = [draw(st.integers(-2**10, 2**10)) * 2 + 1, 0]
    ms = draw(st.permutations(ms))
    pattern = draw(st.lists(st.sampled_from(ms), min_size=1, max_size=12))
    values = np.resize(np.array(pattern, dtype=np.float64) * 2.0**-k, horizon)
    lengths = draw(st.sets(st.integers(1, horizon), min_size=1, max_size=6))
    p = Prefix(values=values, horizon=horizon, bound=float(np.abs(values).max()))
    exact = horizon * max(map(abs, pattern[:horizon])) <= 2**53
    return p, WindowSchedule(tuple(sorted(lengths))), exact


def counted_rows(p, sched, monkeypatch):
    """Whether ``cesaro_profile`` took the counted route, and its rows,
    checked against the float walk itself and ``lorentz_verdict``'s rows.

    The counted route runs exactly when the float walk is not called, and
    the walk's extrema, each divided by n and made +0.0 at zero, stay the
    reference for every row."""
    walked = []
    walk = windows._window_extrema

    def spy(values, lengths):
        walked.append(lengths)
        return walk(values, lengths)

    monkeypatch.setattr(windows, "_window_extrema", spy)
    got = cesaro_profile(p, sched).rows
    monkeypatch.setattr(windows, "_window_extrema", walk)
    want = [
        CesaroRow(n, float(lo / n) + 0.0, float(hi / n) + 0.0)
        for n, lo, hi in walk(p.values, sched.lengths)
    ]
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert lorentz_verdict(p, sched).profile.rows == got
    return not walked


def limit_case(pattern, horizon, exact):
    """A ``two_valued_case`` draw of the periodic ``pattern`` at ``horizon``
    N, with the lengths 1, 2, 3, N // 3, N // 2, N - 1 and N."""
    values = np.resize(np.array(pattern, dtype=np.float64), horizon)
    p = Prefix(values=values, horizon=horizon, bound=float(np.abs(values).max()))
    lengths = sorted({1, 2, 3, horizon // 3, horizon // 2, horizon - 1, horizon})
    return p, WindowSchedule(tuple(lengths)), exact


@given(two_valued_case())
# Mixed signs at the exactness limit: N * max|v| * 2**k is 2**53 (256 terms,
# 2**44 and 2**-1), where the counted route's int quotients are at their
# largest, and 2**53 + 1 (321 = 3 * 107 terms, 28059810762433 and 5), where
# the prefix takes the float walk.
@example(limit_case((0.5, -(2.0**44), -(2.0**44)), 256, True))
@example(limit_case((-(2.0**44), 0.5, 0.5, 0.5), 256, True))
@example(limit_case((-28059810762433.0, 5.0, 5.0), 321, False))
@example(limit_case((28059810762433.0, -5.0), 321, False))
@settings(max_examples=300, deadline=None)
def test_two_valued_rows_match_float_walk(case):
    # Rows read from one run's counts repeat the float walk's bytes, and the
    # counted route is taken exactly when every float partial sum is exact.
    p, sched, exact = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert counted_rows(p, sched, monkeypatch) == exact


@pytest.mark.parametrize("horizon", [64, 5000])
@pytest.mark.parametrize(
    "pattern,counted",
    [
        ((0.7,), False),
        ((-0.6699043212455988,), False),
        ((0.7, 0.25), False),
        ((-0.0,), True),
        ((-0.0, 1.0), True),
        ((-0.0, 0.0, 1.0), True),
        ((0.0, -0.0, 1.0), True),
        ((0.0, -0.0), True),
        ((1.0, 0.5, 0.25), False),
        ((-0.0,) * 16 + (1.0,), True),
        ((-0.0,) * 15 + (1.0,), True),
    ],
)
def test_fallback_and_signed_zero_rows(pattern, counted, horizon, monkeypatch):
    # Non-dyadic values and a third value take the float walk.  Zeros of
    # either sign, a first window of 16 (the shortest here) all -0.0
    # included, read +0.0 rows, as the walk gives them.
    p = materialize(periodic(pattern), horizon)
    assert counted_rows(p, WindowSchedule.geometric(horizon), monkeypatch) == counted


@pytest.mark.parametrize("zeros", [16, 15])
def test_a_first_run_of_negative_zeros_is_counted(zeros, monkeypatch):
    # No kind with breaks makes a -0.0 term, so a table is read as two runs
    # here: -0.0 up to term ``zeros``, then 1.0.  The first window of 16
    # sums to -0.0 when the first run covers it, and both routes report its
    # zero mean as +0.0.
    n = 64
    spec = table([-0.0] * zeros + [1.0] * (n - zeros))
    monkeypatch.setattr(type(spec), "breaks", lambda self, last: [zeros + 1])
    p = materialize(spec, n)
    assert p.runs.tolist() == [0, zeros] and p.head.size == 2
    assert counted_rows(p, WindowSchedule.geometric(n), monkeypatch)


def test_counted_rows_build_no_fraction(fractions_built):
    # The counted route's means are int quotients: however many rows the
    # schedule has, cesaro_profile builds no Fraction.
    for name in ("F1", "F4", "F6"):
        for rows in (1, 4, 9):
            sched = WindowSchedule(tuple(16 * 2**k for k in range(rows)))
            cesaro_profile(materialize(fixture(name), 2**14), sched)
    assert fractions_built == []


def test_two_valued_fixtures_walk_no_float_prefix(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("walked the float prefix sum")

    monkeypatch.setattr(windows, "_window_extrema", fail)
    for name in ("F1", "F2", "F3", "F4", "F6"):
        cross_validate(fixture(name), 4096)
    with pytest.raises(AssertionError, match="float prefix"):
        cross_validate(fixture("F5"), 4096)


def test_public_cesaro_profile_fills_no_two_valued_prefix(monkeypatch):
    # The public entry takes lorentz_verdict's counted route: these prefixes
    # hold at most two values with exact sums, so no term is filled, and the
    # rows are the verdict's.
    filled = []
    fill = Prefix.values.func

    def spy(self):
        filled.append(self.horizon)
        return fill(self)

    monkeypatch.setattr(Prefix.values, "func", spy)
    golden = Path(__file__).parent / "golden"
    specs = [fixture(name) for name in ("F1", "F2", "F3", "F4", "F6")]
    specs += [parse_spec_file((golden / f"{f}.spec").read_text()) for f in ("mixed_zero", "shifted_doubling")]
    n = 2**21
    for spec in specs:
        rows = cesaro_profile(materialize(spec, n), WindowSchedule.geometric(n)).rows
        assert rows == lorentz_verdict(materialize(spec, n)).profile.rows
    assert filled == []
