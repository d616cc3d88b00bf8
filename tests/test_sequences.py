import dataclasses
import math
import timeit
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import entry_map, last_terms

from seqdist import (
    IndexOutOfRangeError,
    IntervalSet,
    InvalidSpecError,
    Prefix,
    ResourceLimitError,
    WindowSchedule,
    affine_combo,
    cross_validate,
    detect_sublimits,
    doubling_blocks,
    dyadic_harmonic,
    eval_at,
    fixture,
    lorentz_verdict,
    materialize,
    ones_then_zeros,
    periodic,
    rotation,
    run_weights,
    set_weight,
    shift,
    table,
)
from seqdist import sequences
from seqdist.cli import parse_spec_file
from seqdist.distribution import quantized_banach_limit
from seqdist.sequences import _CHUNK, MAX_HORIZON_ENV, _evaluator


def test_ones_then_zeros_values():
    spec = ones_then_zeros(3)
    assert eval_at(spec, 2) == 1.0
    assert eval_at(spec, 3) == 1.0
    assert eval_at(spec, 4) == 0.0


def test_dyadic_harmonic_single_value():
    # The 2-adic valuation of 4 is 2, so x(4) = 1/3.
    assert eval_at(fixture("F7"), 4) == 1.0 / 3.0


def test_dyadic_harmonic_residue_identity():
    # x(n) = 1/j exactly when n mod 2**j == 2**(j-1): check by the residue
    # rule directly, independent of the bit-trick implementation.
    spec = fixture("F7")
    for n in range(1, 4097):
        j = 1
        while n % (2**j) != 2 ** (j - 1):
            j += 1
        assert eval_at(spec, n) == 1.0 / j


def test_materialize_periodic():
    p = materialize(periodic([1, 0, 0]), 6)
    assert p.values.tolist() == [1, 0, 0, 1, 0, 0]


def test_materialize_all_ones():
    p = materialize(fixture("F2"), 4)
    assert p.values.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_materialize_rational_rotation():
    p = materialize(rotation(0.5), 4)
    assert p.values.tolist() == [0.5, 0.0, 0.5, 0.0]


def test_doubling_blocks_layout():
    got = materialize(fixture("F6"), 15).values.tolist()
    assert got == [0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    # Positions 2**54 - 1, 2**54 and 2**54 + 1 end block 53 and open block
    # 54; as floats the first rounds up to 2**54.
    late = shift(fixture("F6"), 2**54 - 2)
    assert materialize(late, 3).values.tolist() == [1, 0, 0]
    assert [eval_at(late, n) for n in (1, 2, 3)] == [1, 0, 0]


def test_materialize_matches_eval_pointwise():
    specs = [fixture(name) for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F7")]
    specs.append(affine_combo([(0.5, fixture("F3")), (-0.25, fixture("F5"))]))
    for spec in specs:
        p = materialize(spec, 3000)
        for n in (1, 2, 3, 17, 256, 999, 3000):
            assert p.values[n - 1] == eval_at(spec, n)


def test_bound_certified_on_samples():
    specs = [fixture(name) for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F7")]
    specs.append(affine_combo([(0.3, fixture("F5")), (-1.5, fixture("F3"))]))
    samples = np.unique(np.geomspace(1, 10**6, 400).astype(int))
    for spec in specs:
        for n in samples:
            assert abs(eval_at(spec, int(n))) <= spec.bound


def test_shift_examples():
    shifted = shift(periodic([1, 0, 0]), 1)
    assert materialize(shifted, 6).values.tolist() == [0, 0, 1, 0, 0, 1]
    spec = fixture("F5")
    assert materialize(shift(spec, 0), 50).values.tolist() == materialize(spec, 50).values.tolist()
    gone = shift(ones_then_zeros(3), 3)
    assert not materialize(gone, 100).values.any()


@given(a=st.integers(min_value=0, max_value=40), b=st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_shift_composes(a, b):
    spec = fixture("F4")
    lhs = materialize(shift(shift(spec, a), b), 60).values
    rhs = materialize(shift(spec, a + b), 60).values
    assert lhs.tolist() == rhs.tolist()


def test_shift_of_eval():
    spec = fixture("F7")
    y = shift(spec, 5)
    for n in range(1, 64):
        assert eval_at(y, n) == eval_at(spec, n + 5)


def test_table_kind():
    spec = table([0.5, -0.25, 1.0])
    assert eval_at(spec, 2) == -0.25
    assert spec.bound == 1.0
    with pytest.raises(IndexOutOfRangeError):
        eval_at(spec, 4)
    with pytest.raises(IndexOutOfRangeError):
        materialize(spec, 4)


def test_a_table_shifted_past_its_end_defines_no_term():
    # A shift that leaves terms names the last one; a shift past the end
    # names none, since x(1) is already past the table.
    with pytest.raises(IndexOutOfRangeError, match=r"^table defines x only up to n=1$"):
        materialize(shift(table([1, 2, 3]), 2), 2)
    with pytest.raises(IndexOutOfRangeError, match=r"^table of 3 values shifted by 5 defines no term$"):
        materialize(shift(table([1, 2, 3]), 5), 2)
    with pytest.raises(IndexOutOfRangeError, match="defines no term"):
        eval_at(shift(table([1, 2, 3]), 3), 1)


def test_affine_combo_bound_and_values():
    z = affine_combo([(0.5, fixture("F3")), (0.25, fixture("F2"))])
    assert z.bound == pytest.approx(0.75)
    p = materialize(z, 4)
    assert p.values.tolist() == [-0.25, 0.75, -0.25, 0.75]


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpecError):
        periodic([])
    with pytest.raises(InvalidSpecError):
        ones_then_zeros(0)
    with pytest.raises(InvalidSpecError):
        rotation(1.5)
    with pytest.raises(InvalidSpecError):
        table([])
    with pytest.raises(InvalidSpecError):
        affine_combo([])
    with pytest.raises(InvalidSpecError):
        fixture("F9")
    with pytest.raises(InvalidSpecError):
        fixture("F2", n0=5)
    with pytest.raises(InvalidSpecError):
        shift(fixture("F2"), -1)
    with pytest.raises(InvalidSpecError):
        eval_at(fixture("F2"), 0)
    for n in (2**63, math.inf, math.nan, 1.5):
        with pytest.raises(InvalidSpecError):
            eval_at(fixture("F2"), n)
    with pytest.raises(InvalidSpecError):
        eval_at(shift(fixture("F2"), 2**62), 2**62)
    with pytest.raises(InvalidSpecError):
        materialize(shift(fixture("F2"), 2**63 - 2), 3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1.5])
def test_non_finite_horizon_and_shift_rejected(bad):
    # int() of inf or nan raised OverflowError or ValueError before the range check.
    with pytest.raises(InvalidSpecError):
        materialize(fixture("F2"), bad)
    with pytest.raises(InvalidSpecError):
        shift(fixture("F2"), bad)
    assert materialize(fixture("F2"), 3.0).horizon == 3
    assert shift(fixture("F2"), 2.0).shift == 2


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5])
def test_non_finite_n0_rejected(bad):
    # int() of inf or nan raised OverflowError or ValueError before the range check.
    with pytest.raises(InvalidSpecError):
        ones_then_zeros(bad)
    with pytest.raises(InvalidSpecError):
        fixture("F1", n0=bad)


def test_horizon_cap(monkeypatch):
    monkeypatch.setenv(MAX_HORIZON_ENV, "100")
    with pytest.raises(ResourceLimitError):
        materialize(fixture("F2"), 101)
    assert materialize(fixture("F2"), 100).horizon == 100


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_non_positive_horizon_cap_rejected(monkeypatch, cap):
    # A cap below 1 used to be accepted, and every run then hit it.
    monkeypatch.setenv(MAX_HORIZON_ENV, cap)
    with pytest.raises(InvalidSpecError):
        materialize(fixture("F2"), 1)


def test_golden_rotation_default():
    spec = fixture("F5")
    assert spec.alpha == pytest.approx((math.sqrt(5) - 1) / 2)
    vals = materialize(spec, 1000).values
    assert np.all((0 <= vals) & (vals < 1))


def test_fixture_f1_n0_override():
    assert eval_at(fixture("F1", n0=10), 10) == 1.0
    assert eval_at(fixture("F1", n0=10), 11) == 0.0


def test_non_finite_bounds_and_values_rejected():
    with pytest.raises(InvalidSpecError):
        affine_combo([(1e308, fixture("F2")), (1e308, fixture("F2"))])
    for bound in (math.nan, math.inf):
        with pytest.raises(InvalidSpecError):
            dataclasses.replace(fixture("F2"), bound=bound)
    with pytest.raises(InvalidSpecError):
        Prefix(values=np.array([0.5, math.nan]), horizon=2, bound=1.0)
    with pytest.raises(InvalidSpecError):
        Prefix(values=np.array([math.inf]), horizon=1, bound=math.inf)


@pytest.mark.parametrize("values", [[-2.0, 0.0], [0.0, 2.0], [-math.inf, 0.0], [math.nan, 0.0]])
def test_prefix_values_outside_bound_rejected(values):
    with pytest.raises(InvalidSpecError):
        Prefix(values=np.array(values), horizon=2, bound=1.0)


# ---------------------------------------------------------- chunked evaluation

CHUNK_HORIZONS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


@st.composite
def chunk_case(draw):
    """A horizon on either side of a chunk edge and a spec of any kind, often
    shifted; doubling blocks are shifted so that a power of two, below or
    past 2**53, is the first position of a chunk."""
    n = draw(st.sampled_from(CHUNK_HORIZONS))
    kind = draw(st.sampled_from(
        ["periodic", "table", "rotation", "doubling-blocks", "dyadic-harmonic", "affine-combo"]
    ))
    k = draw(st.sampled_from([0, 1, 2**20 + 3, 2**53 - _CHUNK, 2**60 + 7]))
    if kind == "periodic":
        spec = periodic(draw(st.lists(st.floats(-4, 4), min_size=1, max_size=7)))
    elif kind == "table":
        k = draw(st.integers(0, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spec = table(rng.uniform(-1.0, 1.0, n + k))
    elif kind == "rotation":
        spec = rotation(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    elif kind == "doubling-blocks":
        edge = draw(st.integers(0, (n - 1) // _CHUNK)) * _CHUNK
        k = 2 ** draw(st.sampled_from([18, 53, 54, 62])) - (edge + 1)
        spec = fixture("F6")
    elif kind == "dyadic-harmonic":
        spec = fixture("F7")
    else:
        child = shift(fixture("F6"), draw(st.sampled_from([1, 2**18 - _CHUNK - 1, 2**54 - 1])))
        spec = affine_combo([(0.75, child), (-0.5, fixture("F7")), (0.25, fixture("F5"))])
    picks = draw(st.lists(st.integers(1, n), max_size=50))
    return shift(spec, k), n, picks


@given(chunk_case())
@settings(max_examples=60, deadline=None)
def test_materialize_matches_eval_at_on_chunk_edges(case):
    spec, n, picks = case
    got = materialize(spec, n).values
    # Every position within two of a chunk edge, the last ones and the
    # drawn ones, each evaluated on its own.
    edges = [a + d for a in range(0, n + 1, _CHUNK) for d in (-1, 0, 1, 2)]
    positions = sorted({m for m in [*edges, n - 1, n, *picks] if 1 <= m <= n})
    ref = np.array([eval_at(spec, m) for m in positions])
    assert np.array_equal(got[np.array(positions) - 1].view(np.int64), ref.view(np.int64))
    # Every position, against one call of the evaluator on all of them.
    whole = _evaluator(spec, n)(1, n + 1)
    assert np.array_equal(got.view(np.int64), whole.view(np.int64))


def oracle(spec, m):
    """x(m) from each kind's definition in pure-Python integer arithmetic."""
    m += spec.shift
    if spec.kind == "periodic":
        return spec.pattern[(m - 1) % len(spec.pattern)]
    if spec.kind == "table":
        return spec.values[m - 1]
    if spec.kind == "ones-then-zeros":
        return 1.0 if m <= spec.n0 else 0.0
    if spec.kind == "rotation":
        v = float(m) * spec.alpha
        return v - math.floor(v)
    if spec.kind == "doubling-blocks":
        # Block t holds 2**t <= m < 2**(t + 1) and has the value t mod 2.
        return float((m.bit_length() - 1) % 2)
    if spec.kind == "dyadic-harmonic":
        # 2**(j - 1) is the largest power of two dividing m.
        return 1.0 / (m & -m).bit_length()
    acc = 0.0
    for coef, child in spec.terms:
        acc += coef * oracle(child, m)
    return acc


@st.composite
def oracle_case(draw):
    """A spec of any kind shifted so that a chunk edge falls near 2**53,
    2**54 or 2**62 (a table only a little), and a horizon around an edge."""
    n = draw(st.sampled_from(CHUNK_HORIZONS))
    kind = draw(st.sampled_from(
        ["periodic", "ones-then-zeros", "rotation", "doubling-blocks", "dyadic-harmonic",
         "affine-combo"]
    ))
    edge = draw(st.integers(0, (n - 1) // _CHUNK)) * _CHUNK
    k = max(2 ** draw(st.sampled_from([18, 53, 54, 62])) - edge + draw(st.integers(-3, 3)), 0)
    if kind == "periodic":
        spec = periodic(draw(st.lists(st.floats(-4, 4), min_size=1, max_size=7)))
    elif kind == "ones-then-zeros":
        spec = ones_then_zeros(k + edge + draw(st.integers(-3, 3)))
    elif kind == "rotation":
        spec = rotation(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    elif kind in ("doubling-blocks", "dyadic-harmonic"):
        spec = fixture("F6" if kind == "doubling-blocks" else "F7")
    else:
        spec = affine_combo([
            (0.75, shift(fixture("F6"), draw(st.integers(0, 2**20)))),
            (-0.5, fixture("F7")),
            (0.25, fixture("F5")),
        ])
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spec = table(rng.uniform(-1.0, 1.0, n + k))
    return shift(spec, k), n


@given(oracle_case())
@settings(max_examples=80, deadline=None)
def test_materialize_and_eval_at_match_the_definitions(case):
    spec, n = case
    got = materialize(spec, n).values
    positions = sorted({m for a in range(0, n + 1, _CHUNK) for m in range(a - 2, a + 3) if 1 <= m <= n})
    want = np.array([oracle(spec, m) for m in positions])
    at = np.array([eval_at(spec, m) for m in positions])
    for seen in (got[np.array(positions) - 1], at):
        assert np.array_equal(seen.view(np.int64), want.view(np.int64))


def test_materialize_rejects_a_last_position_out_of_range():
    n = CHUNK_HORIZONS[-1]
    short = table(np.zeros(n - 1))
    for spec in (short, shift(table(np.zeros(n)), 1), affine_combo([(1.0, short)])):
        with pytest.raises(IndexOutOfRangeError):
            materialize(spec, n)
    assert materialize(table(np.zeros(n)), n).horizon == n
    with pytest.raises(InvalidSpecError):
        materialize(shift(fixture("F2"), 2**63 - n), n)
    with pytest.raises(InvalidSpecError):
        materialize(affine_combo([(1.0, shift(fixture("F2"), 2**63 - n))]), n)
    assert materialize(shift(fixture("F2"), 2**63 - 1 - n), n).values.all()


def test_materialize_peak_is_the_output_plus_a_chunk():
    tracemalloc.start()
    try:
        p = materialize(fixture("F5"), 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= p.values.nbytes + 3 * 2**20


def test_index_quantization_and_sublimit_peaks_on_distinct_terms():
    # F5's terms are all distinct, so the index is the sorted copy of the
    # terms, with one stored count.  Building it holds that copy and its
    # run-start mask, 9 B/term beside the values.  A later stage may hold,
    # beside the values, the index (8 B/term) and a label array, one more
    # N-long int64 array at a time, not two.
    n = 2**20
    for stage, per_term in (
        (lambda p: p.index, 18),
        (quantized_banach_limit, 27),
        (lambda p: detect_sublimits(p, 1 / 32), 27),
    ):
        p = materialize(fixture("F5"), n)
        tracemalloc.start()
        try:
            stage(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.values.nbytes + peak <= per_term * n


def test_materialize_converts_a_table_once():
    # Converting the table's tuple per chunk made this about 13x slower.
    n = 10**6
    spec = table(np.random.default_rng(1).uniform(-1.0, 1.0, n))
    chunked = min(timeit.repeat(lambda: materialize(spec, n), number=1, repeat=3))
    whole = min(timeit.repeat(
        lambda: _evaluator(spec, n)(1, n + 1), number=1, repeat=3
    ))
    assert chunked <= 2 * whole


# ----------------------------------------------------------- distinct values


def unique_oracle(values):
    """np.unique's (uniq, counts), its zero signed by the index's rule:
    +0.0 when any zero term is +0.0, -0.0 only when every zero term is."""
    uniq, counts = np.unique(values, return_counts=True)
    zero = uniq == 0
    if zero.any():
        uniq[zero] = -0.0 if np.signbit(values[values == 0]).all() else 0.0
    return uniq, counts


@st.composite
def index_case(draw, min_size=1):
    """Terms from a pool of repeats, points of a uniform grid, +-bound and
    signed zeros."""
    bound = draw(st.sampled_from([1.0, 0.75, 3.0]))
    grid = list(np.linspace(-bound, bound, draw(st.integers(1, 9)) + 1))
    pool = grid + [bound, -bound, 0.0, -0.0] + draw(
        st.lists(st.floats(-bound, bound, allow_nan=False), max_size=40)
    )
    values = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=300))
    return np.array(values, dtype=np.float64), bound


def spread(distinct):
    """4096 terms over ``distinct`` evenly spaced values in random order,
    64 of them set to -0.0."""
    rng = np.random.default_rng(distinct)
    values = rng.permutation(np.resize(np.linspace(-1.0, 1.0, distinct), 4096))
    values[rng.integers(0, 4096, 64)] = -0.0
    return values, 1.0


def assert_index_matches(p):
    uniq, counts = unique_oracle(p.values)
    assert np.array_equal(p.index.uniq, uniq)
    assert np.array_equal(np.signbit(p.index.uniq), np.signbit(uniq))
    assert np.array_equal(p.index.counts, counts) and p.index.counts.dtype == np.int32
    assert not any(a.flags.writeable for a in p.index)
    assert p.index is p.index


def index_sorts(p):
    """Build ``p.index`` and return the sizes of the arrays it sorted."""
    sizes = []
    real = np.sort

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "sort", spy)
        p.index
    return sizes


def test_index_of_distinct_terms_is_their_sorted_copy():
    values = np.random.default_rng(5).permutation(np.linspace(-1.0, 1.0, 3 * _CHUNK + 1))
    p = Prefix(values=values, horizon=values.size, bound=1.0)
    sorted_copies = []
    real = np.sort

    def spy(a, *args, **kwargs):
        sorted_copies.append(real(a, *args, **kwargs))
        return sorted_copies[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "sort", spy)
        assert_index_matches(p)
    (srt,) = sorted_copies
    assert np.shares_memory(p.index.uniq, srt)
    # Every count is 1, read through a zero stride: no N-long counts.
    assert p.index.counts.strides == (0,) and p.index.counts.base.size == 1


@pytest.mark.parametrize(
    "extra, zero",
    [
        ((0.25, 0.25), None),
        ((0.0, -0.0), 0.0),
        ((-0.0, 0.0), 0.0),
        ((-0.0, -0.0), -0.0),
        # One -0.0 among distinct terms is no repeat: the index keeps it.
        ((-0.0,), -0.0),
        ((0.0,), 0.0),
    ],
)
def test_index_of_a_head_with_a_repeat_counts_it(extra, zero):
    # linspace(-1, 1, 1000) holds no zero and no repeat.
    rng = np.random.default_rng(len(extra))
    values = rng.permutation(np.append(np.linspace(-1.0, 1.0, 1000), extra))
    p = Prefix(values=values, horizon=values.size, bound=1.0)
    assert_index_matches(p)
    distinct = len(extra) == 1
    assert (p.index.counts.strides == (0,)) == distinct
    if zero is not None:
        z = p.index.uniq[p.index.uniq == 0]
        assert z.size == 1 and np.signbit(z[0]) == np.signbit(zero)


@given(st.sampled_from([0.0, -0.0, 0.5, -1.0]), st.sampled_from([1, 2, _CHUNK + 1]))
@settings(max_examples=20, deadline=None)
def test_value_index_of_equal_terms(value, n):
    assert_index_matches(Prefix(values=np.full(n, value), horizon=n, bound=1.0))


@st.composite
def few_valued_case(draw):
    """Terms of one or two values, zeros of both signs often among them:
    +-bound, signed zeros or any value of the range, over a few terms or
    _CHUNK - 1 to _CHUNK + 1 of them."""
    bound = draw(st.sampled_from([1.0, 0.75, 3.0]))
    pool = st.one_of(st.sampled_from([0.0, -0.0, bound, -bound]), st.floats(-bound, bound))
    values = draw(st.lists(pool, min_size=1, max_size=2))
    if 0.0 in values and draw(st.booleans()):
        values += [0.0, -0.0]
    n = draw(st.sampled_from([1, 2, 7, 300, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(values, n), bound


@given(index_case() | few_valued_case())
@settings(max_examples=300, deadline=None)
def test_value_index_matches_unique(case):
    values, bound = case
    p = Prefix(values=values, horizon=values.size, bound=bound)
    assert p.span == (values.min(), values.max())
    assert_index_matches(p)


@pytest.mark.parametrize("n", [_CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK - 1])
@pytest.mark.parametrize("middle", [0.25, -0.0, 0.0])
@pytest.mark.parametrize("at", [-1, "chunk"])
def test_value_index_with_a_third_value_in_the_last_chunk(n, middle, at):
    # Only the last chunk holds a third value, at its first or its last
    # term; the index sorts every term once, as of any other prefix.
    values = np.resize([-1.0, 1.0, 1.0], n)
    values[(n - 1) // _CHUNK * _CHUNK if at == "chunk" else at] = middle
    p = Prefix(values=values, horizon=n, bound=1.0)
    assert index_sorts(p) == [n]
    assert_index_matches(p)


def test_two_valued_cross_validate_sorts_no_terms(monkeypatch):
    sort = np.sort

    def no_term_sort(a, *args, **kwargs):
        if np.size(a) >= 4096:
            raise AssertionError("sorted the terms")
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", no_term_sort)
    mixed_zero = (Path(__file__).parent / "golden" / "mixed_zero.spec").read_text()
    # Every two-valued prefix is read from a head of at most 22 entries,
    # at the benchmark's 2**21 terms too, so none sorts its terms.
    for spec in [*(fixture(f) for f in ("F1", "F2", "F3", "F4", "F6")), parse_spec_file(mixed_zero)]:
        for n in (4096, 2**21):
            cross_validate(spec, n)
    with pytest.raises(AssertionError, match="sorted the terms"):
        cross_validate(fixture("F5"), 4096)


@pytest.mark.parametrize("distinct", [1024, 1025, 4096])
def test_value_index_on_both_sides_of_the_cut_off(distinct):
    # 1024 distinct values was the old cut-off between a search and an
    # argsort; the one sort must agree with np.unique on either side of it.
    values, bound = spread(distinct)
    assert_index_matches(Prefix(values=values, horizon=4096, bound=bound))
    # Every 16th term one value, the rest 2048 distinct ones: a sample of
    # the terms would miss nearly all of the distinct values.
    hidden = np.where(np.arange(2**16) % 16 == 0, 0.5, np.resize(np.linspace(0, 1, 2048), 2**16))
    assert np.unique(hidden[::16]).size == 1 and np.unique(hidden).size > 1024
    assert_index_matches(Prefix(values=hidden, horizon=2**16, bound=1.0))


@st.composite
def run_case(draw, min_size=0):
    """Terms as in index_case, the empty prefix included, and run starts
    cut anywhere among their distinct values, often at a signed zero."""
    values, bound = draw(index_case(min_size=min_size))
    uniq = np.unique(values)
    cuts = draw(st.sets(st.integers(1, max(uniq.size - 1, 1)), max_size=max(uniq.size - 1, 0)))
    z = int(np.searchsorted(uniq, 0.0))
    if 0 < z < uniq.size and uniq[z] == 0 and draw(st.booleans()):
        cuts.add(z)
    return values, bound, np.array([0, *sorted(cuts)])


def many_runs(size=2**15 + 1):
    """``size`` distinct values in random order, each its own run."""
    values = np.random.default_rng(7).permutation(np.linspace(-1.0, 1.0, size))
    return values, 1.0, np.arange(values.size)


@given(run_case())
@example((np.array([0.0, -0.0, 0.5, -0.5]), 1.0, np.array([0])))
@example((np.array([-0.0, 0.5, -0.5, 0.0]), 1.0, np.array([0, 1])))
@example((np.array([]), 1.0, np.array([0])))
@example(many_runs())
@example(many_runs(2**8 - 1))
@example(many_runs(2**8))
@settings(max_examples=200, deadline=None)
def test_run_labels_match_repeat_of_unique_inverse(case):
    assert_run_labels_match(*case)


def assert_run_labels_match(values, bound, starts):
    p = Prefix(values=values, horizon=values.size, bound=bound)
    uniq, inverse = np.unique(values, return_inverse=True)
    runs = np.repeat(np.arange(starts.size), np.diff(np.append(starts, uniq.size)))
    labels = p.run_labels(starts, p.values)
    n_runs = starts.size
    assert labels.dtype == (np.uint8 if n_runs < 2**8 else np.int16 if n_runs < 2**15 else np.int32)
    assert np.array_equal(labels, runs[inverse.ravel()])


@st.composite
def chunk_edge_case(draw):
    """A run case resampled to _CHUNK - 1, _CHUNK or _CHUNK + 1 terms; each
    of its at most 300 terms is drawn about 200 times, so none is missed."""
    values, bound, starts = draw(run_case(min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(values, _CHUNK + draw(st.integers(-1, 1))), bound, starts


@given(chunk_edge_case())
@settings(max_examples=20, deadline=None)
def test_run_labels_across_a_chunk_edge(case):
    assert_run_labels_match(*case)


def partitions_of(draw, k):
    """One to three partitions of k distinct values into runs, as starts."""
    cuts = st.sets(st.integers(1, max(k - 1, 1)), max_size=k - 1)
    return [np.array([0, *sorted(c)]) for c in draw(st.lists(cuts, min_size=1, max_size=3))]


@st.composite
def members_case(draw):
    """A filled, periodic or run prefix; partitions of its distinct values,
    the first ``registered`` of them registered before any run is asked
    for; and the runs asked for, in any order: every run of every
    partition, so a coarse run often spans several grouped runs, and a
    few runs of no partition, which regroup the head."""
    kind = draw(st.sampled_from(["filled", "periodic", "runs"]))
    if kind == "filled":
        values, bound = draw(index_case())
        p = Prefix(values=values, horizon=values.size, bound=bound)
    elif kind == "periodic":
        head = draw(st.lists(st.integers(-4, 4), max_size=20))
        pattern = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=12))
        n = len(head) + len(pattern) + draw(st.integers(1, 60))
        values = np.array((head + pattern * n)[:n], dtype=float)
        p = Prefix(values=values, horizon=n, bound=4.0, period=(len(head), len(pattern)))
    else:
        children = st.builds(shift, st.just(doubling_blocks()), st.integers(0, 9)) | st.builds(
            ones_then_zeros, st.integers(1, 300)
        )
        terms = st.lists(st.tuples(st.sampled_from([1.0, 2.0, -0.5, 4.0]), children), min_size=1, max_size=3)
        p = materialize(affine_combo(draw(terms)), draw(st.integers(1, 300)))
    k = p.index.uniq.size
    partitions = partitions_of(draw, k)
    runs = [
        (int(a), int(b)) for starts in partitions for a, b in zip(starts, [*starts[1:], k])
    ]
    runs += draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(1, k)).filter(lambda r: r[0] < r[1]), max_size=3
    ))
    asks = draw(st.permutations(runs))
    return p, partitions, draw(st.integers(0, len(partitions))), asks


def many_run_members(size):
    """``size`` distinct values, each its own run (uint8 labels below 256
    runs, else int16), and three runs that each span a third of them."""
    values, bound, starts = many_runs(size)
    p = Prefix(values=values, horizon=values.size, bound=bound)
    a, b = size // 3, 2 * size // 3
    asks = [(0, a), (7, 8), (a, b), (b, size), (size - 1, size), (5, size - 10)]
    return p, [starts, np.array([0, a, b])], 2, asks


def signed_zero_members():
    """A filled prefix of -0.0, 0.0 and 1.0, two distinct values, with the
    one partition at its one inner edge registered: the head is labelled
    by a single compare with 1.0 and grouped by one flatnonzero per run."""
    values = np.array([-0.0, 1.0, 0.0, 0.0, 1.0, -0.0, 1.0, 0.0, -0.0])
    p = Prefix(values=values, horizon=values.size, bound=1.0)
    return p, [np.array([0, 1])], 1, [(0, 1), (1, 2), (0, 2)]


@given(members_case())
@example(signed_zero_members())
@example(many_run_members(255))
@example(many_run_members(300))
@settings(max_examples=150, deadline=None)
def test_members_are_the_head_positions_of_their_run(case):
    p, partitions, registered, asks = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", 7)
        p.register(*partitions[:registered])
        uniq = p.index.uniq
        for first, end in asks:
            got = p.members(first, end)
            want = np.flatnonzero((p.head >= uniq[first]) & (p.head <= uniq[end - 1]))
            assert got.dtype == np.int32 and np.array_equal(got, want)


@pytest.mark.parametrize("top, dtype", [(0, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
def test_positions_are_int32_while_every_stored_value_fits(top, dtype):
    # The one rule behind Prefix.index's counts, Prefix.members' order and
    # the gap kernel's fenced positions.
    assert sequences.position_dtype(top) is dtype


def periodic_specs():
    """Specs that repeat after a transient: patterns holding +-0.0,
    ones-then-zeros with n0 on either side of its shift, and nested affine
    combos of shifted children whose periods need an lcm; all shifted."""
    patterns = st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-4, 4), min_size=1, max_size=5
    ).map(periodic)
    steps = st.integers(1, 12).map(ones_then_zeros)
    coefs = st.sampled_from([1.0, -0.5, 0.1]) | st.floats(-2, 2)
    shifted = lambda specs: st.builds(shift, specs, st.integers(0, 12))
    tree = st.recursive(
        patterns | steps,
        lambda kids: st.lists(st.tuples(coefs, shifted(kids)), min_size=1, max_size=3).map(affine_combo),
        max_leaves=6,
    )
    return shifted(tree)


@given(periodic_specs(), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_materialized_spec_repeats_bitwise_after_its_transient(spec, extra):
    t, q = spec.period()
    n = t + 2 * q + extra
    p = materialize(spec, n)
    assert p.period == (t, q)
    x = p.values.view(np.int64)
    assert np.array_equal(x[t + q :], x[t : n - q])


@pytest.mark.parametrize("spec, period", [
    (fixture("F4"), (0, 3)),
    (shift(fixture("F3"), 5), (0, 2)),
    (ones_then_zeros(5), (5, 1)),
    (shift(ones_then_zeros(5), 2), (3, 1)),
    (shift(ones_then_zeros(5), 7), (0, 1)),
    (affine_combo([(1.0, fixture("F1")), (0.5, fixture("F4"))]), (3, 3)),
    (shift(affine_combo([(1.0, shift(fixture("F1"), 1)), (2.0, fixture("F3"))]), 1), (1, 2)),
    (affine_combo([(1.0, fixture("F3")), (1.0, affine_combo([(1.0, fixture("F4"))]))]), (0, 6)),
])
def test_spec_periods(spec, period):
    assert spec.period() == period


@pytest.mark.parametrize("spec", [
    fixture("F5"), fixture("F6"), fixture("F7"), table([1.0, 0.0]), shift(fixture("F7"), 3),
    affine_combo([(1.0, fixture("F4")), (1.0, fixture("F6"))]),
])
def test_specs_without_a_period(spec):
    assert spec.period() is None
    assert materialize(spec, 2).period is None


@pytest.mark.parametrize("values, period", [
    ([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (0, 2)),
    ([1.0, 1.0, 0.0, 1.0, 0.0], (0, 2)),
    # Bitwise: -0.0 is not a repeat of 0.0.
    ([0.0, -0.0, 0.0, -0.0], (0, 1)),
    ([1.0, 0.0, 0.0], (-1, 3)),
    ([1.0, 0.0, 0.0], (0, 0)),
    ([1.0, 0.0, 0.0], (0.5, 3)),
])
def test_prefix_rejects_a_wrong_period(values, period):
    with pytest.raises(InvalidSpecError):
        Prefix(values=np.array(values), horizon=len(values), bound=1.0, period=period)


@pytest.mark.parametrize("period", [(1, 2), (2, 2), (7, 1), (0, 10)])
def test_prefix_accepts_a_period_it_holds_or_too_long_to_check(period):
    values = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    p = Prefix(values=values, horizon=5, bound=1.0, period=period)
    assert p.period == period


@st.composite
def periodic_case(draw):
    """Terms that repeat with period q after t: signed zeros, +-bound and
    any value of the range, often only two of them, over N below, at or
    past t + q, a partial last period and more than one chunk."""
    pool = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1, 1)
    if draw(st.booleans()):
        pool = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=2)))
    head = draw(st.lists(pool, max_size=10))
    pattern = draw(st.lists(pool, min_size=1, max_size=6))
    t, q = len(head), len(pattern)
    n = draw(st.integers(1, 3 * (t + q) + 5) | st.sampled_from([t + q, t + q + 1, _CHUNK + 1]))
    values = np.array((head + pattern * (n // q + 1))[:n], dtype=np.float64)
    return values, (t, q)


@given(periodic_case())
@example((np.array([0.0, -0.0, 0.0, -0.0, 0.0]), (1, 2)))
@example((np.array([-0.0, 0.0, -0.0, 0.0]), (0, 2)))
@settings(max_examples=300, deadline=None)
def test_span_and_index_of_a_periodic_prefix_match_all_terms(case):
    values, period = case
    p = Prefix(values=values, horizon=values.size, bound=1.0, period=period)
    assert p.head.size == min(values.size, sum(period))
    assert p.span == (values.min(), values.max())
    # However many values, the index sorts the head once, and no more.
    assert index_sorts(p) == [p.head.size]
    assert_index_matches(p)


def test_a_period_longer_than_the_prefix_makes_nothing_of_its_length():
    # A period of 10**9 terms over 4 terms: the head is the 4 terms, and
    # neither the prefix nor its map holds anything of the period's length.
    # Neither does a combination of patterns of coprime lengths, whose
    # period is their lcm, about 1.0e9, at a horizon of 4096.
    values = np.array([0.0, 1.0, 1.0, 0.5])
    combo = affine_combo([
        (1.0, periodic(np.arange(1000) % 2)),
        (0.5, periodic(np.arange(1001) % 3 == 0)),
        (0.25, periodic(np.arange(1003) % 5 == 1)),
    ])
    tracemalloc.start()
    try:
        p = Prefix(values=values, horizon=4, bound=1.0, period=(0, 10**9))
        assert p.span == (0.0, 1.0) and np.array_equal(entry_map(p)[1:4], [1, 2, 3])
        assert_index_matches(p)
        c = materialize(combo, 4096)
        lorentz_verdict(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.period == (0, 1000 * 1001 * 1003) and c.head.size == 4096
    assert np.array_equal(c.head[entry_map(c)], c.values)
    assert peak <= 2**20


def test_the_period_check_maps_no_head_entries():
    # Each chunk past the head is compared with the terms one period back,
    # so the check maps no term to its head entry and makes nothing longer
    # than a chunk, however long the period.
    for t, q in [(2, 3), (5, _CHUNK + 7)]:
        values = np.concatenate([np.arange(t) + 2.0, np.resize(np.arange(q) % 2, 4 * _CHUNK + q)])
        tracemalloc.start()
        try:
            Prefix(values=values, horizon=values.size, bound=8.0, period=(t, q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _CHUNK


@pytest.mark.parametrize("bad", [math.nan, 1.5, -math.inf])
@pytest.mark.parametrize("at", [0, 2, 4, -1])
def test_periodic_prefix_rejects_a_bad_term_in_its_transient_or_period(bad, at):
    # Terms 0-1 are the transient and 2-4 the period, repeated to the end; a
    # bad term past the head is copied to every period, or the period breaks.
    values = np.concatenate([[0.0, 1.0], np.resize([0.5, -0.5, 0.0], 40)])
    if at < 0:
        values[at] = bad
    else:
        values[at :: 3 if at >= 2 else values.size] = bad
    with pytest.raises(InvalidSpecError):
        Prefix(values=values, horizon=values.size, bound=1.0, period=(2, 3))


@pytest.mark.parametrize("spec, period, n", [
    # The head's period [1, 1, 1] holds transient terms: x(6) on is 0.
    (ones_then_zeros(5), (2, 3), 1000),
    # Every term but the last repeats the head [1]; only x(N) = 0, in the
    # far-end period, shows the claim is wrong.
    (ones_then_zeros(10**5 - 1), (0, 1), 10**5),
])
def test_materialize_rejects_a_wrong_period(spec, period, n, monkeypatch):
    monkeypatch.setattr(type(spec), "period", lambda self: period)
    with pytest.raises(InvalidSpecError, match="do not repeat"):
        materialize(spec, n)


def test_a_wrong_period_between_the_head_and_the_far_end_fails_the_fill(monkeypatch):
    # Head [1, 0] and far end [1, 0] agree with period 2; x(6) = 1 does not.
    # Nothing read from the head sees it, and filling the values checks it.
    spec = table([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    monkeypatch.setattr(type(spec), "period", lambda self: (0, 2))
    p = materialize(spec, 10)
    assert p.head.tolist() == [1.0, 0.0] and p.span == (0.0, 1.0)
    assert p.last_indices(np.array([0, 1])).tolist() == [10, 9]
    with pytest.raises(InvalidSpecError, match="do not repeat"):
        p.values


@pytest.mark.parametrize("at", [_CHUNK + 4, 2 * _CHUNK - 1, 2 * _CHUNK, -1])
def test_period_check_reads_every_chunk_bit_for_bit(at):
    # One 0.0 past the first chunk turned to -0.0 breaks the period 3.
    values = np.resize([1.0, 0.0, 0.0], 2 * _CHUNK + 6)
    assert values[at] == 0.0
    values[at] = -0.0
    with pytest.raises(InvalidSpecError, match="do not repeat"):
        Prefix(values=values, horizon=values.size, bound=1.0, period=(0, 3))


@given(
    periodic_specs(),
    st.sampled_from(["below", "at", "past"]),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_a_prefix_read_from_its_head_matches_its_filled_terms(spec, where, extra, seed):
    # span, index and last_indices of a materialized periodic prefix come
    # from its head and its last period; a prefix of the same terms given
    # in full, with no period, reads every term.  Each draw of starts
    # after the first groups the head by the union of all edges drawn so
    # far, so its runs may span several groups.
    t, q = spec.period()
    n = {"below": max(1, t + q - 1 - extra), "at": t + q, "past": t + q + 1 + extra}[where]
    p = materialize(spec, n)
    values = np.array(materialize(spec, n).values)
    full = Prefix(values=values, horizon=n, bound=spec.bound)
    assert p.span == full.span
    for mine, theirs in zip(p.index, full.index):
        assert np.array_equal(mine, theirs) and np.array_equal(np.signbit(mine), np.signbit(theirs))
    rng = np.random.default_rng(seed)
    k = full.index.uniq.size
    for _ in range(3):
        cuts = rng.choice(np.arange(1, k), rng.integers(0, k), replace=False)
        starts = np.array([0, *np.sort(cuts)])
        want = last_terms(values, full.index.uniq, starts)
        assert np.array_equal(p.last_indices(starts), want)
        assert np.array_equal(full.last_indices(starts), want)
    # Every term is the head entry that it repeats, bit for bit.
    for a in {0, min(t, n - 1), n // 2, n - 1}:
        b = int(rng.integers(a + 1, n + 1))
        assert np.array_equal(p.head[entry_map(p)[a:b]].view(np.int64), values[a:b].view(np.int64))
    if n > t + q:
        assert "values" not in vars(p)


def test_breaks_of_each_kind():
    # Doubling blocks change at the powers of two; shifted by 5, at 3, 11,
    # 27, ...  Ones-then-zeros changes once, past n0.  A combination takes
    # the union, and any child without breaks leaves it with none.
    blocks = doubling_blocks()
    assert blocks.breaks(1) == [] and blocks.breaks(17) == [2, 4, 8, 16]
    assert shift(blocks, 5).breaks(30) == [3, 11, 27]
    assert ones_then_zeros(3).breaks(4) == [4] and ones_then_zeros(3).breaks(3) == []
    assert shift(ones_then_zeros(3), 2).breaks(10) == [2]
    assert shift(ones_then_zeros(3), 3).breaks(10) == []
    combo = affine_combo([(1.0, blocks), (0.5, shift(ones_then_zeros(9), 3))])
    assert combo.breaks(20) == [2, 4, 7, 8, 16]
    assert shift(combo, 1).breaks(20) == [3, 6, 7, 15]
    for spec in (fixture("F4"), fixture("F5"), fixture("F7"), table([1.0]),
                 affine_combo([(1.0, blocks), (1.0, fixture("F2"))])):
        assert spec.breaks(100) is None


@st.composite
def run_specs(draw):
    """Doubling blocks shifted by 0-70, alone or in an affine combination
    with more shifted doubling blocks and ones-then-zeros."""
    blocks = st.builds(shift, st.just(doubling_blocks()), st.integers(0, 70))
    steps = st.builds(shift, st.integers(1, 300).map(ones_then_zeros), st.integers(0, 70))
    first = draw(blocks)
    if draw(st.booleans()):
        return first
    coefs = st.sampled_from([1.0, -1.0, 0.5, -0.25, 3.0]) | st.floats(-2, 2)
    rest = draw(st.lists(blocks | steps, min_size=1, max_size=3))
    return affine_combo([(draw(coefs), child) for child in [first, *rest]])


@st.composite
def run_prefix_case(draw):
    """A spec with breaks and no period, and N below its first break, or at
    2**k - 1, 2**k or 2**k + 1."""
    spec = draw(run_specs())
    first = (spec.breaks(2**13) or [2**13])[0]
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from([2**k - 1, 2**k, 2**k + 1]) | st.integers(1, first - 1))
    return spec, n


@given(run_prefix_case(), st.sampled_from([7, _CHUNK]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_prefix_read_from_its_runs_matches_its_filled_terms(case, chunk, seed):
    # span, index, last_indices, run_weights and set_weight of a run prefix
    # read one entry per run; a prefix of the same terms given in full reads
    # every term.  Later draws of starts group by the union of all edges
    # drawn so far, so their runs may span several groups.
    spec, n = case
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", chunk)
        p = materialize(spec, n)
        values = np.array(materialize(spec, n).values)
    full = Prefix(values=values, horizon=n, bound=spec.bound)
    assert p.period is None and p.runs is not None and p.runs.size == p.head.size
    assert p.span == full.span
    for mine, theirs in zip(p.index, full.index):
        assert np.array_equal(mine, theirs) and np.array_equal(np.signbit(mine), np.signbit(theirs))
    k = full.index.uniq.size
    sched = WindowSchedule.geometric(n, base=int(rng.integers(1, 9)))
    for _ in range(3):
        cuts = rng.choice(np.arange(1, k), rng.integers(0, k), replace=False)
        starts = np.array([0, *np.sort(cuts)])
        want = last_terms(values, full.index.uniq, starts)
        assert np.array_equal(p.last_indices(starts), want)
        assert np.array_equal(full.last_indices(starts), want)
        a = int(rng.integers(0, n))
        b = int(rng.integers(a + 1, n + 1))
        assert np.array_equal(p.head[entry_map(p)[a:b]].view(np.int64), values[a:b].view(np.int64))
        ids = range(starts.size)
        assert run_weights(p, starts, ids, sched) == run_weights(full, starts, ids, sched)
        lo, hi = sorted(rng.uniform(-spec.bound, spec.bound, 2))
        top = IntervalSet(((-spec.bound - 1, full.span[1]),), top_closed=True)
        for region in (IntervalSet(((lo, hi + 1e-9),)), top):
            assert set_weight(p, region, sched) == set_weight(full, region, sched)
    assert "values" not in vars(p)
    assert np.array_equal(p.values.view(np.int64), values.view(np.int64))


@given(run_prefix_case(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_dropped_break_fails_materialize(case, data):
    # Without a break where the value changes, one run holds two values:
    # its first term is the one before the break and its last term the one
    # after, so materialize, which compares them, raises before any fill.
    spec, n = case
    real = type(spec).breaks
    changes = [b for b in real(spec, n) if eval_at(spec, b) != eval_at(spec, b - 1)]
    if not changes:
        return
    drop = data.draw(st.sampled_from(changes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(spec), "breaks", lambda self, last: [b for b in real(self, last) if b != drop])
        with pytest.raises(InvalidSpecError, match="not constant"):
            materialize(spec, n)


def test_breaks_that_skip_a_run_fail_the_fill(monkeypatch):
    # Doubling blocks 0, 1 1, 0 0 0 0 read as one run: its first and last
    # terms agree, so nothing read from the head sees it, and filling the
    # values checks it.
    spec = doubling_blocks()
    monkeypatch.setattr(type(spec), "breaks", lambda self, last: [])
    p = materialize(spec, 7)
    assert p.head.tolist() == [0.0] and p.span == (0.0, 0.0)
    assert p.last_indices(np.array([0])).tolist() == [7]
    with pytest.raises(InvalidSpecError, match="not constant"):
        p.values


@pytest.mark.parametrize("chunk", [7, _CHUNK])
@pytest.mark.parametrize("at", [0, 1, 2, 5, 6, 14, 4095])
def test_the_fill_of_runs_checks_every_term(at, chunk, monkeypatch):
    # Runs of F6 at 4096 start at terms 0, 1, 3, 7, 15, ...; one term
    # flipped by the fill, first, inner or last in its run, fails it.
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    p = materialize(fixture("F6"), 4096)
    f = p._evaluate

    def flipped(first, stop, out=None):
        out = f(first, stop, out)
        if first <= at + 1 < stop:
            out[at + 1 - first] = 1.0 - out[at + 1 - first]
        return out

    p.__dict__["_evaluate"] = flipped
    with pytest.raises(InvalidSpecError, match="not constant"):
        p.values


def test_strides_copies_and_entries_of_a_shifted_run_prefix():
    # Doubling blocks shifted by 5 over 40 terms are the positions 6..45:
    # runs from the terms 0, 2, 10 and 26, each a progression of step 1
    # that ends where the next starts, the last cut short at 40.
    p = materialize(shift(doubling_blocks(), 5), 40)
    assert p.runs.tolist() == [0, 2, 10, 26] and "values" not in vars(p)
    assert p.strides == ([0, 2, 10, 26], [1, 1, 1, 1], [2, 8, 16, 14])
    terms, last = p.copies
    assert terms.tolist() == [2, 8, 16, 14] and last.tolist() == [2, 10, 26, 40]
    values = p.values
    for a, b in ((0, 40), (1, 3), (2, 10), (9, 27), (25, 26), (39, 40), (7, 7)):
        assert np.array_equal(p.head[entry_map(p)[a:b]].view(np.int64), values[a:b].view(np.int64))


# ------------------------------------------------------------- 2-adic classes


def test_classes_of_each_kind():
    # The dyadic harmonic's offset is its shift; no other kind has one, nor
    # a combination with one.
    dyadic = dyadic_harmonic()
    assert dyadic.classes() == 0 and shift(dyadic, 3).classes() == 3
    for spec in (
        fixture("F4"), fixture("F5"), fixture("F6"), table([1.0]), ones_then_zeros(3),
        affine_combo([(1.0, dyadic)]),
    ):
        assert spec.classes() is None
    # Four terms hold two odd positions, so from four terms on the head of
    # classes is shorter than the prefix; three terms may hold three classes.
    assert materialize(shift(dyadic, 1), 3).classes is None
    assert materialize(shift(dyadic, 1), 4).classes == 1


def test_strides_copies_and_entries_of_a_shifted_dyadic_prefix():
    # Terms 1..10 shifted by 3 are the positions 4..13, in the classes
    # 3 1 2 1 4 1 2 1 3 1.
    p = materialize(shift(dyadic_harmonic(), 3), 10)
    assert p.classes == 3 and "values" not in vars(p)
    assert p.head.tolist() == [1.0, 1 / 2, 1 / 3, 1 / 4]
    assert p.strides == ([1, 2, 0, 4], [2, 4, 8, 16], [5, 2, 2, 1])
    terms, last = p.copies
    assert terms.tolist() == [5, 2, 2, 1] and last.tolist() == [10, 7, 9, 5]
    assert entry_map(p).tolist() == [2, 0, 1, 0, 3, 0, 1, 0, 2, 0]
    assert entry_map(p)[3:5].tolist() == [0, 3]
    assert np.array_equal(p.head[entry_map(p)], p.values)


def test_a_class_past_the_prefix_has_no_head_entry():
    # Shifted by 6, terms 1..5 are the positions 7..11: classes 1, 4, 1, 2
    # and 1, so classes 2 and 4 come first at terms 4 and 2, and class 3
    # does not occur.
    p = materialize(shift(dyadic_harmonic(), 6), 5)
    assert p.head.tolist() == [1.0, 1 / 2, 1 / 4]
    assert p.strides == ([0, 3, 1], [2, 4, 16], [3, 1, 1])
    assert p.copies[0].tolist() == [3, 1, 1] and p.index.counts.tolist() == [1, 1, 3]


@st.composite
def class_prefix_case(draw):
    """A dyadic harmonic shifted by up to 2**62 + 5, over N from 4 to
    2**12 + 1, often at 2**k - 1, 2**k or 2**k + 1."""
    s = draw(st.integers(0, 40) | st.sampled_from([2**40 - 1, 2**62 - 9, 2**62 + 5]))
    k = draw(st.integers(3, 12))
    n = draw(st.sampled_from([2**k - 1, 2**k, 2**k + 1]) | st.integers(4, 600))
    return shift(dyadic_harmonic(), s), n


@given(class_prefix_case(), st.sampled_from([7, _CHUNK]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_prefix_read_from_its_classes_matches_its_filled_terms(case, chunk, seed):
    # span, index, last_indices, run_weights and set_weight of a class
    # prefix read one entry per class; a prefix of the same terms given in
    # full reads every term.  Later draws of starts group by the union of
    # all edges drawn so far, so their runs may span several groups.
    spec, n = case
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", chunk)
        p = materialize(spec, n)
        values = np.array(materialize(spec, n).values)
    full = Prefix(values=values, horizon=n, bound=spec.bound)
    assert p.classes == spec.classes() and p.head.size < n
    assert p.span == full.span
    for mine, theirs in zip(p.index, full.index):
        assert np.array_equal(mine, theirs) and np.array_equal(np.signbit(mine), np.signbit(theirs))
    entries = entry_map(p)
    assert np.array_equal(p.head[entries].view(np.int64), values.view(np.int64))
    terms, last = p.copies
    assert np.array_equal(terms, np.bincount(entries, minlength=p.head.size))
    assert np.array_equal(last, [np.flatnonzero(entries == i)[-1] + 1 for i in range(p.head.size)])
    k = full.index.uniq.size
    sched = WindowSchedule.geometric(n, base=int(rng.integers(1, 9)))
    for _ in range(3):
        cuts = rng.choice(np.arange(1, k), rng.integers(0, k), replace=False)
        starts = np.array([0, *np.sort(cuts)])
        want = last_terms(values, full.index.uniq, starts)
        assert np.array_equal(p.last_indices(starts), want)
        assert np.array_equal(full.last_indices(starts), want)
        a = int(rng.integers(0, n))
        b = int(rng.integers(a + 1, n + 1))
        assert np.array_equal(p.head[entries[a:b]].view(np.int64), values[a:b].view(np.int64))
        ids = range(starts.size)
        assert run_weights(p, starts, ids, sched) == run_weights(full, starts, ids, sched)
        lo, hi = sorted(rng.uniform(-spec.bound, spec.bound, 2))
        top = IntervalSet(((-spec.bound - 1, full.span[1]),), top_closed=True)
        for region in (IntervalSet(((lo, hi + 1e-9),)), top):
            assert set_weight(p, region, sched) == set_weight(full, region, sched)
    assert "values" not in vars(p)
    assert np.array_equal(p.values.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("chunk", [7, _CHUNK])
@pytest.mark.parametrize("at", [0, 1, 2, 3, 7, 8, 1023, 2047, 4094, 4095])
def test_the_fill_of_classes_checks_every_term(at, chunk, monkeypatch):
    # Class 1 of F7 at 4096 is the terms 0, 2, 4, ..., and class 13 the one
    # term 4095.  One term the fill moves by an ulp fails the check of its
    # class, first, inner or last in it.
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    p = materialize(fixture("F7"), 4096)
    f = p._evaluate

    def tampered(first, stop, out=None):
        out = f(first, stop, out)
        if first <= at + 1 < stop:
            out[at + 1 - first] = np.nextafter(out[at + 1 - first], 2.0)
        return out

    p.__dict__["_evaluate"] = tampered
    with pytest.raises(InvalidSpecError, match="2-adic"):
        p.values


def test_a_wrong_class_rule_fails_materialize(monkeypatch):
    # Doubling blocks read by the classes of n: class 1 is the odd terms,
    # and its first, x(1), is 0 but its last, x(63), is 1.
    spec = doubling_blocks()
    monkeypatch.setattr(type(spec), "breaks", lambda self, last: None)
    monkeypatch.setattr(type(spec), "classes", lambda self: 0)
    with pytest.raises(InvalidSpecError, match="2-adic"):
        materialize(spec, 64)


def test_dyadic_cross_validate_sorts_no_terms(monkeypatch):
    # F7 and its shifts are read from about log2(N) class entries, so
    # neither the index, the grouping of the head nor any count sorts or
    # argsorts the terms, at 4096 or 2**20 terms.
    sort, argsort = np.sort, np.argsort

    def no_term_sort(real):
        def spy(a, *args, **kwargs):
            if np.size(a) >= 4096:
                raise AssertionError("sorted the terms")
            return real(a, *args, **kwargs)
        return spy

    monkeypatch.setattr(np, "sort", no_term_sort(sort))
    monkeypatch.setattr(np, "argsort", no_term_sort(argsort))
    shifted = parse_spec_file((Path(__file__).parent / "golden" / "shifted_dyadic.spec").read_text())
    for spec in (fixture("F7"), shifted):
        for n in (4096, 2**20):
            cross_validate(spec, n)
    with pytest.raises(AssertionError, match="sorted the terms"):
        cross_validate(fixture("F5"), 4096)
