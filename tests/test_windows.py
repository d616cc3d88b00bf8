import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import count_rows, entry_map

from seqdist import (
    GOLDEN,
    InvalidSpecError,
    Membership,
    Partition,
    Prefix,
    WindowSchedule,
    WindowTooLongError,
    affine_combo,
    cesaro_profile,
    count_extrema,
    density_profile,
    doubling_blocks,
    dyadic_harmonic,
    fixture,
    lorentz_verdict,
    materialize,
    naive_count_extrema,
    ones_then_zeros,
    periodic,
    shift,
)
from seqdist import sequences, windows
from seqdist.cli import main
from seqdist.windows import SPARSE_SHARE


def ones_membership(prefix):
    return Membership.from_mask(prefix.values == 1.0)


def python_count_extrema(bits, n):
    """Reference recount in plain Python, used to anchor both fast paths."""
    counts = [sum(bits[i : i + n]) for i in range(len(bits) - n + 1)]
    return min(counts), max(counts)


def test_count_extrema_all_ones():
    m = ones_membership(materialize(fixture("F2"), 10))
    assert count_extrema(m, 4) == (4, 4)


def test_count_extrema_ones_then_zeros():
    m = ones_membership(materialize(fixture("F1"), 100))
    assert count_extrema(m, 10) == (0, 3)
    assert naive_count_extrema(m, 10) == (0, 3)


def test_count_extrema_periodic_divisible():
    m = ones_membership(materialize(fixture("F4"), 99))
    # Period 3 divides 9, so every window holds exactly 3 ones.
    assert count_extrema(m, 9) == (3, 3)


def test_naive_count_extrema_f4():
    m = ones_membership(materialize(fixture("F4"), 30))
    assert naive_count_extrema(m, 7) == (2, 3)
    assert python_count_extrema(m.bits.tolist(), 7) == (2, 3)


def test_empty_membership():
    m = Membership.from_mask(np.zeros(50, dtype=bool))
    for n in (1, 7, 50):
        assert count_extrema(m, n) == (0, 0)
        assert naive_count_extrema(m, n) == (0, 0)


@pytest.mark.parametrize("count", [count_extrema, naive_count_extrema])
@pytest.mark.parametrize("n, error", [
    (0, InvalidSpecError), (2.5, InvalidSpecError), (math.nan, InvalidSpecError),
    (math.inf, InvalidSpecError), (3.0, None), (11, WindowTooLongError),
])
def test_window_length_is_checked_once(count, n, error):
    # Both read the length through WindowSchedule; the oracle used to pass
    # 2.5, nan and 3.0 on to sliding_window_view, which raised TypeError.
    m = Membership.from_mask(np.arange(10) % 3 == 0)
    if error is None:
        assert count(m, n) == (1, 1)
    else:
        with pytest.raises(error):
            count(m, n)


@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=300),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_oracle_equivalence_random(bits, data):
    n = data.draw(st.integers(1, len(bits)))
    m = Membership(bits=np.array(bits, dtype=np.int64), horizon=len(bits))
    fast = count_extrema(m, n)
    assert fast == naive_count_extrema(m, n)
    assert fast == python_count_extrema(bits, n)
    lo, hi = fast
    assert 0 <= lo <= hi <= n


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=200),
    flips=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_perturbation_bound(bits, flips, data):
    # Flipping F bits moves min and max counts by at most F at every length.
    n = data.draw(st.integers(1, len(bits)))
    flipped = list(bits)
    positions = sorted({f % len(bits) for f in flips})
    for pos in positions:
        flipped[pos] = 1 - flipped[pos]
    m0 = Membership(np.array(bits, dtype=np.int64), len(bits))
    m1 = Membership(np.array(flipped, dtype=np.int64), len(bits))
    lo0, hi0 = count_extrema(m0, n)
    lo1, hi1 = count_extrema(m1, n)
    assert abs(lo0 - lo1) <= len(positions)
    assert abs(hi0 - hi1) <= len(positions)


@given(
    bits=st.lists(st.integers(0, 1), min_size=4, max_size=200),
    k=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_shift_coherence(bits, k, data):
    # Dropping k leading terms moves the extrema by at most k.
    n = data.draw(st.integers(1, len(bits) - k))
    m = Membership(np.array(bits, dtype=np.int64), len(bits))
    ms = Membership(np.array(bits[k:], dtype=np.int64), len(bits) - k)
    lo0, hi0 = count_extrema(m, n)
    lo1, hi1 = count_extrema(ms, n)
    assert abs(lo0 - lo1) <= k
    assert abs(hi0 - hi1) <= k


@st.composite
def gap_kernel_case(draw):
    """A mask shaped for the gap kernel, and a multi-row schedule over its horizon.

    Shares sit just below, at and just above ``SPARSE_SHARE`` (exactly at it
    when the drawn horizon is a multiple of its reciprocal), next to empty and
    single-member masks, masks with members at index 1 and index N, runs,
    and doubling blocks.
    """
    horizon = draw(st.integers(1, 300))
    bits = np.zeros(horizon, dtype=bool)
    kind = draw(st.sampled_from(["share", "empty", "single", "ends", "runs", "blocks"]))
    if kind == "share":
        c = min(max(int(horizon * SPARSE_SHARE) + draw(st.integers(-1, 1)), 0), horizon)
        bits[sorted(draw(st.sets(st.integers(0, horizon - 1), min_size=c, max_size=c)))] = True
    elif kind == "single":
        bits[draw(st.integers(0, horizon - 1))] = True
    elif kind == "ends":
        bits[[0, horizon - 1]] = True
        bits[sorted(draw(st.sets(st.integers(0, horizon - 1), max_size=horizon // 8)))] = True
    elif kind == "runs":
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, horizon - 1))
            bits[start : start + draw(st.integers(1, 20))] = True
    elif kind == "blocks":
        # Index k is a member when floor(log2 k) = phase (mod period).
        period = draw(st.integers(2, 5))
        phase = draw(st.integers(0, period - 1))
        k = np.arange(1, horizon + 1)
        bits = np.floor(np.log2(k)).astype(np.int64) % period == phase
    lengths = draw(st.sets(st.integers(1, horizon), min_size=1, max_size=6))
    return bits, WindowSchedule(tuple(sorted(lengths)))


@given(gap_kernel_case())
@settings(max_examples=300, deadline=None)
def test_density_profile_rows_match_oracle(case):
    # Every row of a multi-row schedule, so the gap kernel's row-to-row seeds
    # are exercised, not only its first row.
    bits, schedule = case
    m = Membership.from_mask(bits)
    rows = density_profile(m, schedule).rows
    assert [r.n for r in rows] == list(schedule.lengths)
    for r in rows:
        assert (r.min_count, r.max_count) == naive_count_extrema(m, r.n)
        assert r.offsets_scanned == m.horizon - r.n + 1


BLOCKS = (1, 2, 7, 64)


def block_edge_lengths(draw, horizon, block):
    """A strictly increasing schedule over ``horizon`` that meets the block edges.

    Lengths sit on and next to multiples of ``block`` and next to the
    horizon, so some row ends exactly on a block boundary, some one past
    it, and the longest rows (up to n = N, a single offset) have fewer
    offsets than one block.
    """
    edges = {1, horizon, horizon - 1, horizon + 1 - block, horizon + 2 - block}
    for k in range(1, horizon // block + 1):
        edges.update((k * block - 1, k * block, k * block + 1))
    pool = sorted(n for n in edges if 1 <= n <= horizon)
    lengths = draw(
        st.sets(st.sampled_from(pool) | st.integers(1, horizon), min_size=1, max_size=6)
    )
    return WindowSchedule(tuple(sorted(lengths)))


@st.composite
def blocked_count_case(draw):
    """A mask, head and walk block sizes and a block-edge schedule for the count walk.

    Besides masks of any share, non-member counts sit just below, at and
    just above ``SPARSE_SHARE`` of the horizon, and the full mask is drawn
    too; like any mask above that share, a near-full one is counted by the
    walk.  The walk's blocks (``_COUNT_BLOCK``) need not be a multiple of
    its stretches (``_BLOCK``) or of its groups of 64 lanes, so a walk
    block may start inside either.
    Horizons past 2**8 give rows whose 8-bit residues straddle a multiple
    of 2**8 inside one block, and masks of long alternating runs give rows
    whose int8 reading reaches -128 or 127, or whose counts spread over
    2**7 or more, so the walk hands them over to 16-bit lanes.
    """
    block = draw(st.sampled_from(BLOCKS))
    count_block = draw(st.sampled_from(BLOCKS + (100, 300, 2**18)))
    horizon = draw(st.integers(1, 300) | st.integers(256, 1200))
    kind = draw(st.sampled_from(["share", "near_full", "full", "runs"]))
    bits = np.ones(horizon, dtype=bool)
    if kind == "share":
        share = draw(st.floats(0, 1))
        seed = draw(st.integers(0, 2**32 - 1))
        bits = np.random.default_rng(seed).random(horizon) < share
    elif kind == "near_full":
        c = min(max(int(horizon * SPARSE_SHARE) + draw(st.integers(-1, 1)), 0), horizon)
        bits[sorted(draw(st.sets(st.integers(0, horizon - 1), min_size=c, max_size=c)))] = False
    elif kind == "runs":
        runs = draw(st.lists(st.integers(1, 400), min_size=1, max_size=8))
        bits = np.resize(np.repeat(np.arange(len(runs)) % 2 == 0, runs), horizon)
    return block, count_block, bits, block_edge_lengths(draw, horizon, count_block)


@given(blocked_count_case())
# A first row whose first block's count falls from 300 to 1: its 8-bit
# residues wrap past 256, and its int8 reading reaches -128.
@example((64, 300, np.resize(np.repeat([True, False], 300), 1200), WindowSchedule((300, 301))))
@settings(max_examples=300, deadline=None)
def test_blocked_walk_count_rows_match_oracle(case):
    # The walk is called directly as well, so every mask exercises it
    # whichever kernel density_profile picks for that mask.
    block, count_block, bits, schedule = case
    m = Membership.from_mask(bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_BLOCK", block)
        mp.setattr(windows, "_COUNT_BLOCK", count_block)
        walked = list(windows._count_extrema(m.bits, schedule.lengths))
        rows = density_profile(m, schedule).rows
    assert [n for n, _, _ in walked] == [r.n for r in rows] == list(schedule.lengths)
    for (n, lo, hi), r in zip(walked, rows):
        oracle = naive_count_extrema(m, n)
        assert (int(lo), int(hi)) == oracle
        assert (r.min_count, r.max_count) == oracle


# Past 2**17, not a multiple of 8, with rows on both sides of 2**16 (the
# widest count a uint16 lane reads directly) and of 2**8, and one long row
# whose windows end far from a block's start.
WIDE_HORIZON = 2**17 + 2**15 + 5
WIDE_LENGTHS = (255, 256, 65535, 65536, 65537, 3 * 2**15 - 3, WIDE_HORIZON)


def wide_masks():
    rng = np.random.default_rng(20261018)
    k = np.arange(WIDE_HORIZON)
    return {
        "random": rng.random(WIDE_HORIZON) < 0.5,
        # A count falls by 1 at every offset for 2**15 + 7 offsets: more
        # than an int16 offset from a block's first count can hold, so a
        # walk block of more than 2**15 offsets is re-read in stretches.
        "ones_then_zeros": k < 2**15 + 7,
        "inner_run": (k >= 70001) & (k < 70001 + 2**15 + 2**14),
        "all_ones": np.ones(WIDE_HORIZON, dtype=bool),
        # The running count passes 2**16 inside a block, between its head
        # and the end of a window of the long row.
        "zeros_then_ones": k >= 1000,
        "strided": (rng.random(2 * WIDE_HORIZON) < 0.5)[::2],
        # A rotation's counts stray from n / 2 by a few members, so the
        # counts of the rows next to 2**16 straddle 2**15, a multiple of
        # 2**8: their 8-bit residues wrap, and are read again as int8
        # offsets.
        "rotation": (k * GOLDEN) % 1 < 0.5,
        # The counts of the rows of 2**16 - 1 ... 2**16 + 1 fall from n
        # to 0, 2**16 integers or more: their 16-bit residues span
        # 2**16 - 1, and their int16 reading leaves its range within a
        # block of 2**17.
        "ones_past_2_16": k < 2**16 + 2**15 + 7,
    }


def int64_rows(bits, lengths):
    """Every row's (n, min, max) from one int64 cumsum of ``bits``."""
    csum = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    rows = []
    for n in lengths:
        sums = csum[n:] - csum[:-n]
        rows.append((n, int(sums.min()), int(sums.max())))
    return rows


@pytest.mark.parametrize("doublings", [None, 0, 1, 2])
@pytest.mark.parametrize("kind", sorted(wide_masks()))
def test_count_kernel_matches_int64_cumsum(kind, doublings, monkeypatch):
    bits = wide_masks()[kind]
    if doublings is not None:
        # Walk blocks of 2**15 + 3, 2**16 + 3 and 2**17 + 3 offsets: past
        # 2**15, so a long row's count can leave the int16 range within
        # one and the block is re-read, and off the groups of 64 lanes and
        # the stretches of 2**15 offsets, so most blocks start inside both.
        monkeypatch.setattr(windows, "_COUNT_BLOCK", (2**15 << doublings) + 3)
    oracle = int64_rows(bits, WIDE_LENGTHS)
    assert list(windows._count_extrema(bits, WIDE_LENGTHS)) == oracle
    m = Membership.from_mask(bits)
    profile = density_profile(m, WindowSchedule(WIDE_LENGTHS))
    assert [(r.n, r.min_count, r.max_count) for r in profile.rows] == oracle


@st.composite
def lane_case(draw):
    """A mask of N terms for the lane build: N up to 300, one off a whole
    number of groups of 64 lanes either way, or 2**16 +- 1 (the lanes hold
    N + 1 counts, so 2**16 - 1 terms fill whole groups)."""
    k = draw(st.integers(1, 40))
    n = draw(
        st.integers(0, 300)
        | st.sampled_from([64 * k - 1, 64 * k, 64 * k + 1])
        | st.sampled_from([2**16 - 1, 2**16 + 1])
    )
    share = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < share


@given(lane_case())
@example(np.ones(2**16 - 1, dtype=bool))
@example(np.ones(2**16 + 1, dtype=bool))
@settings(max_examples=100, deadline=None)
def test_count_lanes_match_int64_cumsum(bits):
    csum = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    lanes, starts = windows._count_lanes(bits)
    assert lanes.dtype == np.uint8 and starts.dtype == np.int64
    assert lanes.size == starts.size * 64 >= csum.size
    assert np.array_equal(lanes[: csum.size], csum % 2**8)
    assert [windows._exact_count(lanes, starts, x) for x in range(csum.size)] == csum.tolist()
    wide = windows._wide_lanes(lanes, starts)
    assert wide.dtype == np.uint16 and np.array_equal(wide[: csum.size], csum % 2**16)


def lane_reads(monkeypatch):
    """Patch the count walk's block reader to record each call's lane
    width in bits, row length, reading, (min, max) or None, and number of
    offsets; return the list of records."""
    reads = []
    read = windows._lane_extrema

    def recording(lanes, buf, exact, n, s, e):
        got = read(lanes, buf, exact, n, s, e)
        reads.append((8 * lanes.itemsize, n, got, e - s))
        return got

    monkeypatch.setattr(windows, "_lane_extrema", recording)
    return reads


def test_count_walk_rereads_only_blocks_that_leave_the_int16_range(monkeypatch):
    reads = lane_reads(monkeypatch)
    # A region of F5 strays from its expected count by a few members only.
    values = materialize(fixture("F5"), 2**21).values
    bits = (values >= 0.1) & (values < 0.5)
    lengths = WindowSchedule.geometric(2**21).lengths
    assert max(lengths) >= 2**16
    assert list(windows._count_extrema(bits, lengths)) == int64_rows(bits, lengths)
    assert (16, None) not in [(w, got) for w, _, got, _ in reads]
    # A block whose 16-bit residues span less than 2**16 - 1 is exact,
    # however far its count moves.
    monkeypatch.setattr(windows, "_COUNT_BLOCK", 2**17)
    reads.clear()
    bits = wide_masks()["ones_then_zeros"]
    assert list(windows._count_extrema(bits, WIDE_LENGTHS)) == int64_rows(bits, WIDE_LENGTHS)
    assert (16, None) not in [(w, got) for w, _, got, _ in reads]
    # A row whose count also passes a multiple of 2**16, and moves by more
    # than 2**15 within a block, reaches an end of the int16 range: the
    # block is read again in 16-bit stretches of at most _BLOCK offsets,
    # none of which fails.
    reads.clear()
    bits = wide_masks()["ones_past_2_16"]
    assert list(windows._count_extrema(bits, WIDE_LENGTHS)) == int64_rows(bits, WIDE_LENGTHS)
    failed = [k for k, (w, _, got, _) in enumerate(reads) if w == 16 and got is None]
    assert failed
    for k in failed:
        _, n, _, size = reads[k]
        stretches = reads[k + 1 : k + 1 + -(-size // windows._BLOCK)]
        assert sum(r[3] for r in stretches) == size
        for w, m, got, offsets in stretches:
            assert (w, m) == (16, n) and got is not None and offsets <= windows._BLOCK


def test_count_walk_hands_a_block_to_16_bit_lanes_only_when_8_bits_cannot_tell_it(monkeypatch):
    reads = lane_reads(monkeypatch)

    def walk(kind):
        reads.clear()
        bits = wide_masks()[kind]
        assert list(windows._count_extrema(bits, WIDE_LENGTHS)) == int64_rows(bits, WIDE_LENGTHS)
        return [w for w, *_ in reads]

    # Some block of a row of 2**8 or more straddles a multiple of 2**8 and
    # is read as int8 offsets from its first count, which stay small.
    assert set(walk("rotation")) == {8}
    assert any(n >= 2**8 and lo >> 8 != hi >> 8 for _, n, (lo, hi), _ in reads)
    # The int8 reading of row 65535 reaches -128 or 127: that block and
    # every later one are read in 16-bit lanes.
    widths = walk("random")
    k = [got for _, _, got, _ in reads].index(None)
    assert reads[k][1] == 65535 and widths == [8] * (k + 1) + [16] * (len(reads) - k - 1)
    # Row 255's counts spread from 255 down to 0, read exactly in 8-bit
    # lanes: every later block is read in 16-bit lanes, with no None.
    widths = walk("ones_then_zeros")
    assert reads[0][1] == 255 and widths == [8] + [16] * (len(reads) - 1)
    assert None not in [got for _, _, got, _ in reads]


def test_count_walk_hands_random_bits_but_no_f5_region_over_to_16_bits(monkeypatch):
    reads = lane_reads(monkeypatch)
    values = materialize(fixture("F5"), 2**21).values
    lengths = WindowSchedule.geometric(2**21).lengths
    for a, b in ((0.1, 0.4), (0.3, 0.8), (0.0, 0.5), (0.6, 1.0)):
        list(windows._count_extrema((values >= a) & (values < b), lengths))
    assert {w for w, *_ in reads} == {8}
    reads.clear()
    bits = np.random.default_rng(20261020).random(2**21) < 0.3
    assert list(windows._count_extrema(bits, lengths)) == int64_rows(bits, lengths)
    assert {w for w, *_ in reads} == {8, 16}


@st.composite
def run_mask_case(draw):
    """A mask of alternating runs of drawn lengths, first bit either way,
    its run starts with some runs split further (so that adjacent runs may
    share a bit, as a prefix of runs allows), and a schedule that may hold
    lengths 1, N - 1 and N.

    One run gives an all-ones or all-zeros mask, and the first and last
    runs touch the ends of the prefix.
    """
    runs = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    first = draw(st.integers(0, 1))
    bits = np.repeat((np.arange(len(runs)) + first) % 2 == 1, runs)
    horizon = bits.size
    splits = draw(st.sets(st.integers(1, horizon - 1), max_size=5)) if horizon > 1 else set()
    starts = np.array(sorted({0, *np.cumsum(runs)[:-1].tolist(), *splits}), dtype=np.int64)
    edges = st.sampled_from([n for n in (1, horizon - 1, horizon) if n >= 1])
    lengths = draw(st.sets(edges | st.integers(1, horizon), min_size=1, max_size=6))
    return bits, starts, WindowSchedule(tuple(sorted(lengths)))


@given(run_mask_case())
@settings(max_examples=300, deadline=None)
def test_run_kernel_rows_match_oracle(case):
    bits, starts, schedule = case
    m = Membership.from_mask(bits)
    rows = list(windows._run_extrema(bits[starts], starts, bits.size, schedule.lengths))
    assert rows == [(n, *naive_count_extrema(m, n)) for n in schedule.lengths]


@st.composite
def run_spec_case(draw):
    """(spec, N, flags, lengths): doubling blocks, ones-then-zeros, their
    shifts or an affine combo of up to three of them, at a horizon up to
    the cap, one drawn flag per run of the spec's breaks, and a schedule
    that may hold lengths 1 and N.  Ones-then-zeros alone, or combined only
    with itself, has a period, and is read from its period's head."""

    def child():
        base = draw(st.sampled_from(["doubling", "ones"]))
        spec = doubling_blocks() if base == "doubling" else ones_then_zeros(draw(st.integers(1, 300)))
        k = draw(st.sampled_from([0, 1, 5, 2**18 - 1, 2**40 + 3]))
        return shift(spec, k) if k else spec

    children = [child() for _ in range(draw(st.integers(1, 3)))]
    spec = children[0] if len(children) == 1 else affine_combo(
        [(draw(st.sampled_from([1.0, -0.5, 2.0])), c) for c in children]
    )
    horizon = draw(st.integers(1, sequences.DEFAULT_MAX_HORIZON) | st.integers(1, 5000))
    runs = len(spec.breaks(horizon)) + 1
    flags = draw(st.lists(st.booleans(), min_size=runs, max_size=runs))
    if draw(st.booleans()):
        lengths = WindowSchedule.geometric(horizon).lengths
    else:
        edges = st.sampled_from([1, horizon])
        lengths = tuple(sorted(draw(st.sets(edges | st.integers(1, horizon), min_size=1, max_size=8))))
    return spec, horizon, flags, lengths


def head_rows(spec, horizon, flags, lengths):
    """(prefix, head flags, ``head_profile`` rows) of the terms of ``spec``
    in its flagged runs."""
    p = materialize(spec, horizon)
    flags = np.array(flags)
    if p.runs is None:
        # One period's head, or every term: each entry is a term.
        edges = [0, *(b - 1 for b in spec.breaks(horizon)), horizon]
        flags = flags[np.searchsorted(edges, np.arange(p.head.size), "right") - 1]
    prof = windows.head_profile(p, flags, WindowSchedule(lengths))
    return p, flags, [(r.n, r.min_count, r.max_count) for r in prof.rows]


@given(run_spec_case(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_run_rows_match_plain_integer_rows_up_to_the_cap(case, per_group):
    # The run-start kernel reads every row of a group in one pass; with
    # sequences._CHUNK patched to hold `per_group` rows, the rows split into
    # groups and read the same.
    spec, horizon, flags, lengths = case
    p, head_flags, got = head_rows(spec, horizon, flags, lengths)
    want = count_rows(spec, head_flags.tolist(), horizon, lengths)
    assert got == want
    if p.runs is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "_CHUNK", per_group * 2 * p.runs.size)
            assert head_rows(spec, horizon, flags, lengths)[2] == want


@pytest.mark.parametrize("spec", [
    fixture("F1"), fixture("F6"), shift(fixture("F6"), 7), ones_then_zeros(3000),
    shift(ones_then_zeros(3000), 1000), fixture("F4"), periodic((0.5, 1.0, 0.0, 1.0, 1.0)),
    shift(periodic((1.0, 0.0, 0.0, 0.0, 1.0)), 3),
    affine_combo([(1.0, ones_then_zeros(700)), (0.5, periodic((1.0, 0.0, 0.0)))]),
    fixture("F7"), shift(fixture("F7"), 5), shift(fixture("F7"), 2**12 - 1),
])
def test_plain_integer_rows_match_the_naive_oracle(spec):
    # The runs of doubling blocks, one period's head, with or without a
    # transient (longer than N/2 for ones-then-zeros(3000) at 4096), or
    # every term of a shorter prefix, and the 2-adic classes.
    for horizon in (1500, 2**12):
        p = materialize(spec, horizon)
        lengths = (1, 16, 100, 700, 1499, horizon)
        size = p.head.size
        for flags in (np.arange(size) % 2 == 0, np.arange(size) % 3 != 1, np.ones(size, bool)):
            m = Membership.from_mask(flags[entry_map(p)])
            assert count_rows(spec, flags.tolist(), horizon, lengths) == [
                (n, *naive_count_extrema(m, n)) for n in lengths
            ]


SHIFTS = [0, 1, 5, 2**18 - 1, 2**40 + 3]


@st.composite
def head_spec_case(draw):
    """(spec, N, (seed, density, start), lengths): a periodic pattern,
    ones-then-zeros, their shifts or an affine combo of up to three of
    them, or a shifted dyadic harmonic, at a horizon up to the cap, often
    just past a transient longer than N/2; the head entries are flagged at
    random at the density, and from entry ``start`` on; the schedule may
    hold lengths 1 and N."""

    def child():
        if draw(st.booleans()):
            values = st.sampled_from([0.0, 0.5, 1.0, -1.0])
            spec = periodic(draw(st.lists(values, min_size=1, max_size=12)))
        else:
            spec = ones_then_zeros(draw(st.integers(1, 2**14)))
        return shift(spec, draw(st.sampled_from(SHIFTS)))

    cap = sequences.DEFAULT_MAX_HORIZON
    if draw(st.integers(0, 3)) == 0:
        spec = shift(dyadic_harmonic(), draw(st.sampled_from(SHIFTS)))
        horizon = draw(st.integers(4, cap) | st.integers(4, 5000))
    else:
        children = [child() for _ in range(draw(st.integers(1, 3)))]
        spec = children[0] if len(children) == 1 else affine_combo(
            [(draw(st.sampled_from([1.0, -0.5, 2.0])), c) for c in children]
        )
        t, q = spec.period()
        long_transient = st.integers(t + q + 1, max(2 * t - 1, t + q + 1))
        horizon = draw(st.integers(1, cap) | st.integers(1, 5000) | long_transient)
    flags = (draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
             draw(st.integers(0, 40) | st.just(2**40)))
    if draw(st.booleans()):
        lengths = WindowSchedule.geometric(horizon).lengths
    else:
        edges = st.sampled_from([1, horizon])
        lengths = tuple(sorted(draw(st.sets(edges | st.integers(1, horizon), min_size=1, max_size=8))))
    return spec, horizon, flags, lengths


@given(head_spec_case())
@settings(max_examples=100, deadline=None)
def test_period_and_class_rows_match_plain_integer_rows_up_to_the_cap(case):
    # A class flagged past 16 would make the oracle count 2**17 offsets or
    # more per row, so the dyadic harmonic's flags stop at class 16.
    spec, horizon, (seed, density, start), lengths = case
    p = materialize(spec, horizon)
    size = p.head.size
    flags = (np.random.default_rng(seed).random(size) < density) | (np.arange(size) >= start)
    if p.classes is not None:
        flags &= np.array(p.strides[1]) <= 2**16
    prof = windows.head_profile(p, flags, WindowSchedule(lengths))
    assert [(r.n, r.min_count, r.max_count) for r in prof.rows] == count_rows(
        spec, flags.tolist(), horizon, lengths
    )


CAP = sequences.DEFAULT_MAX_HORIZON


@pytest.mark.parametrize("name, flags", [
    ("F4", [True, False, False]),
    ("F4", [False, True, True]),
    *(
        ("F7", [j in classes for j in range(1, CAP.bit_length() + 1)])
        for classes in ({1}, {16}, {3, 9, 16}, set(range(1, 17)), set(range(5, 17)))
    ),
])
def test_period_and_class_rows_at_the_cap(name, flags):
    # F4's ones and zeros, and sets of F7's classes up to class 16 (one
    # flag per class j from 1 to bit_length(N)), at the default horizon cap.
    spec = fixture(name)
    lengths = WindowSchedule.geometric(CAP).lengths
    prof = windows.head_profile(materialize(spec, CAP), np.array(flags), WindowSchedule(lengths))
    assert [(r.n, r.min_count, r.max_count) for r in prof.rows] == count_rows(
        spec, flags, CAP, lengths
    )


def test_doubling_blocks_rows_at_the_cap():
    # F6 at the default horizon cap: every row of its ones, and of its
    # zeros, equals the plain-integer rows.
    horizon = CAP
    spec = fixture("F6")
    runs = len(spec.breaks(horizon)) + 1
    lengths = WindowSchedule.geometric(horizon).lengths
    for flags in ([k % 2 == 0 for k in range(runs)], [k % 2 == 1 for k in range(runs)]):
        assert head_rows(spec, horizon, flags, lengths)[2] == count_rows(
            spec, flags, horizon, lengths
        )


class CountingNumpy:
    """Stands in for ``windows.np``: counts the calls made through it and
    keeps the largest size of an array one of them returned."""

    def __init__(self):
        self.calls = 0
        self.largest = 0

    def __getattr__(self, name):
        f = getattr(np, name)
        if not callable(f) or isinstance(f, type):
            return f

        def counted(*args, **kwargs):
            self.calls += 1
            out = f(*args, **kwargs)
            self.largest = max(self.largest, np.size(out))
            return out

        return counted


def test_run_kernel_calls_numpy_per_group_not_per_row(monkeypatch):
    # 20 runs (doubling blocks over 2**20 terms); each group of rows costs
    # the same fixed number of numpy calls, whatever its row count, and no
    # array a call returns exceeds sequences._CHUNK entries.
    horizon = 2**20
    p = materialize(fixture("F6"), horizon)
    bits = p.head == 1.0
    width = 2 * p.runs.size

    def calls(rows, chunk):
        spy = CountingNumpy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "_CHUNK", chunk)
            mp.setattr(windows, "np", spy)
            lengths = tuple(16 * 2**k for k in range(rows))
            got = list(windows._run_extrema(bits, p.runs, horizon, lengths))
        assert len(got) == rows
        assert spy.largest <= chunk
        return spy.calls

    one = calls(1, sequences._CHUNK)
    assert calls(4, sequences._CHUNK) == calls(16, sequences._CHUNK) == one
    per_group = calls(8, 4 * width) - calls(4, 4 * width)
    assert per_group > 0
    assert calls(16, 4 * width) == one + 3 * per_group
    assert calls(16, width) == one + 15 * per_group


def test_count_kernel_needs_blocks_of_at_most_2_15(monkeypatch):
    monkeypatch.setattr(windows, "_BLOCK", 2**15 + 1)
    with pytest.raises(ValueError):
        list(windows._count_extrema(np.ones(8, dtype=bool), (1,)))


@st.composite
def blocked_mean_case(draw):
    """Values holding negatives and signed zeros, a block size and a schedule.

    A prefix that opens with -0.0 terms (as any negative multiple of a
    sequence starting with zeros does) makes the offset-0 window sum -0.0,
    the one window sum that can be; ``-1 * F1`` is drawn as it is.  Tiny
    values make means that underflow, a negative one to -0.0.
    """
    block = draw(st.sampled_from(BLOCKS))
    kind = draw(st.sampled_from(["table", "negated_F1", "tiny"]))
    if kind == "table":
        head = draw(st.lists(st.just(-0.0), max_size=40))
        tail = draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0]), max_size=200))
        values = np.array(head + tail or [-0.0])
    elif kind == "tiny":
        tiny = [-5e-324, -0.0, 0.0, 5e-324, -1e-310]
        values = np.array(draw(st.lists(st.sampled_from(tiny), min_size=1, max_size=100)))
    else:
        horizon = draw(st.integers(1, 300))
        values = materialize(affine_combo([(-1.0, fixture("F1"))]), horizon).values
    return block, values, block_edge_lengths(draw, values.size, block)


def positive_zero(x: float) -> bool:
    """False for -0.0 only."""
    return x != 0 or math.copysign(1, x) > 0


@given(blocked_mean_case())
@settings(max_examples=300, deadline=None)
def test_blocked_walk_mean_rows_match_whole_row(case):
    block, values, schedule = case
    p = Prefix(values=values, horizon=values.size, bound=1.0)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_BLOCK", block)
        rows = cesaro_profile(p, schedule).rows
        verdict = lorentz_verdict(p, schedule)
    for r in rows:
        sums = csum[r.n :] - csum[: -r.n]
        assert r.min_mean == sums.min() / r.n and r.max_mean == sums.max() / r.n
    # No zero, whichever sign numpy's reduction or a quotient's underflow
    # gives it, is reported as -0.0.
    means = [m for r in rows + verdict.profile.rows for m in r[1:]]
    assert all(map(positive_zero, means + [verdict.estimate, *verdict.gap_trend]))
    # Either Cesaro route gives the float walk's bytes.
    assert [repr(r) for r in verdict.profile.rows] == [repr(r) for r in rows]


def mean_extrema(p, n):
    row = cesaro_profile(p, WindowSchedule((n,))).rows[0]
    return row.min_mean, row.max_mean


def test_mean_extrema_alternating():
    p = materialize(fixture("F3"), 100)
    assert mean_extrema(p, 2) == (0.0, 0.0)
    assert mean_extrema(p, 3) == (-1.0 / 3.0, 1.0 / 3.0)


def test_mean_extrema_doubling_blocks():
    p = materialize(fixture("F6"), 64)
    # An all-zero and an all-one window of length 8 both fit in x(1..64).
    assert mean_extrema(p, 8) == (0.0, 1.0)


def python_mean_extrema(values, n):
    means = [sum(values[i : i + n]) / n for i in range(len(values) - n + 1)]
    return min(means), max(means)


@given(
    values=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=120),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mean_extrema_vs_recount(values, data):
    n = data.draw(st.integers(1, len(values)))
    p = Prefix(values=np.array(values), horizon=len(values), bound=1.0)
    lo, hi = mean_extrema(p, n)
    rlo, rhi = python_mean_extrema(values, n)
    assert lo == pytest.approx(rlo, abs=1e-9)
    assert hi == pytest.approx(rhi, abs=1e-9)
    assert lo <= hi + 1e-12


def test_mean_extrema_affine_swaps():
    p = materialize(fixture("F5"), 5000)
    z = materialize(affine_combo([(-2.0, fixture("F5")), (0.5, fixture("F2"))]), 5000)
    for n in (3, 17, 100):
        lo, hi = mean_extrema(p, n)
        zlo, zhi = mean_extrema(z, n)
        assert zlo == pytest.approx(-2.0 * hi + 0.5, abs=1e-9)
        assert zhi == pytest.approx(-2.0 * lo + 0.5, abs=1e-9)


def test_density_profile_rows():
    m = ones_membership(materialize(fixture("F2"), 200))
    prof = density_profile(m, WindowSchedule((1, 2, 4)))
    for row in prof.rows:
        assert (row.min_count, row.max_count) == (row.n, row.n)
        assert row.offsets_scanned == 200 - row.n + 1


def test_density_profile_ones_then_zeros():
    m = ones_membership(materialize(fixture("F1"), 1000))
    prof = density_profile(m, WindowSchedule((10, 100)))
    assert [r.max_count for r in prof.rows] == [3, 3]


def test_density_profile_periodic_multiples():
    m = ones_membership(materialize(fixture("F4"), 3000))
    prof = density_profile(m, WindowSchedule((30, 300)))
    for row in prof.rows:
        assert row.min_count == row.max_count == row.n // 3


def test_cesaro_profile_examples():
    p2 = materialize(fixture("F2"), 250)
    assert all(
        r.min_mean == r.max_mean == 1.0
        for r in cesaro_profile(p2, WindowSchedule((5, 50))).rows
    )
    p3 = materialize(fixture("F3"), 100)
    assert all(
        (r.min_mean, r.max_mean) == (0.0, 0.0)
        for r in cesaro_profile(p3, WindowSchedule((2, 4, 8))).rows
    )


def test_cesaro_profile_dyadic_harmonic_large(f7_prefix_large):
    prof = cesaro_profile(f7_prefix_large, WindowSchedule((2**16,)))
    row = prof.rows[0]
    assert abs(row.min_mean - math.log(2)) < 1e-3
    assert abs(row.max_mean - math.log(2)) < 1e-3


def test_window_counts_additive_for_disjoint_sets():
    # Window counts of disjoint sets add up offset by offset, so the union's
    # largest count is at most the sum of the largest, its smallest at least
    # the sum of the smallest.
    p = materialize(fixture("F7"), 2048)
    a, b = p.values == 1.0, p.values == 0.5
    sched = WindowSchedule((4, 32, 501))
    masks = [Membership.from_mask(m) for m in (a, b, a | b)]
    rows_a, rows_b, rows_u = (density_profile(m, sched).rows for m in masks)
    for ra, rb, ru in zip(rows_a, rows_b, rows_u):
        assert ru.max_count <= ra.max_count + rb.max_count
        assert ru.min_count >= ra.min_count + rb.min_count
    for m, rows in zip(masks, (rows_a, rows_b, rows_u)):
        assert [(r.min_count, r.max_count) for r in rows] == [
            naive_count_extrema(m, n) for n in sched.lengths
        ]


def test_schedule_validation():
    with pytest.raises(InvalidSpecError):
        WindowSchedule(())
    with pytest.raises(InvalidSpecError):
        WindowSchedule((4, 4))
    with pytest.raises(InvalidSpecError):
        WindowSchedule((0, 4))
    WindowSchedule((5, 6)).validate_for(10)
    with pytest.raises(WindowTooLongError):
        WindowSchedule((5, 60)).validate_for(10)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: WindowSchedule((bad, 300)),
        lambda bad: WindowSchedule.geometric(1000, base=bad),
        lambda bad: WindowSchedule.geometric(1000, ratio=bad),
    ],
    ids=["length", "base", "ratio"],
)
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_schedule_rejects_lengths_that_are_not_integers(build, bad):
    # A length of 1.5 was truncated to 1, a base of 2.5 gave (2, 5, 10, 20),
    # and NaN raised a bare ValueError from int().
    with pytest.raises(InvalidSpecError):
        build(bad)


def test_geometric_schedule_shape():
    s = WindowSchedule.geometric(10_000)
    assert s.lengths == (16, 32, 64, 128, 256, 512, 1024, 2048)
    assert WindowSchedule.geometric(40).lengths == (10,)
    assert WindowSchedule.geometric(1).lengths == (1,)
    for horizon in (1, 7, 63, 64, 100, 12345):
        lengths = WindowSchedule.geometric(horizon).lengths
        assert lengths[-1] <= max(horizon // 4, 1)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_membership_validation():
    with pytest.raises(InvalidSpecError):
        Membership(bits=np.array([0, 2]), horizon=2)
    with pytest.raises(InvalidSpecError):
        Membership(bits=np.zeros(4, dtype=bool), horizon=5)
    m = Membership.from_mask([1, 0, 0, 0, 1])
    assert m.horizon == 5 and m.count() == 2


@pytest.mark.parametrize("mask", [[0, 2, -1], [0.5, 1.0], np.array([1, 3], dtype=np.int8)])
def test_from_mask_rejects_bits_other_than_0_and_1(mask):
    # Cast straight to bool, these became True where the constructor raises.
    with pytest.raises(InvalidSpecError):
        Membership.from_mask(mask)


def test_membership_is_narrow():
    mask = np.array([True, False, True, True])
    m = Membership(bits=mask, horizon=4)
    assert m.bits.dtype == bool and np.shares_memory(m.bits, mask)
    assert not m.bits.flags.writeable
    ints = Membership(bits=np.array([0, 1, 1], dtype=np.int64), horizon=3)
    assert ints.bits.dtype == bool and ints.bits.tolist() == [False, True, True]
    assert Membership.from_mask([0, 1, 0]).bits.dtype == bool
    with pytest.raises(InvalidSpecError):
        Membership(bits=np.array([0, 2], dtype=np.int64), horizon=2)


@pytest.mark.parametrize(
    "build, array",
    [
        (lambda a: Prefix(values=a, horizon=a.size, bound=1.0).values, np.zeros(8)),
        (lambda a: Partition(a).points, np.linspace(0.0, 1.0, 5)),
        (lambda a: Membership(bits=a, horizon=a.size).bits, np.zeros(8, dtype=bool)),
    ],
)
def test_constructors_leave_caller_array_writable(build, array):
    stored = build(array)
    assert not stored.flags.writeable
    array[0] = array[0]  # raises if the constructor froze the caller's array


@pytest.mark.parametrize("share", [1 / 64, 1 / 32, 1 / 16, 3 / 32, 1 / 8])
def test_gap_rows_match_the_walk_and_the_oracle_on_f5_regions(share):
    # Each row's searches start from seeds that the earlier rows chose,
    # and must end on the same rows as the walk's.
    values = materialize(fixture("F5"), 2**18).values
    for n, lengths in ((2**13, WindowSchedule.geometric(2**13, base=2).lengths),
                       (2**18, WindowSchedule.geometric(2**18).lengths)):
        bits = values[:n] < share
        gaps = list(windows._gap_extrema(np.flatnonzero(bits), n, lengths))
        assert gaps == list(windows._count_extrema(bits, lengths))
        if n == 2**13:
            m = Membership.from_mask(bits)
            assert gaps == [(k, *naive_count_extrema(m, k)) for k in lengths]


@given(
    st.integers(1, 3000),
    st.floats(0, SPARSE_SHARE),
    st.integers(0, 2**32 - 1),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_gap_rows_match_the_walk_and_the_oracle_on_random_masks(horizon, share, seed, data):
    bits = np.random.default_rng(seed).random(horizon) < share
    lengths = tuple(sorted(data.draw(st.sets(st.integers(1, horizon), min_size=1, max_size=8))))
    gaps = list(windows._gap_extrema(np.flatnonzero(bits), horizon, lengths))
    assert gaps == list(windows._count_extrema(bits, lengths))
    m = Membership.from_mask(bits)
    assert gaps == [(k, *naive_count_extrema(m, k)) for k in lengths]


def counting_probes(monkeypatch):
    """Patch the gap kernel's search to count its predicate calls; return
    the one-item list that holds the count."""
    calls = [0]
    first_true = windows._first_true

    def counting(pred, lo, hi, seed):
        def probe(k):
            calls[0] += 1
            return pred(k)

        return first_true(probe, lo, hi, seed)

    monkeypatch.setattr(windows, "_first_true", counting)
    return calls


def test_f5_analyze_makes_few_gap_probes(monkeypatch, capsys):
    # Seeds at the previous row's extremes scaled by the ratio of the
    # lengths alone made 5,024 predicate calls here; seeds at the expected
    # count moved by the previous row's excess or shortfall alone 3,485,
    # and the rule that has missed less so far 3,491.
    calls = counting_probes(monkeypatch)
    assert main(["analyze", "--fixture", "F5", "--horizon", "1000000", "--format", "jsonl"]) == 0
    capsys.readouterr()
    assert 0 < calls[0] <= 3700


@pytest.mark.parametrize("period, phase", [(8, 7), (6, 3)])
def test_gap_rows_of_doubling_blocks_take_few_probes(period, phase, monkeypatch):
    # Members where floor(log2 k) = phase (mod period): a row's excess
    # grows in proportion to n.  Seeds moved by the previous excess alone
    # took 211 calls on each, scaled seeds alone 43, and the kernel's
    # choice of the two takes 48.
    n = 2**18 + 2**15
    k = np.arange(1, n + 1)
    bits = np.floor(np.log2(k)).astype(np.int64) % period == phase
    assert bits.sum() <= SPARSE_SHARE * n
    lengths = WindowSchedule.geometric(n).lengths
    calls = counting_probes(monkeypatch)
    gaps = list(windows._gap_extrema(np.flatnonzero(bits), n, lengths))
    assert 0 < calls[0] <= 60
    assert gaps == list(windows._count_extrema(bits, lengths))


GEOMETRIC_4096 = (16, 32, 64, 128, 256, 1024)
HALF = range(0, 64, 2)


@pytest.mark.parametrize(
    "t, ones, horizon, lengths, kernel, counted",
    [
        # Every row has at least t + q = 69 offsets: rows of the distinct
        # non-zero k = n - a * q, each over 2 (t + q) - 1 = 137 terms.
        pytest.param(5, [3, 40], 4096, GEOMETRIC_4096, "_gap_extrema", (137, (16, 32, 64)), id="sparse"),
        pytest.param(5, HALF, 4096, GEOMETRIC_4096, "_count_extrema", (137, (16, 32, 64)), id="dense"),
        # The row of 250 has 51 offsets: every row over all N terms.
        pytest.param(5, HALF, 300, (10, 250), "_count_extrema", (300, (10, 250)), id="few-offsets"),
        # q divides n - t: the row of n is the row of t plus whole periods,
        # and with no transient a multiple of p with no kernel row.
        pytest.param(5, HALF, 4096, (69, 133, 197), "_count_extrema", (137, (5,)), id="after-transient"),
        pytest.param(0, [3, 40], 4096, (64, 128, 200), "_gap_extrema", (127, (8,)), id="whole-periods"),
        pytest.param(0, [3, 40], 4096, (64, 128), None, None, id="no-kernel-row"),
    ],
)
def test_period_rows_fold_onto_one_general_kernel_call(
    t, ones, horizon, lengths, kernel, counted, monkeypatch
):
    # A mask that repeats with period q = 64 after t terms: the kernel that
    # density_profile would choose counts the folded rows in one call.
    q = 64
    period = np.zeros(q, dtype=bool)
    period[list(ones)] = True
    transient = np.array([1, 0, 1, 1, 0][:t], dtype=bool)
    bits = np.concatenate([transient, np.resize(period, horizon - t)])
    p = Prefix(values=bits.astype(float), horizon=horizon, bound=1.0, period=(t, q))
    calls = []
    for name in ("_gap_extrema", "_count_extrema"):

        def spy(*args, name=name, kernel=getattr(windows, name)):
            terms = args[1] if name == "_gap_extrema" else args[0].size
            calls.append((name, terms, tuple(args[-1])))
            return kernel(*args)

        monkeypatch.setattr(windows, name, spy)
    prof = windows.head_profile(p, bits[: t + q], WindowSchedule(lengths))
    assert calls == ([(kernel, *counted)] if kernel else [])
    m = Membership.from_mask(bits)
    assert [(r.n, r.min_count, r.max_count) for r in prof.rows] == [
        (n, *naive_count_extrema(m, n)) for n in lengths
    ]
