"""Exact sliding-window count and mean extrema over all admissible offsets.

Everything downstream reduces to one question: over every placement of a
length-n window fully inside an observed prefix, how small and how large can
the window count (or the window mean) get?  This module answers it exactly.

Conventions that the whole package relies on:

* Offsets i range over ``[1, N - n + 1]`` only.  Windows never wrap and never
  overhang the prefix; partial windows would bias densities.
* Counts are exact integers.  Densities are formed only at reporting time as
  count/n, so no floating accumulation enters a count.
* All extrema are prefix-relative: a longer prefix can only widen the
  observed range, so a reported max is a lower bound for the true supremum
  over all offsets and a reported min an upper bound for the infimum.

Counts come from three exact kernels, and a periodic mask is folded onto
the first two.  ``density_profile`` chooses between the first two from the
mask itself; ``head_profile`` counts a mask over a prefix's head
(``Prefix.head``), which every term repeats, by the third or by the fold
when the head is shorter than the prefix, by its layout (runs or one
period), and by ``density_profile`` otherwise.  A mask over the 2-adic
classes of a prefix read from them (``Prefix.classes``) repeats with a
period of 2**b, b its largest class (``_class_mask``): a period shorter
than the prefix is folded, and any other mask is made over all N terms
for ``density_profile``.
``member_profile`` counts the head entries at given positions
(``Prefix.members``): a sparse set of a prefix whose head is every term
goes to the member gaps as it is, with no mask, and any other is made a
mask for ``head_profile``.  ``run_profiles`` counts every run of the
sorted distinct values so, once per prefix and length (``Prefix.run_rows``).
``cesaro_profile`` reads the window means of a prefix of at most two
values with exact float sums from one run's counts, and of any other from
the float walk.  The kernels:

* **Prefix sums** (every window mean, and masks whose members exceed
  ``SPARSE_SHARE`` of the terms): one prefix-sum array per input, each
  window sum one subtraction, so O(N) per window length and O(N log N)
  for a geometric schedule.  The offsets are walked in blocks into one
  reused block-sized buffer, so no length makes an N-length temporary.
  Window means come from a float64 cumsum, walked in blocks of
  ``_BLOCK`` with every window length per block, so a block of the
  prefix sums is read from cache by all the lengths.  A mask is counted
  in 8-bit lanes, and in 16-bit lanes only where 8 bits cannot tell its
  counts.  Lane x holds the count of the first x terms mod 2**8, built
  eight terms per uint64 word and eight words per group of 64 lanes: only
  the N/64 group totals are cumsummed, into exact int64 group starts, and
  the exact count of the first x terms is x's group start plus the
  group's members before x, its lane minus that start mod 2**8.  The
  16-bit lanes, each group's start mod 2**16 plus those same counts, are
  built from them at the hand-over, so no term is counted twice and the
  walk makes no int32 or int64 array of N entries.  It takes one row at a
  time, in blocks of ``_COUNT_BLOCK``: one subtraction, one min and one
  max per row and block.  A window count lies in [0, n] and moves by at
  most 1 per offset, so a block's counts are one range of integers: rows
  with n < 2**8 read them exactly, and a longer row's block whose residues
  span less than 2**8 - 1 is each count's residue plus the multiple of
  2**8 below the block's first count.  Any other block is read again as
  int8 offsets from that first count.  A block of more than 2**7 offsets
  whose int8 reading reaches an end of its range, and every block once a
  row's counts spread over 2**7 or more, is handed over to the 16-bit
  lanes, with that row's later blocks and every longer row.  There the
  same reading holds mod 2**16, and a block whose int16 offsets reach an
  end of their range is read again, by the same reader, in stretches of
  ``_BLOCK`` (at most 2**15 offsets, which read exactly).
* **Member gaps** (masks with at most ``SPARSE_SHARE`` of the terms as
  members): only the c sorted member positions are kept.  The largest count
  is the largest d such that some d consecutive members fit in one window;
  the smallest count is the smallest m such that the stretch strictly
  between some member (or the start) and the member m + 1 places on (or
  the end) has room for a whole window.  Both tests are monotone in d (m)
  and each costs one O(c) pass, so a row is found by galloping from a seed
  and bisecting: O(c log n) per row after one O(N) scan of the mask (none
  when ``member_profile`` is given the positions), and a seed taken
  from the previous row usually settles it in a few passes.
* **Run starts** (a prefix of R runs of equal terms, ``Prefix.runs``):
  the mask holds one bit per run.  Some extreme window starts at a run
  start or at the last offset, so each row reads the count at the R run
  starts clamped to N - n, and n terms past them, from the run starts and
  the members before each.  The rows are read in groups, each in one
  broadcast pass of a fixed number of numpy calls: O(R log R) per row,
  no temporary of more than ``sequences._CHUNK`` entries (beyond one row's
  2 R), and no term read.
* **One period** (a prefix that repeats with period q after t terms, or a
  set of 2-adic classes, t = 0 and q its period): no kernel of its own.
  A row of length n = k + a * q, k < t + q, is the row of length k plus
  a times the members of one period, counted by the first two kernels
  over at most 2 (t + q) - 1 terms of the repeated mask
  (``_period_extrema``), however long the prefix; the member gaps take
  those terms' members with no mask written.

``naive_count_extrema`` recounts every window from scratch in O(N * n) and
exists purely as the oracle the kernels are tested against; do not "fix"
it to share work with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidSpecError, WindowTooLongError, whole
from . import sequences
from .sequences import Prefix, position_dtype


@dataclass(frozen=True)
class Membership:
    """0/1 indicator over indices 1..N; ``bits[k]`` flags index k + 1.

    ``bits`` is kept as a read-only bool array.  A bool input is not copied:
    the stored array is a read-only view of the caller's memory, so the
    caller's own array stays writable.  Any other input must hold only 0s
    and 1s and is cast to bool.
    """

    bits: np.ndarray
    horizon: int

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size != self.horizon:
            raise InvalidSpecError("membership length must equal its horizon")
        if bits.dtype != bool:
            if bits.size and not np.all((bits == 0) | (bits == 1)):
                raise InvalidSpecError("membership bits must be 0 or 1")
            bits = bits.astype(bool)
        bits = bits.view()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_mask(cls, mask) -> "Membership":
        m = np.asarray(mask)
        return cls(bits=m, horizon=m.size)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class WindowSchedule:
    """Strictly increasing window lengths, all ultimately bounded by N."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        ls = tuple(whole(n, "window length") for n in self.lengths)
        if not ls:
            raise InvalidSpecError("schedule must contain at least one length")
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise InvalidSpecError("schedule lengths must be strictly increasing")
        object.__setattr__(self, "lengths", ls)

    def validate_for(self, horizon: int) -> None:
        if self.lengths[-1] > horizon:
            raise WindowTooLongError(
                f"schedule length {self.lengths[-1]} exceeds horizon {horizon}"
            )

    @classmethod
    def geometric(cls, horizon: int, base: int = 16, ratio: int = 2) -> "WindowSchedule":
        """Default schedule: base, base*ratio, ... capped at horizon // 4.

        The cap keeps at least four non-overlapping placements of the largest
        window; the geometric spacing keeps the row count at O(log N) while
        still separating scales.  Tiny horizons fall back to the single
        length max(1, horizon // 4).
        """
        horizon, base = whole(horizon, "horizon"), whole(base, "base")
        ratio = whole(ratio, "ratio", low=2)
        cap = max(horizon // 4, 1)
        lengths = []
        n = base
        while n <= cap:
            lengths.append(n)
            n *= ratio
        if not lengths:
            lengths = [cap]
        return cls(tuple(lengths))


# A mask with at most this share of its terms as members is counted from the
# gaps between them; any other mask from its prefix counts.
# Measured against the 8-bit count walk at N = 2**21 over 16 rows (min of 7,
# three runs, 2 cores, shared host), gaps against walk: the F5 regions
# [0, share) took 0.4-0.5 against 2.4-2.5 ms at 1/32, 1.0-1.1 against
# 2.5-2.6 ms at 1/16 and 1.6-1.8 against 2.4-2.5 ms at 3/32, tied at 1/8
# (2.2-2.4 against 2.6-2.7 ms) and lost at 3/16 (3.3 against 2.5 ms) and
# 1/4 (4.8-5.0 against 2.6-2.7 ms).  Random bits lost from 1/16 (3.1
# against 2.6 ms) and at 1/8 (8.0-8.4 against 2.7 ms), since each probe is
# an O(c) pass and more probes are needed the further a row's seed misses.
# The share stays at 1/8, where the structured masks tie.
SPARSE_SHARE = 0.125

# The float walk reads the offsets in blocks of this many window sums, every
# schedule row per block; the count walk reads a block that 16-bit lanes
# cannot tell in stretches of this many.
# Float64 window means, measured at N = 2**21 over 16 rows (min of 7, one
# core with 2 MiB of L2) for blocks of 2**12 ... 2**17: 121, 73, 61, 59, 58
# and 73 ms, against 153 ms for one N-length temporary per row.  Smaller
# blocks pay numpy's per-call overhead on every block and row; larger ones
# no longer keep a block of prefix sums in cache across the rows.  The count
# walk needs stretches of at most 2**15 offsets: within one, a window count
# stays within 2**15 - 1 of the stretch's first.
_BLOCK = 1 << 15

# The count walk reads each row in blocks of this many offsets, one
# subtraction into a reused uint8 buffer (256 KiB), or uint16 buffer
# (512 KiB) from the hand-over on, one min and one max per row and block.
# Measured at N = 2**21 over 16 rows (min of 9, two runs, 2 cores, shared
# host), F5 region [0.1, 0.5), F6's ones (handed over to 16 bits within the
# row of 128) and random bits of share 0.3 (within the row of 2**11), for
# blocks of 2**15 ... 2**20: 4.7-5.9, 3.2-4.6, 2.4-3.7, 2.0-3.9, 1.9-3.8
# and 2.0-3.7 ms.  Smaller blocks pay numpy's per-call overhead on
# more blocks; blocks of 2**18 and 2**19 tie, and the smaller keeps the
# 16-bit buffer at half the 2 MiB of L2.  A block of 2**18 is about 400
# calls per mask.
_COUNT_BLOCK = 1 << 18

# Multiplying a uint64 word by this adds each of its bytes into every byte
# above it: byte k then holds the sum of bytes 0 ... k, so long as no sum
# passes 255.
_ONES = 0x0101010101010101


class DensityRow(NamedTuple):
    """Count extrema of the length-n windows.

    ``offsets_scanned`` is the number of admissible offsets N - n + 1 that
    the extrema range over, whichever kernel found them; it is not a count
    of the work done.
    """

    n: int
    min_count: int
    max_count: int
    offsets_scanned: int


@dataclass(frozen=True)
class DensityProfile:
    """Per-window-length count extrema; densities derive as count/n."""

    rows: tuple[DensityRow, ...]


class CesaroRow(NamedTuple):
    n: int
    min_mean: float
    max_mean: float


@dataclass(frozen=True)
class CesaroProfile:
    """Per-window-length extrema of window means."""

    rows: tuple[CesaroRow, ...]


def _window_extrema(values: np.ndarray, lengths):
    """Yield (n, min, max) of the length-n window sums of a float array.

    ``lengths`` must be strictly increasing.  The offsets are walked in blocks
    of ``_BLOCK``: within a block every row subtracts its slice of the one
    float64 prefix-sum array into one reused buffer and folds the buffer's
    min and max into its running extrema, so the block's prefix sums stay in
    cache across all rows and no row allocates an N-length temporary.  A row drops
    out once its N - n + 1 offsets are used up, and every longer row with it.
    The rows are yielded once the walk ends.

    Each window sum is the same single subtraction the whole-row expression
    ``csum[n:] - csum[:-n]`` makes, so every extremum equals its reduction
    but for the sign of a zero, which ``cesaro_profile`` settles.
    """
    csum = np.zeros(values.size + 1)
    np.cumsum(values, out=csum[1:])
    buf = np.empty(min(_BLOCK, csum.size - lengths[0]))
    lows, highs = {}, {}
    for s in range(0, csum.size - lengths[0], _BLOCK):
        for n in lengths:
            e = min(s + _BLOCK, csum.size - n)
            if e <= s:
                break
            sums = np.subtract(csum[s + n : e + n], csum[s:e], out=buf[: e - s])
            lo, hi = sums.min(), sums.max()
            lows[n] = min(lows.get(n, lo), lo)
            highs[n] = max(highs.get(n, hi), hi)
    for n in lengths:
        yield n, lows[n], highs[n]


def _count_lanes(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lanes, starts): the count of the first x terms of a bool mask mod
    2**8 as ``lanes[x]`` (uint8, x = 0 ... N, and on to whole groups of
    64 lanes as if the mask went on with non-members), and the exact count
    before each group, ``starts`` (int64); lane x lies in group x // 64.

    The mask is copied in one term late, so that lane x holds the term
    before it.  Multiplying a little-endian uint64 word by
    0x0101010101010101 leaves in its byte k the count of its bytes 0 ... k
    (at most 8, so no byte carries into the next).  The eight word totals
    (byte 7) of each group are packed into one word and counted within the
    group the same way; that word shifted up one byte holds, for each word,
    the members of the group's earlier words (at most 56), added to its
    eight bytes with no carry.  Only the N/64 group totals are cumsummed,
    into exact int64 starts, and each start mod 2**8 is added back along
    its group's row of 64 lanes, wrapping on the array.
    """
    size = bits.size + 1
    groups = -(-size // 64)
    lanes = np.empty(64 * groups, dtype=np.uint8)
    lanes[0] = 0
    lanes[1:size] = bits
    lanes[size:] = 0
    words = lanes.view("<u8")
    np.multiply(words, _ONES, out=words)
    totals = lanes.reshape(groups, 8, 8)[:, :, 7].copy().view("<u8").ravel()
    np.multiply(totals, _ONES, out=totals)
    per_word = totals.view(np.uint8).reshape(groups, 8)
    starts = np.zeros(groups, dtype=np.int64)
    np.cumsum(per_word[:-1, 7], dtype=np.int64, out=starts[1:])
    np.left_shift(totals, 8, out=totals)
    earlier = per_word.astype("<u8")
    np.multiply(earlier, _ONES, out=earlier)
    np.add(words, earlier.ravel(), out=words)
    rows = lanes.reshape(groups, 64)
    np.add(rows, starts.astype(np.uint8)[:, None], out=rows)
    return lanes, starts


def _exact_count(lanes: np.ndarray, starts: np.ndarray, x: int) -> int:
    """The exact count of the first x terms, from ``_count_lanes``: the
    start of x's group plus (lanes[x] - start) mod 2**8, the group's
    members before x (at most 63)."""
    start = int(starts[x >> 6])
    return start + (int(lanes[x]) - start) % 2**8


def _wide_lanes(lanes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The counts of ``_count_lanes`` mod 2**16, as uint16: each group's
    start mod 2**16 plus its lanes' counts within the group, read from
    the 8-bit lanes with no term recounted."""
    wide = np.empty(lanes.size, dtype=np.uint16)
    rows = wide.reshape(starts.size, 64)
    np.subtract(lanes.reshape(rows.shape), starts.astype(np.uint8)[:, None], out=rows, dtype=np.uint8)
    np.add(rows, starts.astype(np.uint16)[:, None], out=rows)
    return wide


def _count_extrema(bits: np.ndarray, lengths):
    """Yield (n, min, max) of the length-n window counts of a bool mask.

    Every row is read from the mask's 8-bit lanes (``_count_lanes``), one
    row at a time, in blocks of ``_COUNT_BLOCK`` offsets, by
    ``_lane_extrema``, whose exact counts come from the lanes and their
    groups' starts (``_exact_count``).  A block whose 8-bit reading cannot
    tell its counts is handed over to 16-bit lanes, built from the same
    lanes and starts only then (``_wide_lanes``), and so are that row's
    later blocks and every longer row.  So is every block once a row's
    counts spread over 2**7 or more, since such a row's blocks mostly wrap
    mod 2**8 and cost a second 8-bit pass before the hand-over.  A block
    that 16-bit lanes cannot tell either is read again in them in stretches
    of ``_BLOCK`` offsets, at most 2**15, each of which reads exactly.
    """
    if not 1 <= _BLOCK <= 2**15:
        raise ValueError(f"_BLOCK must lie in [1, 2**15], got {_BLOCK}")
    lanes, starts = _count_lanes(bits)
    exact = partial(_exact_count, lanes, starts)
    size = bits.size + 1
    block = min(_COUNT_BLOCK, size - lengths[0])
    walk = lanes[:size], np.empty(block, dtype=np.uint8)

    def hand_over():
        return _wide_lanes(lanes, starts)[:size], np.empty(block, dtype=np.uint16)

    for n in lengths:
        lo, hi = n, 0
        for s in range(0, size - n, _COUNT_BLOCK):
            e = min(s + _COUNT_BLOCK, size - n)
            read = _lane_extrema(*walk, exact, n, s, e)
            if read is None and walk[0].itemsize == 1:
                walk = hand_over()
                read = _lane_extrema(*walk, exact, n, s, e)
            if read is None:
                reads = [
                    _lane_extrema(*walk, exact, n, t, min(t + _BLOCK, e))
                    for t in range(s, e, _BLOCK)
                ]
                read = min(a for a, _ in reads), max(b for _, b in reads)
            lo, hi = min(lo, read[0]), max(hi, read[1])
            if walk[0].itemsize == 1 and hi - lo >= 2**7:
                walk = hand_over()
        yield n, lo, hi


def _lane_extrema(lanes: np.ndarray, buf: np.ndarray, exact, n: int, s: int, e: int):
    """(min, max) of the length-n window counts at offsets s ... e - 1,
    read through ``buf`` from ``lanes``, the count of the first x terms mod
    2**w as w-bit unsigned integers (w = 8, ``_count_lanes``, or 16,
    ``_wide_lanes``); or None when w-bit lanes cannot tell them.
    ``exact(x)`` is the exact count of the first x terms, which the 8-bit
    lanes give with their groups' starts (``_exact_count``) at either width,
    and is read twice per block of a row of 2**w or more.

    The block is one subtraction, one ``min`` and one ``max``, which give
    the window counts mod 2**w.  A count lies in [0, n], so a row with
    n < 2**w reads them exactly.  A window count moves by at most 1 per
    offset, so the block's counts are every integer from their least to
    their greatest.  When those pass a multiple of 2**w, or number 2**w
    or more, the residues hold both 0 and 2**w - 1.  So residues that span
    less than 2**w - 1 come from counts within one stretch
    [j * 2**w, (j + 1) * 2**w), the one that holds the block's first count
    ``first``, and each count is first - first % 2**w plus its residue.
    Any other block is read again as w-bit signed offsets from ``first``:
    an offset that drifts outside their range first passes -2**(w - 1) or
    2**(w - 1) - 1, so a reading that reaches neither is exact.  One that
    reaches either is None, unless the block has at most 2**(w - 1)
    offsets: a count moves by at most 1 per offset, so each then lies
    within 2**(w - 1) - 1 of ``first`` and reads exactly.
    """
    wrap = 1 << 8 * lanes.itemsize
    sums = np.subtract(lanes[s + n : e + n], lanes[s:e], out=buf[: e - s])
    a, b = int(sums.min()), int(sums.max())
    if n < wrap:
        return a, b
    first = exact(s + n) - exact(s)
    if b - a < wrap - 1:
        base = first - first % wrap
        return base + a, base + b
    step = np.subtract(sums, first % wrap, out=sums).view(f"i{lanes.itemsize}")
    a, b = int(step.min()), int(step.max())
    if e - s > wrap // 2 and (a == -wrap // 2 or b == wrap // 2 - 1):
        return None
    return first + a, first + b


def _run_extrema(bits: np.ndarray, starts: np.ndarray, horizon: int, lengths):
    """Yield (n, min, max) window counts of a ``horizon``-term mask made of
    runs, from its run starts and ``bits``, one bit per run.

    Run k is the terms from index ``starts[k]`` (0-based, ``starts[0] ==
    0``) up to the next start or the end; adjacent runs may share a bit.
    Some extreme window starts at a run start or at the last offset N - n:
    a window whose first term is not a run start keeps its count or
    improves it when moved one term toward the start of that term's run
    (a member's run, for a max) or toward its end (a non-member's run), and
    can keep moving until it starts a run or reaches an end of [0, N - n].
    So a row's candidate offsets are the R run starts, each clamped to
    N - n: a start past N - n stands for N - n, and when none is past it
    the windows at N - n and at the last run's start both lie in that run
    and count alike.  The members among the first x terms, C(x), grow
    linearly inside a run, and are read at those offsets, and n terms past
    them, from the run starts and the members before each.  The rows are
    read in groups, each in one pass over a (rows, 2, R) int64 array of
    those points: one ``searchsorted``, one subtraction, and ``min`` and
    ``max`` along the last axis, so the numpy calls do not grow with the
    rows.  A group takes as many rows as keep the array within
    ``sequences._CHUNK`` entries, and at least one.  O(R log R) per row for
    R runs, however long the prefix.
    """
    ones = bits.astype(np.int64)
    inside = np.diff(starts, append=horizon) * ones
    before = np.cumsum(inside) - inside
    step = max(sequences._CHUNK // (2 * starts.size), 1)
    for g in range(0, len(lengths), step):
        ns = lengths[g : g + step]
        n = np.array(ns, dtype=np.int64)[:, None]
        x = np.empty((len(ns), 2, starts.size), dtype=np.int64)
        np.minimum(starts, horizon - n, out=x[:, 0])
        np.add(x[:, 0], n, out=x[:, 1])
        k = np.searchsorted(starts, x, "right") - 1
        counts = before[k] + ones[k] * (x - starts[k])
        sums = counts[:, 1] - counts[:, 0]
        yield from zip(ns, sums.min(axis=1).tolist(), sums.max(axis=1).tolist())


def _first_true(pred, lo: int, hi: int, seed: int) -> int:
    """Smallest k in [lo, hi] with pred(k), for pred false up to it and true from it.

    pred(hi) must be true.  The search gallops from ``seed`` (clamped into
    [lo, hi]) in doubling steps until it brackets the answer, then bisects,
    so a seed d away from the answer costs O(log d) calls of pred.
    """
    k = min(max(seed, lo), hi)
    step = 1
    if pred(k):
        hi = k
        while lo < hi:
            k = max(hi - step, lo)
            if not pred(k):
                lo = k + 1
                break
            hi = k
            step *= 2
    else:
        lo = k + 1
        while lo < hi:
            k = min(lo + step - 1, hi - 1)
            if pred(k):
                hi = k
                break
            lo = k + 1
            step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _gap_extrema(members: np.ndarray, horizon: int, lengths):
    """Yield (n, min, max) window counts of the ``horizon``-term mask whose
    members are the ascending 0-based positions ``members``, from their gaps.

    With ``pos`` the member positions and P = ``fenced`` = [-1, *pos, N],
    d members fit in one length-n window iff some
    pos[k + d - 1] - pos[k] < n, and some window holds at most m members iff
    some P[k + m + 1] - P[k] - 1 >= n: the slots strictly between those two
    entries hold exactly m members, and the sentinels keep the window inside
    the prefix.  The search finds the same row from any seed, and a seed d
    away costs O(log d) passes.  The first row is seeded at its expected
    count n * c / N.  Each later search takes, of two seeds, the one whose
    rule has missed its side's rows by less so far (the first on a tie):
    the expected count moved by the previous row's excess over its own
    expected count (for the max) or shortfall from it (for the min), or
    the previous extreme scaled by the ratio of the lengths.  Of a mask
    with a density, as a region of F5, the excess grows slower than n, and
    scaling it would double it; of a mask of doubling blocks it grows in
    proportion to n, and only scaling keeps up.
    """
    c = members.size
    # The fenced positions and their differences reach horizon + 1.
    fenced = np.empty(c + 2, dtype=position_dtype(horizon + 1))
    fenced[0], fenced[1:-1], fenced[-1] = -1, members, horizon
    pos = fenced[1:-1]
    prev = None
    # Per side (min, max), how far each rule's seeds have missed so far.
    missed = [[0, 0], [0, 0]]
    for n in lengths:
        top = min(c, n)
        expected = n * c // horizon
        if prev is None:
            seeds = [(expected, expected)] * 2
        else:
            last, before, *found = prev
            seeds = [(expected + x - before, x * n // last) for x in found]
        pick = [s[1] if scaled < moved else s[0] for s, (moved, scaled) in zip(seeds, missed)]
        hi = _first_true(
            lambda d: d >= top or (pos[d:] - pos[: c - d]).min() >= n, 0, top, pick[1]
        )
        lo = _first_true(
            lambda m: (fenced[m + 1 :] - fenced[: c - m + 1]).max() > n, 0, top, pick[0]
        )
        for miss, s, x in zip(missed, seeds, (lo, hi)):
            miss[0] += abs(s[0] - x)
            miss[1] += abs(s[1] - x)
        prev = n, expected, lo, hi
        yield n, lo, hi


def _period_extrema(bits: np.ndarray, t: int, q: int, horizon: int, lengths):
    """Yield (n, min, max) window counts of a ``horizon``-term mask that
    repeats with period q after t terms, from ``bits``, its first t + q
    terms (t + q < horizon).

    With p the members of one period, a row of length n = k + a * q, a
    whole periods past the transient and k < t + q, is the row of length k
    plus a * p, with none to count for k = 0.  A window at an offset t + q
    or later equals the one q terms earlier, so when every row has t + q
    offsets the distinct k are counted in one call over the first
    min(N, 2 (t + q) - 1) terms of the repeated mask; otherwise every row
    is counted over all N terms.  Those terms go to the member gaps as the
    members of ``bits`` and of one period shifted by whole periods, with
    no mask, when they hold at most ``SPARSE_SHARE`` of the terms, and to
    the count walk as the repeated mask otherwise.
    """
    if horizon - lengths[-1] < t + q - 1:
        size, folds = horizon, [(n, 0) for n in lengths]
    else:
        size = min(horizon, 2 * (t + q) - 1)
        folds = [(n - a * q, a) for n in lengths for a in [max(n - t, 0) // q]]
    per = int(np.count_nonzero(bits[t:]))
    # The terms past the first t + q are whole periods and then `rest` terms.
    copies, rest = divmod(size - t - q, q)
    members = int(np.count_nonzero(bits[: t + rest])) + (copies + 1) * per
    counted = sorted({k for k, _ in folds} - {0})
    rows = {0: (0, 0)}
    if counted and members <= SPARSE_SHARE * size:
        ones = np.flatnonzero(bits)
        shifted = ones[ones >= t] + q * np.arange(1, copies + 2)[:, None]
        pos = np.concatenate([ones, shifted.ravel()[: members - ones.size]])
        rows.update((k, (lo, hi)) for k, lo, hi in _gap_extrema(pos, size, counted))
    elif counted:
        tiled = np.concatenate([bits, np.resize(bits[t:], size - t - q)])
        rows.update((k, (lo, hi)) for k, lo, hi in _count_extrema(tiled, counted))
    for n, (k, a) in zip(lengths, folds):
        lo, hi = rows[k]
        yield n, lo + a * per, hi + a * per


def count_extrema(m: Membership, n: int) -> tuple[int, int]:
    """(min, max) window count over offsets 1..N-n+1: one ``density_profile`` row."""
    row = density_profile(m, WindowSchedule((n,))).rows[0]
    return row.min_count, row.max_count


def naive_count_extrema(m: Membership, n: int) -> tuple[int, int]:
    """Brute-force oracle: recount every window independently, O(N * n)."""
    sched = WindowSchedule((n,))
    sched.validate_for(m.horizon)
    sums = sliding_window_view(m.bits, sched.lengths[0]).sum(axis=1, dtype=np.int64)
    return int(sums.min()), int(sums.max())


def _profile(extrema, horizon: int) -> DensityProfile:
    return DensityProfile(rows=tuple(
        DensityRow(n=n, min_count=int(lo), max_count=int(hi), offsets_scanned=horizon - n + 1)
        for n, lo, hi in extrema
    ))


def density_profile(m: Membership, schedule: WindowSchedule) -> DensityProfile:
    """One count-extrema row per scheduled window length.

    A mask with at most ``SPARSE_SHARE`` of its terms as members is counted
    from the gaps between its members, any other from one shared prefix-sum
    array.  The kernels are exact, so the rows do not depend on the choice.
    The schedule is walked serially: the gap kernel seeds each row's search
    from the row before it.
    """
    schedule.validate_for(m.horizon)
    if np.count_nonzero(m.bits) <= SPARSE_SHARE * m.horizon:
        extrema = _gap_extrema(np.flatnonzero(m.bits), m.horizon, schedule.lengths)
    else:
        extrema = _count_extrema(m.bits, schedule.lengths)
    return _profile(extrema, m.horizon)


def head_profile(p: Prefix, bits: np.ndarray, schedule: WindowSchedule) -> DensityProfile:
    """``density_profile`` of the mask over all N terms of ``p`` that
    flags every term repeating a head entry flagged in ``bits``, a bool
    mask over ``p.head``.

    A prefix longer than its head is counted by its layout: one period
    over its first t + q terms, its run starts, or its flagged classes
    (``_class_mask``).  Any other, whose head is every term, is counted by
    ``density_profile``.
    """
    if p.classes is not None:
        bits = _class_mask(p, bits)
    if bits.size == p.horizon:
        return density_profile(Membership.from_mask(bits), schedule)
    schedule.validate_for(p.horizon)
    if p.runs is not None:
        extrema = _run_extrema(bits, p.runs, p.horizon, schedule.lengths)
    else:
        # A class mask shorter than the prefix is one period from term 1.
        t, q = p.period or (0, bits.size)
        extrema = _period_extrema(bits, t, q, p.horizon, schedule.lengths)
    return _profile(extrema, p.horizon)


def _class_mask(p: Prefix, bits: np.ndarray) -> np.ndarray:
    """The mask over one period, or over all N terms, of the 2-adic
    classes of ``p`` flagged in ``bits``, a bool mask over ``p.head``.

    Term k is flagged iff its class j is, and class j holds the k with
    k + 1 + s = 2**(j - 1) mod 2**j (s = ``p.classes``), so the mask
    repeats with period 2**b, b the largest flagged class.  When the
    flagged entries are every head entry from class a on, the mask flags
    the k with k + 1 + s = 0 mod 2**(a - 1), whose classes all occur and
    are at least a: a period of 2**(a - 1).  A period shorter than N is
    returned as one period, for ``_period_extrema``; any other mask is
    made over all N terms.  Either way each class is one strided fill.
    """
    first, step, _ = p.strides
    flagged = np.flatnonzero(bits).tolist()
    q = max((step[i] for i in flagged), default=1)
    if flagged and flagged == list(range(flagged[0], len(step))):
        q = step[flagged[0]] // 2
    size = min(q, p.horizon)
    mask = np.zeros(size, dtype=bool)
    for i in flagged:
        # A step past the mask's end picks one term, and fits a slice.
        mask[first[i] % size :: min(step[i], size)] = True
    return mask


def member_profile(p: Prefix, members: np.ndarray, schedule: WindowSchedule) -> DensityProfile:
    """``head_profile`` of the head entries at ``members``, ascending
    positions in ``p.head`` (``Prefix.members``).

    Of a prefix whose head is every term, at most ``SPARSE_SHARE`` of the
    terms as members are counted from their gaps as given, with no mask,
    as ``density_profile`` would count them; any other members are
    scattered into a bool mask over the head for ``head_profile``.
    """
    if p.head.size == p.horizon and members.size <= SPARSE_SHARE * p.horizon:
        schedule.validate_for(p.horizon)
        return _profile(_gap_extrema(members, p.horizon, schedule.lengths), p.horizon)
    bits = np.zeros(p.head.size, dtype=bool)
    bits[members] = True
    return head_profile(p, bits, schedule)


def run_profiles(p: Prefix, starts, ids, schedule: WindowSchedule) -> tuple[DensityProfile, ...]:
    """One count profile per run j in ``ids`` of the sorted distinct values.

    Run j is ``p.index.uniq[starts[j]:starts[j + 1]]`` (``starts[0] == 0``,
    the last run ends at the last value) and holds the terms valued in it.
    A run's rows are kept in ``p.run_rows``: a call counts a run only for
    the lengths no earlier call counted, and of exactly two runs only the
    one with fewer terms, since a window holding k of its terms holds
    n - k of the other's.  A run is counted from its head positions,
    ``p.members``, by ``member_profile``.
    """
    edges = np.append(starts, p.index.uniq.size).tolist()
    runs = list(zip(edges, edges[1:]))
    lengths = schedule.lengths
    ids = [int(j) for j in ids]
    memo = p.run_rows
    todo = [j for j in ids if not set(lengths) <= memo.get(runs[j], {}).keys()]
    if todo:
        p.register(edges)
    if todo and len(runs) == 2:
        todo = [int(2 * p.index.counts[: edges[1]].sum() > p.horizon)]
    for j in todo:
        rows = memo.setdefault(runs[j], {})
        missing = tuple(n for n in lengths if n not in rows)
        if missing:
            prof = member_profile(p, p.members(*runs[j]), WindowSchedule(missing))
            rows.update((r.n, (r.min_count, r.max_count)) for r in prof.rows)
        if len(runs) == 2:
            other = memo.setdefault(runs[1 - j], {})
            other.update((n, (n - rows[n][1], n - rows[n][0])) for n in lengths)
    return tuple(
        DensityProfile(rows=tuple(
            DensityRow(n, *memo[runs[j]][n], p.horizon - n + 1) for n in lengths
        ))
        for j in ids
    )


def cesaro_profile(p: Prefix, schedule: WindowSchedule) -> CesaroProfile:
    """One mean-extrema row per scheduled window length.

    A prefix whose only values are a <= b and whose float partial sums are
    all exact (a = A / d and b = B / d for integers A, B and d a power of
    two, N * max(-A, B) <= 2**53) reads its rows from the counts of a's run
    (``run_profiles``): a length-n window holding c terms valued a sums to
    b * n - (b - a) * c, so its mean is the quotient of the integers
    B * n - (B - A) * c and n * d, which Python's int true division rounds
    correctly, as ``float(Fraction)`` does, with no ``Fraction`` built.
    Exactness is judged from ``p.span`` before ``p.index`` is read, so a
    prefix with inexact sums, such as F5's, builds no index here.  Any
    other prefix takes the float walk of a float64 prefix-sum array
    (``_window_extrema``), whose rounding in any one window mean is at most
    about N * ulp(N * M), far below every reporting tolerance at the
    horizons this package targets.  With exact sums both routes divide the
    same window sum by n, correctly rounded, so their rows agree bit for
    bit.

    A zero mean is reported as +0.0: adding +0.0 turns -0.0 into +0.0 and
    leaves every other value as it is.  A window sum is -0.0 only at
    offset 0, when the first n terms are all -0.0, and which zero numpy's
    min and max return among zeros of both signs depends on its SIMD lanes;
    a mean is also -0.0 when a negative sum's quotient underflows.
    """
    schedule.validate_for(p.horizon)
    # a and b become the integers A and B over d.
    (a, da), (b, db) = (float(v).as_integer_ratio() for v in p.span)
    d = max(da, db)
    a, b = a * (d // da), b * (d // db)
    if p.horizon * max(-a, b) > 2**53 or p.index.uniq.size > 2:
        rows = (
            (n, float(lo / n), float(hi / n))
            for n, lo, hi in _window_extrema(p.values, schedule.lengths)
        )
    else:
        (counted,) = run_profiles(p, range(p.index.uniq.size), [0], schedule)
        rows = (
            (n, (b * n - (b - a) * hi) / (n * d), (b * n - (b - a) * lo) / (n * d))
            for n, lo, hi, _ in counted.rows
        )
    return CesaroProfile(rows=tuple(
        CesaroRow(n=n, min_mean=lo + 0.0, max_mean=hi + 0.0) for n, lo, hi in rows
    ))
