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

Counts come from one of two exact kernels, chosen from the mask itself:

* **Prefix sums** (every window mean, and masks whose members and
  non-members each exceed ``SPARSE_SHARE`` of the terms): one prefix-sum
  array per input, each window sum one subtraction, so O(N) per window
  length and O(N log N) for a geometric schedule.  The offsets are walked
  in blocks of ``_BLOCK``, every window length per block, into one reused
  block-sized buffer: a block of the prefix sums is read from cache by all
  the lengths, and no length makes an N-length temporary.
* **Member gaps** (masks with at most ``SPARSE_SHARE`` of the terms as
  members): only the c sorted member positions are kept.  The largest count
  is the largest d such that some d consecutive members fit in one window;
  the smallest count is the smallest m such that the stretch strictly
  between some member (or the start) and the member m + 1 places on (or
  the end) has room for a whole window.  Both tests are monotone in d (m)
  and each costs one O(c) pass, so a row is found by galloping from a seed
  and bisecting: O(c log n) per row after one O(N) scan, and a seed taken
  from the previous row usually settles it in a few passes.  A mask with at
  most ``SPARSE_SHARE`` of the terms as non-members is counted from the gaps
  of its complement: a window holding k non-members holds n - k members.

``naive_count_extrema`` recounts every window from scratch in O(N * n) and
exists purely as the oracle both kernels are tested against; do not "fix"
it to share work with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidSpecError, WindowTooLongError
from .sequences import Prefix


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
    def from_indices(cls, indices, horizon: int) -> "Membership":
        idx = np.asarray(list(indices), dtype=np.int64)
        bits = np.zeros(horizon, dtype=bool)
        if idx.size:
            if idx.min() < 1 or idx.max() > horizon:
                raise InvalidSpecError("indices must lie in [1, horizon]")
            bits[idx - 1] = True
        return cls(bits=bits, horizon=horizon)

    @classmethod
    def from_mask(cls, mask) -> "Membership":
        m = np.asarray(mask, dtype=bool)
        return cls(bits=m, horizon=m.size)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class WindowSchedule:
    """Strictly increasing window lengths, all ultimately bounded by N."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        ls = tuple(int(n) for n in self.lengths)
        if not ls:
            raise InvalidSpecError("schedule must contain at least one length")
        if ls[0] < 1 or any(b <= a for a, b in zip(ls, ls[1:])):
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
        if horizon < 1:
            raise InvalidSpecError("horizon must be positive")
        if base < 1 or ratio < 2:
            raise InvalidSpecError("need base >= 1 and ratio >= 2")
        cap = max(horizon // 4, 1)
        lengths = []
        n = base
        while n <= cap:
            lengths.append(n)
            n *= ratio
        if not lengths:
            lengths = [cap]
        return cls(tuple(lengths))


# A mask with at most this share of its terms as members (or as non-members)
# is counted from the gaps between them; any other mask from prefix sums.
# Measured against the blocked prefix-sum walk at N = 2**21 over 16 rows (min
# of 5, one core): at share 1/8 the gaps take 37 ms on random bits against
# 33 ms, and 16 ms (F5 region [0, 1/8)) and 14 ms (F7 value 1/3) against
# 29-31 ms; at share 1/4 they lose everywhere, 132 ms (random bits), 68 ms
# (F5 region [0, 1/4)) and 35 ms (F7 value 1/2) against 29-34 ms, since
# each probe is an O(c) pass and more probes are needed the further the
# previous row's seed misses.  F1's zero label (all but 3 of 2**21 terms)
# takes 0.9 ms from its complement's gaps against 26 ms.
SPARSE_SHARE = 0.125

# The prefix-sum walk reads the offsets in blocks of this many window sums,
# every schedule row per block.  Measured at N = 2**21 over 16 rows (min of
# 7, one core with 2 MiB of L2) for blocks of 2**12 ... 2**17: int32 count
# rows 95, 44-62, 39-42, 27-32, 34-39 and 45 ms, float64 window means 121,
# 73, 61, 59, 58 and 73 ms, against 59-65 and 153 ms for one N-length
# temporary per row.  Smaller blocks pay numpy's per-call overhead on every
# block and row; larger ones no longer keep a block of prefix sums in cache
# across the rows.
_BLOCK = 1 << 15


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


def _check_window(n: int, horizon: int) -> None:
    if n < 1:
        raise InvalidSpecError(f"window length must be >= 1, got {n}")
    if n > horizon:
        raise WindowTooLongError(f"window length {n} exceeds horizon {horizon}")


def _count_dtype(size: int) -> type:
    """Narrowest integer dtype that holds every count of ``size`` bits exactly."""
    return np.int32 if size < 2**31 else np.int64


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """csum[k] = values[0] + ... + values[k - 1].

    Bool masks are counted into int32 while N < 2**31 and into int64 from
    there on, so counts stay exact integers at half the memory traffic;
    any other array (the float64 Cesaro path) keeps its own dtype.
    """
    dtype = _count_dtype(values.size) if values.dtype == bool else values.dtype
    csum = np.zeros(values.size + 1, dtype=dtype)
    np.cumsum(values, dtype=dtype, out=csum[1:])
    return csum


def _window_extrema(values: np.ndarray, lengths):
    """Yield (n, min, max) of the length-n window sums for each n in ``lengths``.

    ``lengths`` must be strictly increasing.  The offsets are walked in blocks
    of ``_BLOCK``: within a block every row subtracts its slice of the one
    prefix-sum array into one reused buffer and folds the buffer's min and
    max into its running extrema, so the block's prefix sums stay in cache
    across all rows and no row allocates an N-length temporary.  A row drops
    out once its N - n + 1 offsets are used up, and every longer row with it.
    The rows are yielded once the walk ends.

    Each window sum is the same single subtraction the whole-row expression
    ``csum[n:] - csum[:-n]`` makes, so every extremum equals its reduction.
    The one exception is the sign of a zero: a float window sum is -0.0 only
    at offset 0, and only when the first n values are all -0.0, and which
    zero numpy's reduction returns then depends on its SIMD lanes, so such a
    row whose extremum is zero is reduced over the whole row instead.
    """
    csum = _prefix_sums(values)
    buf = np.empty(min(_BLOCK, csum.size - lengths[0]), dtype=csum.dtype)
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
        lo, hi = lows[n], highs[n]
        if np.signbit(csum[n]) and 0 in (lo, hi):
            sums = csum[n:] - csum[:-n]
            lo, hi = sums.min(), sums.max()
        yield n, lo, hi


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


def _gap_extrema(bits: np.ndarray, lengths):
    """Yield (n, min, max) window counts of the mask ``bits``, from its member gaps.

    With ``pos`` the 0-based member positions and P = ``fenced`` =
    [-1, *pos, N], d members fit in one length-n window iff some
    pos[k + d - 1] - pos[k] < n, and some window holds at most m members iff
    some P[k + m + 1] - P[k] - 1 >= n: the slots strictly between those two
    entries hold exactly m members, and the sentinels keep the window inside
    the prefix.  The first row is seeded at the mask's density, every later
    row at the previous row's extremes scaled by the ratio of the lengths.
    """
    horizon = bits.size
    members = np.flatnonzero(bits)
    c = members.size
    fenced = np.empty(c + 2, dtype=_count_dtype(horizon + 1))
    fenced[0], fenced[1:-1], fenced[-1] = -1, members, horizon
    pos = fenced[1:-1]
    prev = None
    for n in lengths:
        top = min(c, n)
        if prev is None:
            seed_lo = seed_hi = n * c // horizon
        else:
            seed_lo, seed_hi = prev[1] * n // prev[0], prev[2] * n // prev[0]
        hi = _first_true(
            lambda d: d >= top or (pos[d:] - pos[: c - d]).min() >= n, 0, top, seed_hi
        )
        lo = _first_true(
            lambda m: (fenced[m + 1 :] - fenced[: c - m + 1]).max() > n, 0, top, seed_lo
        )
        prev = (n, lo, hi)
        yield prev


def window_counts(m: Membership, n: int) -> np.ndarray:
    """Exact member count of every length-n window, ordered by offset."""
    _check_window(n, m.horizon)
    csum = _prefix_sums(m.bits)
    return csum[n:] - csum[:-n]


def count_extrema(m: Membership, n: int) -> tuple[int, int]:
    """(min, max) window count over offsets 1..N-n+1: one ``density_profile`` row."""
    _check_window(n, m.horizon)
    row = density_profile(m, WindowSchedule((n,))).rows[0]
    return row.min_count, row.max_count


def naive_count_extrema(m: Membership, n: int) -> tuple[int, int]:
    """Brute-force oracle: recount every window independently, O(N * n)."""
    _check_window(n, m.horizon)
    sums = sliding_window_view(m.bits, n).sum(axis=1, dtype=np.int64)
    return int(sums.min()), int(sums.max())


def mean_extrema(p: Prefix, n: int) -> tuple[float, float]:
    """(min, max) window mean over offsets 1..N-n+1: one ``cesaro_profile`` row."""
    _check_window(n, p.horizon)
    row = cesaro_profile(p, WindowSchedule((n,))).rows[0]
    return row.min_mean, row.max_mean


def density_profile(m: Membership, schedule: WindowSchedule) -> DensityProfile:
    """One count-extrema row per scheduled window length.

    A mask with at most ``SPARSE_SHARE`` of its terms as members is counted
    from the gaps between its members, one with at most that share as
    non-members from the gaps between its non-members, any other from one
    shared prefix-sum array; the kernels are exact, so the rows do not
    depend on the choice.
    The schedule is walked serially: the gap kernel seeds each row's search
    from the row before it.
    """
    schedule.validate_for(m.horizon)
    count = m.count()
    if count <= SPARSE_SHARE * m.horizon:
        extrema = _gap_extrema(m.bits, schedule.lengths)
    elif m.horizon - count <= SPARSE_SHARE * m.horizon:
        # A window holds n terms, so it holds n minus its non-members.
        extrema = ((n, n - hi, n - lo) for n, lo, hi in _gap_extrema(~m.bits, schedule.lengths))
    else:
        extrema = _window_extrema(m.bits, schedule.lengths)
    rows = tuple(
        DensityRow(n=n, min_count=int(lo), max_count=int(hi), offsets_scanned=m.horizon - n + 1)
        for n, lo, hi in extrema
    )
    return DensityProfile(rows=rows)


def cesaro_profile(p: Prefix, schedule: WindowSchedule) -> CesaroProfile:
    """One mean-extrema row per scheduled window length.

    Computed from a float64 prefix-sum array, walked in blocks of offsets
    like a dense count (``_window_extrema``); the accumulated rounding in any
    single window mean is at most about N * ulp(N * M), which for the
    horizons this package targets stays far below every reporting tolerance.
    Integer-valued prefixes (indicator-like sequences) are exact.
    """
    schedule.validate_for(p.horizon)
    rows = tuple(
        CesaroRow(n=n, min_mean=float(lo / n), max_mean=float(hi / n))
        for n, lo, hi in _window_extrema(p.values, schedule.lengths)
    )
    return CesaroProfile(rows=rows)
