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

* **Prefix sums** (dense masks, and every window mean): one prefix-sum array
  per input, then each window read in O(1), i.e. O(N) per window length and
  O(N log N) for a geometric schedule.
* **Member gaps** (masks with at most ``SPARSE_SHARE`` of the terms as
  members): only the c sorted member positions are kept.  The largest count
  is the largest d such that some d consecutive members fit in one window;
  the smallest count is the smallest m such that the stretch strictly
  between some member (or the start) and the member m + 1 places on (or
  the end) has room for a whole window.  Both tests are monotone in d (m)
  and each costs one O(c) pass, so a row is found by galloping from a seed
  and bisecting: O(c log n) per row after one O(N) scan, and a seed taken
  from the previous row usually settles it in a few passes.

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


# A mask with at most this share of its terms as members is counted from the
# gaps between its members; any denser mask from prefix sums.  Measured at
# N = 2**21 over 16 rows (one core): F5 masks of share 1/32 take 4 ms by gaps
# against 70 ms by prefix sums, and analyze on F5 at 10**6 and F7 at 2**20
# (clusters and cells of share 1/64 to 1/16) runs 2.7 times as many terms per
# second.  Denser masks lose: share 1/2 takes 149 ms (F5 region [0, 0.5)) and
# 279 ms (random bits) by gaps against 52-62 ms, since each probe is an O(c)
# pass and more probes are needed the further the seed misses.
SPARSE_SHARE = 0.25


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
    """Yield (n, min, max) of the length-n window sums for each n in ``lengths``."""
    csum = _prefix_sums(values)
    for n in lengths:
        sums = csum[n:] - csum[:-n]
        yield n, sums.min(), sums.max()


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
    from the gaps between its members, any other from one shared prefix-sum
    array; both kernels are exact, so the rows do not depend on the choice.
    The schedule is walked serially: the gap kernel seeds each row's search
    from the row before it.
    """
    schedule.validate_for(m.horizon)
    sparse = m.count() <= SPARSE_SHARE * m.horizon
    extrema = (_gap_extrema if sparse else _window_extrema)(m.bits, schedule.lengths)
    rows = tuple(
        DensityRow(n=n, min_count=int(lo), max_count=int(hi), offsets_scanned=m.horizon - n + 1)
        for n, lo, hi in extrema
    )
    return DensityProfile(rows=rows)


def cesaro_profile(p: Prefix, schedule: WindowSchedule) -> CesaroProfile:
    """One mean-extrema row per scheduled window length.

    Computed from a float64 prefix-sum array; the accumulated rounding in any
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
