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

The fast path builds one prefix-sum array per input and reads each window in
O(1), i.e. O(N) per window length and O(N log N) for a geometric schedule.
``naive_count_extrema`` recounts every window from scratch in O(N * n) and
exists purely as the oracle the fast path is tested against; do not "fix" it
to share work with the fast path.
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
        return int(self.bits.sum())


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


class DensityRow(NamedTuple):
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

    Rows are independent of each other (the kernel is stateless), so callers
    may compute them concurrently; this implementation shares one prefix-sum
    array and walks the schedule serially.
    """
    schedule.validate_for(m.horizon)
    rows = tuple(
        DensityRow(n=n, min_count=int(lo), max_count=int(hi), offsets_scanned=m.horizon - n + 1)
        for n, lo, hi in _window_extrema(m.bits, schedule.lengths)
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
