"""Finitely-described bounded real sequences and their materialized prefixes.

Every sequence is given by a generator kind plus parameters, together with a
bound M certified at construction so that ``|x(n)| <= M`` for all n.
Indexing is 1-based throughout: ``x(1)`` is the first term.  A :class:`Prefix`
is the exact float64 materialization of ``x(1..N)``.

Generator kinds:

* ``periodic``        -- repeats a finite pattern.
* ``ones-then-zeros`` -- 1 for ``n <= n0``, then 0 forever.
* ``rotation``        -- ``frac(n * alpha)``; equidistributed on [0, 1) for
  irrational alpha.
* ``doubling-blocks`` -- constant blocks of doubling length; block t has
  length ``2**t`` and value ``t mod 2`` (so the terms run 0, 11, 0000,
  11111111, ...).  Its window means never settle, which is what it is for.
* ``dyadic-harmonic`` -- ``x(n) = 1/j`` where ``2**(j-1)`` is the largest
  power of two dividing n; the value ``1/j`` occupies a residue class of
  density ``2**-j``.
* ``table``           -- explicit finite value table; defined only up to its
  length.
* ``affine-combo``    -- ``sum(coef * child)`` over child specs, used to
  exercise linearity of downstream estimators.

Only finitely-described generators are supported; there is no hook for
arbitrary user callables.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRangeError, InvalidSpecError, ResourceLimitError, whole

#: Fractional part of the golden ratio, the default rotation angle.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MAX_HORIZON_ENV = "SEQDIST_MAX_HORIZON"
# From a 2 GiB peak-RSS budget, a quarter of an 8 GB host.  cross_validate on
# F5, whose terms are all distinct, is the heaviest run; one fresh process
# each on a 2-core x86-64 Linux host (numpy 2.4) measured 214 MiB / 1.3 s at
# 8e6, 397 MiB / 2.6 s at 1.6e7 and 946 MiB / 8.7 s at 4e7: about
# 25 B/term, the values, their sorted copy (Prefix.index) and a stage's
# labels and int64 temporary, so about 1.4 GiB at 6e7.  F7, read from its
# classes, measured 946 MiB / 2.5-2.9 s at 6e7, nearly all of it the values
# and the float walk's prefix sums.
DEFAULT_MAX_HORIZON = 60_000_000

def max_horizon() -> int:
    """Materialization cap, overridable through SEQDIST_MAX_HORIZON."""
    raw = os.environ.get(MAX_HORIZON_ENV)
    if raw is None:
        return DEFAULT_MAX_HORIZON
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidSpecError(
            f"{MAX_HORIZON_ENV} must be an integer, got {raw!r}"
        ) from exc
    if cap < 1:
        raise InvalidSpecError(f"{MAX_HORIZON_ENV} must be at least 1, got {raw!r}")
    return cap


@dataclass(frozen=True)
class SequenceSpec:
    """A bounded real sequence described by a generator kind and parameters.

    ``bound`` is certified per kind at construction time (for example
    ``max(|pattern|)`` for periodic, 1 for rotation, ``sum(|c_i| * M_i)``
    for affine combinations), so ``|x(n)| <= bound`` holds for every n.

    ``shift`` offsets evaluation: term n of this spec is term ``n + shift``
    of the underlying generator.  It exists so that translation returns a
    first-class spec; use :func:`shift` rather than setting it directly.
    """

    kind: str
    bound: float
    pattern: tuple[float, ...] = ()
    n0: int = 0
    alpha: float = 0.0
    values: tuple[float, ...] = ()
    terms: tuple[tuple[float, "SequenceSpec"], ...] = ()
    shift: int = 0

    def __post_init__(self):
        # A non-finite bound (a declared nan or inf, or an affine combination
        # that overflows) would reach the partitions and kernels downstream.
        if not math.isfinite(self.bound):
            raise InvalidSpecError(f"certified bound must be finite, got {self.bound!r}")

    def describe(self) -> str:
        """Short human-readable summary used by reports."""
        parts = [self.kind]
        if self.kind == "periodic":
            parts.append(f"pattern={list(self.pattern)}")
        elif self.kind == "ones-then-zeros":
            parts.append(f"n0={self.n0}")
        elif self.kind == "rotation":
            parts.append(f"alpha={self.alpha!r}")
        elif self.kind == "table":
            parts.append(f"length={len(self.values)}")
        elif self.kind == "affine-combo":
            parts.append(f"terms={len(self.terms)}")
        if self.shift:
            parts.append(f"shift={self.shift}")
        parts.append(f"bound={self.bound!r}")
        return " ".join(parts)

    def period(self) -> tuple[int, int] | None:
        """(t, q) such that x(n + q) == x(n) bit for bit for every n > t, or
        None when no such pair is known.

        A periodic spec repeats from its first term and ones-then-zeros is
        constant after term n0 - shift.  An affine combination repeats
        where all its children do, with the lcm of their periods: its
        shift is added to each child's, and each child's terms combine in
        the same order at n and n + q.  Rotations, doubling blocks, the
        dyadic harmonic and tables have none.
        """
        if self.kind == "periodic":
            return 0, len(self.pattern)
        if self.kind == "ones-then-zeros":
            return max(self.n0 - self.shift, 0), 1
        if self.kind == "affine-combo":
            found = [
                dataclasses.replace(child, shift=child.shift + self.shift).period()
                for _, child in self.terms
            ]
            if None in found:
                return None
            return max(t for t, _ in found), math.lcm(*(q for _, q in found))
        return None

    def breaks(self, last: int) -> list[int] | None:
        """The sorted positions b in [2, last] where x(b) may differ from
        x(b - 1), or None when they are not known.

        Between two breaks the value is one float, bit for bit.
        Ones-then-zeros changes once, at n0 + 1 - shift, and doubling blocks
        at every power of two, less the shift.  An affine combination
        changes only where a child does, so its breaks are the union of its
        children's, each child's shift added to its own.  Periodic specs,
        rotations, the dyadic harmonic and tables have none.
        """
        k = self.shift
        if self.kind == "ones-then-zeros":
            b = self.n0 + 1 - k
            return [b] if 2 <= b <= last else []
        if self.kind == "doubling-blocks":
            # The powers 2**t with k + 2 <= 2**t <= last + k.
            return [2**t - k for t in range((k + 1).bit_length(), (last + k).bit_length())]
        if self.kind == "affine-combo":
            found = [
                dataclasses.replace(child, shift=child.shift + k).breaks(last)
                for _, child in self.terms
            ]
            if None in found:
                return None
            return sorted(set().union(*found))
        return None

    def classes(self) -> int | None:
        """The offset s such that x(n) depends only on the 2-adic class
        v2(n + s) + 1 of n, bit for bit, or None when none is known.

        The dyadic harmonic is 1/j on class j, so its s is its shift.  Every
        other kind has none.
        """
        return self.shift if self.kind == "dyadic-harmonic" else None


def _finite_reals(values, what: str) -> tuple[float, ...]:
    out = []
    for v in values:
        f = float(v)
        if not math.isfinite(f):
            raise InvalidSpecError(f"{what} must be finite, got {v!r}")
        out.append(f)
    return tuple(out)


def periodic(pattern) -> SequenceSpec:
    pat = _finite_reals(pattern, "periodic pattern")
    if not pat:
        raise InvalidSpecError("periodic pattern must be nonempty")
    return SequenceSpec(kind="periodic", bound=max(abs(v) for v in pat), pattern=pat)


def ones_then_zeros(n0: int) -> SequenceSpec:
    return SequenceSpec(kind="ones-then-zeros", bound=1.0, n0=whole(n0, "n0"))


def rotation(alpha: float) -> SequenceSpec:
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise InvalidSpecError(f"rotation alpha must lie in (0, 1), got {alpha!r}")
    return SequenceSpec(kind="rotation", bound=1.0, alpha=a)


def doubling_blocks() -> SequenceSpec:
    return SequenceSpec(kind="doubling-blocks", bound=1.0)


def dyadic_harmonic() -> SequenceSpec:
    return SequenceSpec(kind="dyadic-harmonic", bound=1.0)


def table(values) -> SequenceSpec:
    vals = _finite_reals(values, "table values")
    if not vals:
        raise InvalidSpecError("table must hold at least one value")
    return SequenceSpec(kind="table", bound=max(abs(v) for v in vals), values=vals)


def affine_combo(terms) -> SequenceSpec:
    packed = []
    for coef, child in terms:
        c = float(coef)
        if not math.isfinite(c):
            raise InvalidSpecError(f"affine coefficient must be finite, got {coef!r}")
        if not isinstance(child, SequenceSpec):
            raise InvalidSpecError("affine-combo children must be SequenceSpec")
        packed.append((c, child))
    if not packed:
        raise InvalidSpecError("affine-combo needs at least one term")
    bound = 0.0
    for c, child in packed:
        bound += abs(c) * child.bound
    return SequenceSpec(kind="affine-combo", bound=bound, terms=tuple(packed))


# Canonical fixtures.  F1 accepts an n0 override; the rest take no parameters.
FIXTURE_NAMES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


def fixture(name: str, n0: int | None = None) -> SequenceSpec:
    """Resolve a reserved fixture name to a spec.

    F1 ones-then-zeros(n0, default 3); F2 all ones; F3 alternating -1, 1;
    F4 periodic 1, 0, 0; F5 golden rotation; F6 doubling blocks;
    F7 dyadic harmonic.
    """
    if name != "F1" and n0 is not None:
        raise InvalidSpecError(f"fixture {name} takes no n0 parameter")
    if name == "F1":
        return ones_then_zeros(3 if n0 is None else n0)
    if name == "F2":
        return periodic((1.0,))
    if name == "F3":
        return periodic((-1.0, 1.0))
    if name == "F4":
        return periodic((1.0, 0.0, 0.0))
    if name == "F5":
        return rotation(GOLDEN)
    if name == "F6":
        return doubling_blocks()
    if name == "F7":
        return dyadic_harmonic()
    raise InvalidSpecError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")


#: Positions that materialize evaluates at a time, and terms that
#: ``Prefix.run_labels`` and ``IntervalSet.contains`` read at a time, so that
#: their temporaries take a few 512 KiB blocks rather than N-long arrays.
_CHUNK = 1 << 16


def _evaluator(spec: SequenceSpec, last: int):
    """Check ``spec`` up to the 1-based position ``last`` and return the
    function ``f(first, stop, out=None)`` that evaluates it on the positions
    ``first, ..., stop - 1`` (``1 <= first <= stop <= last + 1``) into
    ``out``, a float64 array of ``stop - first`` terms (a new one when
    None), and returns ``out``.

    The per-spec work (the 2**63 limit, a table's length, converting a
    pattern or table to an array) is done here once, for the last position.
    materialize calls the result on consecutive chunks of the prefix and
    eval_at on a range of one position, so the two agree bit for bit.  A
    periodic range is copied from one block of the tiled pattern, tiled
    again only for a range longer than any before, so materialize tiles
    once; ones-then-zeros, doubling blocks and the dyadic harmonic are slice
    and strided fills between Python-int edges, so no position is rounded
    to a float.  Only an affine combination needs a buffer, one chunk long,
    that each child writes into in turn.
    """
    top = last + spec.shift
    if top > 2**63 - 1:
        raise InvalidSpecError(f"position {top} is past 2**63 - 1")
    kind = spec.kind
    if kind == "periodic":
        pattern = np.asarray(spec.pattern, dtype=np.float64)
        size = pattern.size
        block = pattern
        def f(first, stop, out):
            nonlocal block
            r = (first - 1) % size
            if r + stop - first > block.size:
                block = np.tile(pattern, 2 + (stop - first) // size)
            out[:] = block[r : r + stop - first]
    elif kind == "ones-then-zeros":
        def f(first, stop, out):
            out.fill(0.0)
            out[: max(spec.n0 - first + 1, 0)] = 1.0
    elif kind == "rotation":
        def f(first, stop, out):
            np.multiply(np.arange(first, stop, dtype=np.int64), spec.alpha, out=out)
            out -= np.floor(out)
    elif kind == "doubling-blocks":
        def f(first, stop, out):
            # Block t holds the positions [2**t, 2**(t + 1)).
            for t in range(first.bit_length() - 1, (stop - 1).bit_length()):
                out[max(2**t - first, 0) : 2 ** (t + 1) - first] = t % 2
    elif kind == "dyadic-harmonic":
        def f(first, stop, out):
            # x = 1/j on the positions 2**(j - 1) mod 2**j.
            for j in range(1, (stop - 1).bit_length() + 1):
                out[(2 ** (j - 1) - first) % 2**j :: 2**j] = 1.0 / j
    elif kind == "table":
        vals = np.asarray(spec.values, dtype=np.float64)
        if top > vals.size:
            raise IndexOutOfRangeError(
                f"table defines x only up to n={vals.size - spec.shift}" if vals.size > spec.shift
                else f"table of {vals.size} values shifted by {spec.shift} defines no term"
            )
        def f(first, stop, out):
            out[:] = vals[first - 1 : stop - 1]
    elif kind == "affine-combo":
        children = [(coef, _evaluator(child, top)) for coef, child in spec.terms]
        def f(first, stop, out):
            out.fill(0.0)
            term = np.empty(stop - first)
            for coef, child in children:
                child(first, stop, term)
                term *= coef
                out += term
    else:
        raise InvalidSpecError(f"unknown sequence kind {kind!r}")
    k = spec.shift

    def evaluate(first, stop, out=None):
        if out is None:
            out = np.empty(stop - first)
        f(first + k, stop + k, out)
        return out

    return evaluate


def eval_at(spec: SequenceSpec, n: int) -> float:
    """Evaluate x(n).  Deterministic; ``|x(n)| <= spec.bound``."""
    n = whole(n, "index", high=2**63 - 1)
    return float(_evaluator(spec, n)(n, n + 1)[0])


def position_dtype(top: int) -> type:
    """The dtype of stored positions and counts whose largest value is
    ``top``: int32 while every value fits in it, else int64."""
    return np.int32 if top < 2**31 else np.int64


class ValueIndex(NamedTuple):
    """The sorted distinct values of a prefix, ``uniq``, and the number of
    terms at each, ``counts`` (``position_dtype`` of N); both
    read-only.  When every term is distinct, ``counts`` may be a zero-stride
    view of a single 1 (``np.broadcast_to``), so no N-long array is stored
    for it; read it as any array, but do not assume it owns N entries.  A
    zero among the values is +0.0 when any zero term is +0.0, and -0.0 only
    when every zero term is.
    """

    uniq: np.ndarray
    counts: np.ndarray


def _terms(f, first: int, stop: int) -> np.ndarray:
    """x(first..stop - 1) evaluated by ``f``, an ``_evaluator`` result,
    ``_CHUNK`` positions at a time, each chunk written in place into one
    new float64 array."""
    out = np.empty(stop - first)
    for a in range(0, out.size, _CHUNK):
        f(first + a, first + min(a + _CHUNK, out.size), out[a : a + _CHUNK])
    return out


def _at(f, positions: np.ndarray) -> np.ndarray:
    """x at each of ``positions``, distinct 1-based positions in any order,
    evaluated by ``_terms`` over each range of consecutive positions."""
    order = np.argsort(positions)
    pos = positions[order]
    cuts = [0, *(np.flatnonzero(np.diff(pos) != 1) + 1).tolist(), pos.size]
    out = np.empty(pos.size)
    for a, b, first in zip(cuts, cuts[1:], pos[cuts[:-1]].tolist()):
        out[order[a:b]] = _terms(f, first, first + b - a)
    return out


@dataclass(frozen=True, init=False, eq=False)
class Prefix:
    """The values x(1..N) of a bounded sequence.

    ``values[k]`` holds ``x(k + 1)``, read-only, and the prefix may be
    shared freely across workers.  ``Prefix(values, horizon, bound,
    period=None)`` keeps the terms it is given: a float64 input is not
    copied, so the stored array is a read-only view of the caller's memory
    and the caller's own array stays writable, but the caller must not
    change it once the prefix exists.  ``index`` is the prefix's
    :class:`ValueIndex`, built on first use and kept with it,
    ``run_rows`` keeps the window-count extrema of every run of
    ``index.uniq`` counted so far, and one grouping of the head by run
    serves ``members`` and ``last_indices``; a later write to the caller's
    array would leave all three describing the old terms, and every
    estimator that labels terms or reads counts through them would then
    disagree with ``values`` without raising.

    Every term repeats an entry of ``head``, which is read in place of the
    N terms:

    * ``period`` is None or a pair (t, q) such that ``values[k + q]``
      equals ``values[k]`` bit for bit for every k >= t.  The head of such
      a prefix is its first min(N, t + q) terms.
    * ``runs`` is None or, for a prefix that ``materialize`` built from a
      spec's breaks, the 0-based first term of every run of equal terms
      (``runs[0] == 0``, int64).  The head then holds one term per run, and
      ``head[k]`` is every term of ``values[runs[k]:runs[k + 1]]``.
    * ``classes`` is None or, for a prefix that ``materialize`` built from
      a spec's class rule (``SequenceSpec.classes``), its offset s: term
      k + 1 lies in the 2-adic class j = v2(k + 1 + s) + 1.  The head then
      holds one term per class that occurs, ascending in j.
    * Otherwise the head is all N terms.

    Of a prefix of runs or classes, ``strides`` is the one table of both
    layouts: head entry i is an arithmetic progression of terms, its
    first term, its step (1 for a run, 2**j for class j) and its number of
    terms, from which ``copies`` and the fill check are read.

    ``span``, the (min, max) of the head that the bound check finds (None
    for an empty prefix), ``index`` and ``last_indices`` are read from the
    head alone, and a mask over the head is counted by
    ``windows.head_profile``.  Of a prefix longer than its head, ``copies``
    gives each head entry's number of terms and last position.

    Given its values and a period, a prefix checks every term against the
    head entry it repeats, before the bound.  ``materialize`` of a spec
    with a period and more than t + q terms, or with breaks or a class rule
    and no period, evaluates each head entry at its first and its last
    position, which must agree bit for bit; ``values`` is then evaluated on
    first read, by the same evaluator, and checked the same way.
    """

    horizon: int
    bound: float
    period: tuple[int, int] | None
    runs: np.ndarray | None = field(repr=False)
    classes: int | None
    head: np.ndarray = field(repr=False)
    span: tuple[float, float] | None = field(repr=False)
    # The evaluator of a prefix read from its head, which fills ``values``.
    _evaluate = None

    def __init__(self, values, horizon: int, bound: float, period: tuple[int, int] | None = None):
        vals = np.asarray(values, dtype=np.float64).view()
        if vals.ndim != 1 or vals.size != horizon:
            raise InvalidSpecError("prefix length must equal its horizon")
        if period is not None:
            t, q = period
            period = whole(t, "period start", low=0), whole(q, "period")
        vals.flags.writeable = False
        # Stored where the ``values`` cached_property looks first, so it is
        # never evaluated.
        self.__dict__.update(
            values=vals, horizon=horizon, period=period, runs=None, classes=None,
            head=vals if period is None else vals[: sum(period)],
        )
        if period is not None and horizon > sum(period):
            self._check(vals)
        self._settle(bound)

    @classmethod
    def _from_head(cls, f, horizon: int, bound: float, period=None, runs=None, classes=None) -> "Prefix":
        """The prefix x(1..horizon) of ``f``, an ``_evaluator`` result, read
        from the first t + q terms of a ``period`` (t, q), t + q < horizon,
        from the first term of each run of ``runs``, or from the first term
        of each 2-adic class of offset ``classes`` that occurs, fewer than
        horizon."""
        p = cls.__new__(cls)
        p.__dict__.update(_evaluate=f, horizon=horizon, period=period, runs=runs, classes=classes)
        firsts = np.arange(sum(period)) if period else np.array(p.strides[0], dtype=np.int64)
        p.__dict__["head"] = _at(f, firsts + 1)
        if not np.array_equal(p.head.view(np.int64), _at(f, p.copies[1]).view(np.int64)):
            raise p._mismatch()
        p._settle(bound)
        return p

    def _settle(self, bound: float) -> None:
        if not math.isfinite(bound):
            raise InvalidSpecError(f"prefix bound must be finite, got {bound!r}")
        head = self.head
        head.flags.writeable = False
        span = (head.min(), head.max()) if head.size else None
        # Negated so that NaN, which fails every comparison, is rejected too.
        if span is not None and not (span[1] <= bound and span[0] >= -bound):
            raise InvalidSpecError("prefix values must be finite and within the certified bound")
        self.__dict__.update(bound=bound, span=span)

    def _mismatch(self) -> InvalidSpecError:
        if self.runs is not None:
            return InvalidSpecError("prefix values are not constant between the spec's breaks")
        if self.classes is not None:
            return InvalidSpecError("prefix values are not constant on the spec's 2-adic classes")
        t, q = self.period
        return InvalidSpecError(f"prefix values do not repeat with period {q} after term {t}")

    def _check(self, vals: np.ndarray) -> None:
        """Raise unless every term of ``vals`` equals the head entry it
        repeats bit for bit, ``_CHUNK`` terms at a time: each entry's
        progression of terms (``strides``), one strided slice, its one
        entry, or the first t + q terms the head and every later chunk the
        terms one period back, which are still in cache and, by induction,
        already equal to the entries they repeat."""
        # int64 views compare bits, so -0.0 differs from 0.0, and a NaN or
        # out-of-bound term past the head repeats one in it.
        x, h = vals.view(np.int64), self.head.view(np.int64)
        if self.period is None:
            for s, step, c, v in zip(*self.strides, h.tolist()):
                stop = s + c * step
                for a in range(s, stop, step * _CHUNK):
                    if not (x[a : min(a + step * _CHUNK, stop) : step] == v).all():
                        raise self._mismatch()
            return
        q, m = self.period[1], h.size
        for a in (*range(0, m, _CHUNK), *range(m, x.size, _CHUNK)):
            b = min(a + _CHUNK, m if a < m else x.size)
            if not np.array_equal(x[a:b], h[a:b] if a < m else x[a - q : b - q]):
                raise self._mismatch()

    @cached_property
    def values(self) -> np.ndarray:
        """x(1..N), read-only; evaluated here, on first read, only for a
        prefix read from its head, by the same chunks as a prefix given all
        its terms, and checked against the head."""
        vals = _terms(self._evaluate, 1, self.horizon + 1)
        self._check(vals)
        vals.flags.writeable = False
        return vals

    def map(self, fn, bound: float) -> "Prefix":
        """The prefix of ``fn(x)`` for every term x, ``fn`` acting on a
        float64 array term by term, with the certified ``bound``.

        Of a prefix read from its head the result is read from its head
        too, by an evaluator that applies ``fn`` to this prefix's, and is
        checked like ``materialize``'s; any other maps its values.
        """
        if self._evaluate is None:
            return Prefix(fn(self.values), self.horizon, bound, self.period)
        f = self._evaluate

        def g(first, stop, out):
            out[:] = fn(f(first, stop))

        return Prefix._from_head(g, self.horizon, bound, self.period, self.runs, self.classes)

    @cached_property
    def copies(self) -> tuple[np.ndarray, np.ndarray]:
        """(terms, last) of a prefix longer than its head, both int64: the
        number of the N terms that repeat each head entry, and the 1-based
        position of the last of them.

        An entry of c terms, every step-th from the 0-based term k
        (``strides``), lies last at k + (c - 1) * step + 1.  Past the
        transient t, the N - t terms are f whole periods and the first r
        terms of one more (N - t = f * q + r), and the period's term j,
        x(t + 1 + j), lies last at N - q + 1 + (j - N + t) mod q.
        """
        n = self.horizon
        if self.period is None:
            first, step, terms = self.strides
            lasts = [k + (c - 1) * d + 1 for k, d, c in zip(first, step, terms)]
            return np.array(terms, dtype=np.int64), np.array(lasts, dtype=np.int64)
        t, q = self.period
        f, r = divmod(n - t, q)
        j = np.arange(q)
        return (
            np.concatenate([np.ones(t, np.int64), f + (j < r)]),
            np.concatenate([np.arange(1, t + 1), n - q + 1 + (j - (n - t)) % q]),
        )

    @cached_property
    def strides(self) -> tuple[list[int], list[int], list[int]]:
        """(first, step, terms) of a prefix read from its runs or its 2-adic
        classes, as Python ints: head entry i is ``terms[i]`` terms, every
        ``step[i]``-th from the 0-based term ``first[i]``.

        A run is its first term, a step of 1 and its length, up to the next
        run's first term or N.  Class j holds the terms k + 1 with
        k + 1 + s = 2**(j - 1) mod 2**j, s the offset ``classes``: its first
        is k = (2**(j - 1) - 1 - s) mod 2**j, its step 2**j, and it occurs
        when k < N.  No class past J = bit_length(N + s) does.
        """
        n = self.horizon
        if self.runs is not None:
            first = self.runs.tolist()
            return first, [1] * len(first), [e - k for k, e in zip(first, [*first[1:], n])]
        s = self.classes
        found = [((2 ** (j - 1) - 1 - s) % 2**j, 2**j) for j in range(1, (n + s).bit_length() + 1)]
        first, step = map(list, zip(*[(k, d) for k, d in found if k < n]))
        return first, step, [(n - 1 - k) // d + 1 for k, d in zip(first, step)]

    def _tally(self, uniq: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The terms at each of ``uniq`` among all N, from ``counts``, those
        among the head, or from ``copies`` when the head is shorter."""
        if self.horizon == self.head.size:
            return counts
        total = np.zeros(uniq.size, dtype=np.int64)
        # A -0.0 term finds the one zero of uniq, as a +0.0 does.
        np.add.at(total, np.searchsorted(uniq, self.head), self.copies[0])
        return total

    @cached_property
    def index(self) -> ValueIndex:
        # np.unique's steps, each N-long temporary freed once it is spent.
        v = self.head
        srt = np.sort(v)
        first = np.empty(srt.size, dtype=bool)
        first[:1] = True
        np.not_equal(srt[1:], srt[:-1], out=first[1:])
        dtype = position_dtype(self.horizon)
        if first.all():
            # No head entry repeats, as in F5: the sorted copy is the index,
            # and each count is 1, read through a zero stride.
            uniq, counts = srt, np.broadcast_to(np.ones(1, dtype), srt.shape)
        else:
            uniq = srt[first]
            del srt
            counts = np.flatnonzero(first)
            np.subtract(counts[1:], counts[:-1], out=counts[:-1])
            counts[-1:] = v.size - counts[-1:]
        del first
        counts = self._tally(uniq, counts).astype(dtype, copy=False)
        # The sort may pick a -0.0 term among the zeros.
        z = int(np.searchsorted(uniq, 0.0))
        if z < uniq.size and uniq[z] == 0 and np.signbit(uniq[z]):
            if not np.signbit(v[v == 0]).all():
                uniq[z] = 0.0
        for a in (uniq, counts):
            a.flags.writeable = False
        return ValueIndex(uniq, counts)

    @cached_property
    def run_rows(self) -> dict[tuple[int, int], dict[int, tuple[int, int]]]:
        """``run_rows[(first, end)][n]``: the (min, max) length-n window count
        of the terms valued in ``index.uniq[first:end]``, kept by
        ``windows.run_profiles`` for each run and length it has counted."""
        return {}

    def run_labels(self, starts: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Run of each of ``terms``, values of this prefix, run g being
        ``index.uniq[starts[g]:starts[g + 1]]`` (``starts[0] == 0``): uint8
        below 2**8 runs, int16 below 2**15, else int32.  Two runs are one
        compare with their one edge; more are searched ``_CHUNK`` terms at a
        time so no long int64 result is made.  Given ``head``, the labels
        are one per head entry, the form ``_grouping`` groups for
        ``members`` and ``last_indices``."""
        edges = self.index.uniq[starts[1:]]
        runs = len(starts)
        labels = np.empty(terms.size, np.uint8 if runs < 2**8 else np.int16 if runs < 2**15 else np.int32)
        if runs == 2:
            np.greater_equal(terms, edges[0], out=labels.view(bool))
            return labels
        for a in range(0, terms.size, _CHUNK):
            part = terms[a : a + _CHUNK]
            labels[a : a + _CHUNK] = np.searchsorted(edges, part, "right")
        return labels

    @cached_property
    def _edges(self) -> set[int]:
        return set()

    def register(self, *starts) -> None:
        """Note the run starts (indices into ``index.uniq``) of partitions
        whose runs ``members`` or ``last_indices`` will be asked for, so
        that the one grouping of the head (``_grouping``) covers them all.
        Reads no term."""
        for s in starts:
            self._edges.update(np.asarray(s).tolist())

    def _grouping(self, needed) -> tuple[dict[int, int], list[int], np.ndarray]:
        """(at, offsets, order): the head grouped by every run edge
        registered so far and in ``needed``.  Of the sorted edges, group g
        runs from edge e to the next, with ``at[e] == g``, and
        ``order[offsets[g]:offsets[g + 1]]`` holds the ascending head
        positions of its entries, at least one.

        Built once, on the first call: one ``run_labels`` of the head, and
        the positions in one array of ``position_dtype``.  Two groups take
        theirs from one ``flatnonzero`` each.  More take their offsets from
        ``bincount`` and, a stretch of labels at a time, their positions
        from a stable argsort (a radix sort of 8- or 16-bit labels, which
        keeps each group's positions ascending) whose groups are copied to
        their offsets.  A needed edge not grouped yet regroups the head by
        the union of the old and new edges.
        """
        self._edges.update((0, *needed, self.index.uniq.size))
        grouped = self.__dict__.get("_groups")
        if grouped is not None and {*needed} <= grouped[0].keys():
            return grouped
        # The old grouping is freed before the new one is built.
        self.__dict__.pop("_groups", None)
        cuts = sorted(self._edges)
        labels = self.run_labels(np.array(cuts[:-1], dtype=np.intp), self.head)
        order = np.empty(labels.size, dtype=position_dtype(labels.size - 1))
        if len(cuts) == 3:
            ones = np.flatnonzero(labels)
            offsets = [0, labels.size - ones.size, labels.size]
            order[offsets[1] :] = ones
            del ones
            order[: offsets[1]] = np.flatnonzero(labels == 0)
        else:
            # Sorted 4 * _CHUNK labels at a time, so that the sort's int64
            # result and radix buffer stay a few MiB however long the head:
            # one sort of all N labels made F5's cross_validate at 8e6 peak
            # at 313 MiB, against 274 MiB for the index build.
            step = 4 * _CHUNK
            counts = [
                np.bincount(labels[a : a + step], minlength=len(cuts) - 1)
                for a in range(0, labels.size, step)
            ]
            offsets = [0, *np.cumsum(np.sum(counts, axis=0, dtype=np.int64)).tolist()]
            free = offsets[:-1]
            for a, n in zip(range(0, labels.size, step), counts):
                part = np.argsort(labels[a : a + step], kind="stable")
                part += a
                k = 0
                for g, c in zip(np.flatnonzero(n).tolist(), n[n > 0].tolist()):
                    order[free[g] : free[g] + c] = part[k : k + c]
                    free[g] += c
                    k += c
        order.flags.writeable = False
        del labels
        at = {e: g for g, e in enumerate(cuts)}
        grouped = self.__dict__["_groups"] = at, offsets, order
        return grouped

    def members(self, first: int, end: int) -> np.ndarray:
        """Ascending positions in ``head`` of the entries valued in
        ``index.uniq[first:end]``, a slice of ``_grouping``: a run that
        spans several groups is one sort of their positions."""
        at, offsets, order = self._grouping((first, end))
        i, j = at[first], at[end]
        part = order[offsets[i] : offsets[j]]
        return part if j - i == 1 else np.sort(part)

    def last_indices(self, starts: np.ndarray) -> np.ndarray:
        """1-based index of the last term of every run of ``index.uniq``
        (runs as in ``run_labels``), as int64, read from ``_grouping``.

        A group's positions ascend, so of a head of all N terms its last
        term is its last position plus 1; of a shorter head it is the
        largest last term (``copies``) of its entries.  A run's last term is
        the largest of its groups'."""
        starts = np.asarray(starts).tolist()
        at, offsets, order = self._grouping(starts)
        if self.head.size == self.horizon:
            lasts = order[np.array(offsets[1:]) - 1].astype(np.int64) + 1
        else:
            lasts = np.maximum.reduceat(self.copies[1][order], offsets[:-1])
        return np.maximum.reduceat(lasts, [at[s] for s in starts])


def materialize(spec: SequenceSpec, horizon: int) -> Prefix:
    """Evaluate x(1..horizon) into a Prefix.

    A spec whose period (t, q) is shorter than the horizon, or that has
    breaks or a class rule and no period, gets a prefix read from its head,
    each entry evaluated at its first and its last position; the rest is
    evaluated only when its ``values`` are read."""
    n = whole(horizon, "horizon")
    cap = max_horizon()
    if n > cap:
        raise ResourceLimitError(f"horizon {n} exceeds the cap of {cap}")
    f = _evaluator(spec, n)
    period = spec.period()
    if period is not None and n > sum(period):
        return Prefix._from_head(f, n, spec.bound, period=period)
    breaks = None if period is not None else spec.breaks(n)
    if breaks is not None:
        return Prefix._from_head(f, n, spec.bound, runs=np.array([1, *breaks], dtype=np.int64) - 1)
    classes = spec.classes()
    # Any four terms hold two odd positions, both in class 1, so from four
    # terms on the head is shorter than the prefix.
    if classes is not None and n >= 4:
        return Prefix._from_head(f, n, spec.bound, classes=classes)
    return Prefix(values=_terms(f, 1, n + 1), horizon=n, bound=spec.bound, period=period)


def shift(spec: SequenceSpec, k: int) -> SequenceSpec:
    """Translate: the result y satisfies y(n) = x(n + k) for all n."""
    return dataclasses.replace(spec, shift=spec.shift + whole(k, "shift", low=0))
