"""Plain answers to questions that the library answers fast, for the tests
to compare with.

Each is computed from the filled terms, from a prefix's layout attributes
(``horizon``, ``period``, ``runs``, ``classes``, ``strides``) or from a
spec's ``breaks``, with numpy or Python integers and ``Fraction``s alone,
and calls no other library code.
"""

from fractions import Fraction

import numpy as np


def entry_map(p) -> np.ndarray:
    """Index into ``p.head`` of the entry that each of the N terms of ``p``
    repeats, as int64.

    Past a period's transient t, term k repeats entry t + (k - t) mod q; a
    prefix of runs or classes writes each entry's index into its progression
    of terms (``strides``); a head of all N terms is the terms themselves.
    """
    k = np.arange(p.horizon)
    if p.period is not None:
        t, q = p.period
        return np.where(k < t, k, t + (k - t) % q)
    if p.runs is None and p.classes is None:
        return k
    out = np.full(p.horizon, -1, dtype=np.int64)
    for i, (first, step, terms) in enumerate(zip(*p.strides)):
        out[first : first + terms * step : step] = i
    assert (out >= 0).all(), "the progressions leave a term without an entry"
    return out


def last_terms(values: np.ndarray, uniq: np.ndarray, starts) -> np.ndarray:
    """1-based index of the last of ``values`` that lies in each run
    ``uniq[starts[g]:starts[g + 1]]`` of the sorted distinct values (the last
    run ends at the last value), 0 for a run with no such term, as int64."""
    ends = [*list(starts)[1:], uniq.size]
    out = np.zeros(len(ends), dtype=np.int64)
    for g, (a, b) in enumerate(zip(starts, ends)):
        hits = np.flatnonzero((values >= uniq[a]) & (values <= uniq[b - 1]))
        if hits.size:
            out[g] = hits[-1] + 1
    return out


def run_count_rows(spec, flagged, N, lengths) -> list[tuple[int, int, int]]:
    """(n, min, max) window counts, for each n in ``lengths``, of the first
    N terms of ``spec`` that lie in a flagged run, in Python integers.

    The runs are cut at ``spec.breaks(N)``: run k holds the 1-based terms
    from its start (1, then each break) up to the next start or N, and
    ``flagged[k]`` says whether its terms are counted.  For a fixed n the
    count of the window at 0-based offset i is piecewise linear in i, and
    breaks only where i or i + n crosses a run edge, so its extremes lie at
    those offsets and at the two ends 0 and N - n.  Each is a sum of the
    flagged runs' overlaps with the window.
    """
    edges = [0, *(b - 1 for b in spec.breaks(N)), N]
    assert len(flagged) == len(edges) - 1, "one flag per run"
    runs = [(a, b) for (a, b), f in zip(zip(edges, edges[1:]), flagged) if f]
    rows = []
    for n in lengths:
        last = N - n
        offsets = {0, last, *(e for e in edges if e <= last), *(e - n for e in edges if e >= n)}
        counts = [sum(max(min(b, i + n) - max(a, i), 0) for a, b in runs) for i in offsets]
        rows.append((n, min(counts), max(counts)))
    return rows


def fraction_estimate(rows, tolerances) -> dict:
    """The weight estimate of count rows (each with ``n``, ``min_count`` and
    ``max_count``) as ``Fraction`` arithmetic gives it: w_l_hat, w_u_hat and
    gap exact, the tail's densities and the last two rows' movement compared
    with the tolerances as ``Fraction``s."""
    k = min(tolerances.tail_rows, len(rows))
    tail = rows[-k:]
    w_u = max(Fraction(r.max_count, r.n) for r in tail)
    w_l = min(Fraction(r.min_count, r.n) for r in tail)
    gap = w_u - w_l
    if len(tail) >= 2:
        a, b = tail[-2], tail[-1]
        trend_ok = (
            abs(Fraction(b.max_count, b.n) - Fraction(a.max_count, a.n)) <= tolerances.trend
            and abs(Fraction(b.min_count, b.n) - Fraction(a.min_count, a.n)) <= tolerances.trend
        )
    else:
        trend_ok = True
    return {
        "w_l_hat": w_l,
        "w_u_hat": w_u,
        "gap": gap,
        "converged": bool(gap <= tolerances.gap and trend_ok),
        "tail_rows_used": k,
    }
