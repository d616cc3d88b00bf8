"""Plain answers to questions that ``Prefix`` reads from its head, for the
tests to compare with.

Each is computed from the filled terms or from a prefix's layout attributes
(``horizon``, ``period``, ``runs``, ``classes``, ``strides``) with numpy
alone, and calls no other library code.
"""

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
