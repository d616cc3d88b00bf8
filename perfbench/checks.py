"""Output checks that do not use the code under test.

Fixture values, sub-limit clusters and window counts are recomputed here from
their definitions (the README fixture table and the clustering rule that
``detect_sublimits`` documents), with numpy only.  Each ``check_*`` function
returns a list of failure messages; an empty list means the report passed.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from workloads import TOLERANCE_GAP

# README fixture table: Lorentz verdict and, where it exists, the limit.
EXPECTED_VERDICT = {
    "F1": "almost-convergent",
    "F4": "almost-convergent",
    "F5": "almost-convergent",
    "F6": "not-almost-convergent",
    "F7": "almost-convergent",
}
KNOWN_LIMITS = {"F1": 0.0, "F4": 1.0 / 3.0, "F5": 0.5, "F7": math.log(2.0)}
# Every fixture used here takes values in [0, 1], so its certified bound is 1.
BOUND = 1.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fixture_values(name: str, horizon: int) -> np.ndarray:
    """x(1..horizon) of a fixture, built from its definition."""
    n = np.arange(1, horizon + 1, dtype=np.int64)
    if name == "F1":
        return np.where(n <= 3, 1.0, 0.0)
    if name == "F4":
        return np.tile(np.array([1.0, 0.0, 0.0]), horizon // 3 + 1)[:horizon]
    if name == "F5":
        v = n.astype(np.float64) * GOLDEN
        return v - np.floor(v)
    if name == "F6":
        blocks = [np.full(2**t, float(t % 2)) for t in range(horizon.bit_length())]
        return np.concatenate(blocks)[:horizon]
    if name == "F7":
        x = np.empty(horizon)
        for j in range(1, horizon.bit_length() + 1):
            x[2 ** (j - 1) - 1 :: 2**j] = 1.0 / j
        return x
    raise ValueError(f"no independent definition for fixture {name!r}")


def cluster_labels(values: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-term cluster label and per-cluster center, by the greedy rule.

    Distinct values are visited in decreasing occurrence order (ties toward
    smaller values); each unassigned seed takes every unassigned value in
    [seed - epsilon, seed + epsilon).  Centers are means over member terms.
    """
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    label = np.full(uniq.size, -1, dtype=np.int64)
    unassigned = [True] * uniq.size
    k = 0
    for u in np.lexsort((uniq, -counts)).tolist():
        if not unassigned[u]:
            continue
        lo = int(np.searchsorted(uniq, uniq[u] - epsilon, side="left"))
        hi = int(np.searchsorted(uniq, uniq[u] + epsilon, side="left"))
        span = label[lo:hi]
        span[span < 0] = k
        unassigned[lo:hi] = [False] * (hi - lo)
        k += 1
    term_label = label[inverse]
    centers = np.bincount(term_label, weights=values) / np.bincount(term_label)
    return term_label, centers


def window_extrema(mask: np.ndarray, n: int) -> tuple[int, int]:
    """(min, max) member count over every length-n window inside the prefix."""
    csum = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    counts = csum[n:] - csum[:-n]
    return int(counts.min()), int(counts.max())


class Reference:
    """Independent fixture values and clusters, computed once per fixture."""

    def __init__(self):
        self._values: dict[tuple[str, int], np.ndarray] = {}
        self._clusters: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    def values(self, fixture: str, horizon: int) -> np.ndarray:
        key = (fixture, horizon)
        if key not in self._values:
            self._values[key] = fixture_values(fixture, horizon)
        return self._values[key]

    def clusters(self, fixture: str, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        key = (fixture, horizon)
        if key not in self._clusters:
            # cross_validate's default sub-limit epsilon is bound / 32.
            self._clusters[key] = cluster_labels(self.values(fixture, horizon), BOUND / 32)
        return self._clusters[key]


def _rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def _one(rows: list[dict], record: str) -> dict | None:
    found = [r for r in rows if r.get("record") == record]
    return found[0] if len(found) == 1 else None


def _recount(row: dict, mask: np.ndarray, what: str) -> list[str]:
    got = window_extrema(mask, int(row["n"]))
    if got != (row["min_count"], row["max_count"]):
        return [f"{what} n={row['n']}: report {row['min_count']},{row['max_count']}, recount {got}"]
    return []


def check_analyze(op, text: str, ref: Reference, rng: random.Random) -> list[str]:
    """Verdict, limit, consistency and one recounted sub-limit window row."""
    rows = _rows(text)
    fails = []
    lorentz = _one(rows, "lorentz")
    if lorentz is None or lorentz["verdict"] != EXPECTED_VERDICT[op.fixture]:
        fails.append(f"lorentz verdict {lorentz and lorentz['verdict']!r}")
    quant = _one(rows, "quantization")
    limit = KNOWN_LIMITS.get(op.fixture)
    if quant is None:
        fails.append("no quantization row")
    elif limit is not None and not abs(quant["point"] - limit) <= quant["error_bound"]:
        fails.append(f"quantization {quant['point']} +/- {quant['error_bound']} misses {limit}")
    consistency = _one(rows, "consistency")
    if consistency is None or consistency["consistent"] is not True:
        fails.append("routes not consistent")
    windows = [r for r in rows if r.get("record") == "sublimit_window"]
    if not windows:
        return fails + ["no sub-limit window rows"]
    row = rng.choice(windows)
    labels, centers = ref.clusters(op.fixture, op.horizon)
    distance = np.abs(centers - row["center"])
    k = int(np.argmin(distance))
    if distance[k] > 1e-9:
        return fails + [f"no recomputed cluster has center {row['center']}"]
    return fails + _recount(row, labels == k, f"cluster {row['center']}")


def check_weights(op, text: str, ref: Reference, rng: random.Random) -> list[str]:
    """Tail weights near each region's length and one recounted window row."""
    rows = _rows(text)
    fails = []
    regions = {label: (lo, hi) for label, lo, hi in op.regions}
    weights = {r["label"]: r for r in rows if r.get("record") == "weight"}
    if set(weights) != set(regions):
        fails.append(f"report labels {sorted(weights)} differ from the queried regions")
    for label in sorted(weights.keys() & regions.keys()):
        w, (lo, hi) = weights[label], regions[label]
        # F5 is uniformly distributed, so every region weighs its length.
        if max(abs(w["w_l"] - (hi - lo)), abs(w["w_u"] - (hi - lo))) > TOLERANCE_GAP:
            fails.append(f"{label}: tail weights [{w['w_l']}, {w['w_u']}] vs length {hi - lo}")
    windows = [r for r in rows if r.get("record") == "weight_window"]
    if not windows:
        return fails + ["no weight window rows"]
    row = rng.choice(windows)
    if row["label"] not in regions:
        return fails + [f"window row for unknown region {row['label']}"]
    lo, hi = regions[row["label"]]
    x = ref.values(op.fixture, op.horizon)
    return fails + _recount(row, (x >= lo) & (x < hi), row["label"])
