"""The benchmark's workloads: which ``seqdist`` CLI operations one run makes.

Fixtures and horizons are fixed per workload, so the work in a run does not
depend on the seed.  The seed draws the ``weights-query`` regions and the
order of operations in every round after the first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Why each workload exists (also listed in BENCHMARK.json):
# * analyze-dense: many labels (F5 has 32 sub-limit clusters plus 16 + 64
#   occupied quantization cells = 112 one-label counting passes), so the
#   per-label loops in `weights` and `distribution` dominate.
# * analyze-sparse: at most 2 values per fixture, so at most 6 labels per
#   operation; time goes to materializing, the window kernel, `np.unique`
#   and the Cesaro profile.  F6 takes the not-almost-convergent path.
# * weights-query: overlapping intervals that no disjoint-label kernel can
#   serve, with every schedule row reported; no clustering or quantization.
WORKLOADS: dict[str, tuple[tuple[str, int], ...]] = {
    "analyze-dense": (("F5", 10**6), ("F7", 2**20)),
    "analyze-sparse": (("F1", 2**21), ("F4", 2**21), ("F6", 2**21)),
    "weights-query": (("F5", 2**21),),
}

QUERY_INTERVALS = 32
QUERY_EPSILON = 0.05
TOLERANCE_GAP = 0.02


@dataclass(frozen=True)
class Operation:
    """One ``cli.main`` call; ``argv`` lacks only the ``--out`` path.

    ``regions`` maps each weights-query label, as the report prints it, to
    the half-open interval it names.
    """

    key: str
    command: str
    fixture: str
    horizon: int
    argv: tuple[str, ...]
    regions: tuple[tuple[str, float, float], ...] = ()


def _query_regions(rng: random.Random) -> tuple[list[str], list[tuple[str, float, float]]]:
    args: list[str] = []
    regions: list[tuple[str, float, float]] = []
    for _ in range(QUERY_INTERVALS):
        lo = round(rng.uniform(0.0, 0.8), 4)
        hi = round(min(lo + rng.uniform(0.05, 0.5), 1.0), 4)
        args += ["--interval", f"{lo!r}:{hi!r}"]
        regions.append((f"[{lo!r}, {hi!r})", lo, hi))
    v = round(rng.uniform(0.1, 0.9), 4)
    args += ["--value", repr(v), "--epsilon", repr(QUERY_EPSILON)]
    regions.append((f"[{v!r} +/- {QUERY_EPSILON!r})", v - QUERY_EPSILON, v + QUERY_EPSILON))
    return args, regions


def operations(workload: str, seed: int, shrink: int = 0) -> list[Operation]:
    """The distinct operations of ``workload``; horizons are divided by 2**shrink."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(seed)
    ops = []
    for fixture, full_horizon in WORKLOADS[workload]:
        horizon = full_horizon >> shrink
        common = ["--fixture", fixture, "--horizon", str(horizon),
                  "--tolerance-gap", repr(TOLERANCE_GAP), "--format", "jsonl"]
        if workload == "weights-query":
            extra, regions = _query_regions(rng)
            ops.append(Operation(f"weights {fixture} {horizon}", "weights", fixture, horizon,
                                 tuple(["weights", *common, *extra]), tuple(regions)))
        else:
            ops.append(Operation(f"analyze {fixture} {horizon}", "analyze", fixture, horizon,
                                 tuple(["analyze", *common])))
    return ops

