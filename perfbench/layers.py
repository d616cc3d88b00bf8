"""Traced run: spans and work counts for each layer of ``seqdist``.

For every operation of a workload the traced run makes

1. one ``cli.main`` call inside a span, with ``materialize`` wrapped so that
   the calls the CLI makes into the ``sequences`` layer are counted and
   timed as child spans; the ``sequences.*`` metrics describe these calls;
2. one plain ``cli.main`` call on the same inputs, made first, for the
   tracing overhead;
3. one separate call to each public layer function the operation relies on,
   on the same inputs, each inside its own span.  Work counts come from the
   objects these calls return;
4. a memory pass of its own: the ``tracemalloc`` peak of each separate call.
   ``tracemalloc`` slows the per-label loops several-fold, so it never runs
   while spans are timed, and ``cross_validate`` (the sum of its parts, and
   the slowest call under ``tracemalloc``) is left out of it.

Times and counts are summed over the workload's operations; peaks are the
maximum over them.  Layers an operation does not use report 0.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

from seqdist import (
    DEFAULT_MESHES,
    IntervalSet,
    Membership,
    Partition,
    WindowSchedule,
    banach_limit_via_quantization,
    cesaro_profile,
    cross_validate,
    density_profile,
    detect_sublimits,
    fixture,
    is_simply_distributed,
    lorentz_verdict,
    materialize,
    quantize,
    set_weight,
)

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
SPAN_TIMES = (
    "sequences.materialize",
    "windows.cesaro_profile",
    "windows.density_profile",
    "weights.detect_sublimits",
    "distribution.quantize",
    "distribution.is_simply_distributed",
    "distribution.banach_limit_via_quantization",
    "distribution.set_weight",
    "lorentz.lorentz_verdict",
    "lorentz.cross_validate",
    "cli.main",
)
PEAK_SPANS = tuple(s for s in SPAN_TIMES if s not in ("lorentz.cross_validate", "cli.main"))
COUNTS = {
    "sequences.materialize_calls": "count",
    "sequences.bytes": "B",
    "windows.offsets": "count",
    "weights.clusters": "count",
    "weights.label_offsets": "count",
    "distribution.cells": "count",
    "distribution.cell_offsets": "count",
    "distribution.regions": "count",
    "cli.report_bytes": "B",
}
DERIVED_TIMES = ("lorentz.cross_validate_unaccounted_s", "cli.self_s", "trace.overhead_s")
PER_LAYER_UNITS = {
    **{f"{s}_s": "s" for s in SPAN_TIMES},
    **{t: "s" for t in DERIVED_TIMES},
    **COUNTS,
    **{f"{s}_peak_mb": "MiB" for s in PEAK_SPANS},
}


class Tracer:
    """Spans (name, start, end, parent, operation id), kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, parent: int, name: str) -> float:
        """Total duration of the direct children of ``parent`` called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == parent and s["name"] == name)


@contextmanager
def counted_materialize(tracer: Tracer, op: int):
    """Count, size and time every ``materialize`` call made by the package.

    Yields the list of ``values.nbytes`` of each prefix built.
    """
    original = materialize
    sizes: list[int] = []

    def wrapped(spec, horizon):
        with tracer.span("sequences.materialize", op):
            prefix = original(spec, horizon)
        sizes.append(int(prefix.values.nbytes))
        return prefix

    modules = [
        m for name, m in list(sys.modules.items())
        if name.split(".")[0] == "seqdist" and getattr(m, "materialize", None) is original
    ]
    for m in modules:
        m.materialize = wrapped
    try:
        yield sizes
    finally:
        for m in modules:
            m.materialize = original


def layer_calls(op, call) -> dict:
    """Call each public layer function ``op`` relies on through ``call``.

    ``call(name, fn, *args, **kwargs)`` runs ``fn`` and returns its result,
    or None when it skips it.  Returns the work counts of this operation.
    """
    spec = fixture(op.fixture)
    sched = WindowSchedule.geometric(op.horizon)
    p = call("sequences.materialize", materialize, spec, op.horizon)
    member = Membership.from_mask(p.values < p.bound / 2)
    profile = call("windows.density_profile", density_profile, member, sched)
    offsets = sum(row.offsets_scanned for row in profile.rows)
    counts = {"windows.offsets": offsets}
    if op.command == "weights":
        for _, lo, hi in op.regions:
            call("distribution.set_weight", set_weight, p, IntervalSet(intervals=((lo, hi),)), sched)
        counts["distribution.regions"] = len(op.regions)
        return counts
    call("windows.cesaro_profile", cesaro_profile, p, sched)
    call("lorentz.lorentz_verdict", lorentz_verdict, p, sched)
    report = call("weights.detect_sublimits", detect_sublimits, p, p.bound / 32, schedule=sched)
    cells = 0
    for mesh in DEFAULT_MESHES:
        part = Partition.with_mesh(-p.bound, p.bound, mesh)
        q = call("distribution.quantize", quantize, p, part)
        simple = call(
            "distribution.is_simply_distributed", is_simply_distributed,
            q, 0.0, sched, value_cap=len(part.points),
        )
        cells += simple.distinct_count
    call("distribution.banach_limit_via_quantization", banach_limit_via_quantization,
         spec, op.horizon, schedule=sched)
    call("lorentz.cross_validate", cross_validate, spec, op.horizon, schedule=sched)
    counts.update({
        "weights.clusters": len(report.clusters),
        "weights.label_offsets": len(report.clusters) * offsets,
        "distribution.cells": cells,
        "distribution.cell_offsets": cells * offsets,
    })
    return counts


def _peak_mib(peaks: dict, name: str, fn, *args, **kwargs):
    if name not in PEAK_SPANS:
        return None
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    peaks[name] = max(peaks.get(name, 0.0), peak)
    return result


def _op_metrics(tracer: Tracer, top: dict, cli_span: dict, op, counts: dict) -> dict:
    """This operation's share of every per-layer time and count."""
    seconds = {name: tracer.seconds(top["id"], name) for name in SPAN_TIMES}
    separate_materialize = seconds["sequences.materialize"]
    seconds["sequences.materialize"] = tracer.seconds(cli_span["id"], "sequences.materialize")
    if op.command == "analyze":
        library = seconds["lorentz.cross_validate"]
        unaccounted = library - separate_materialize - sum(
            seconds[n] for n in ("lorentz.lorentz_verdict", "weights.detect_sublimits",
                                 "distribution.banach_limit_via_quantization"))
    else:
        library = separate_materialize + seconds["distribution.set_weight"]
        unaccounted = 0.0
    return {
        **{f"{name}_s": value for name, value in seconds.items()},
        "lorentz.cross_validate_unaccounted_s": unaccounted,
        "cli.self_s": seconds["cli.main"] - library,
        **counts,
    }


def trace(ops, run_op) -> tuple[dict, dict, list]:
    """Run the traced pass and then the memory pass over ``ops``.

    ``run_op(op) -> (exit_code, seconds, report_text)`` makes one CLI call.
    Returns the per-layer metric values, the trace record to write out, and
    every CLI call made as ``(op, exit_code, seconds, report_text)``.
    """
    tracer = Tracer()
    totals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    calls, traced, plain, per_op = [], [], [], []
    for i, op in enumerate(ops):
        with tracer.span(op.key, i) as top:
            calls.append((op, *run_op(op)))
            plain.append(calls[-1][2])
            with tracer.span("cli.main", i) as cli_span, counted_materialize(tracer, i) as sizes:
                calls.append((op, *run_op(op)))
            traced.append(cli_span["end"] - cli_span["start"])

            def timed(name, fn, *args, **kwargs):
                with tracer.span(name, i):
                    return fn(*args, **kwargs)

            counts = layer_calls(op, timed)
        counts["sequences.materialize_calls"] = len(sizes)
        counts["sequences.bytes"] = sum(sizes)
        counts["cli.report_bytes"] = len((calls[-1][3] or "").encode())
        metrics = _op_metrics(tracer, top, cli_span, op, counts)
        for name, value in metrics.items():
            totals[name] += value
        per_op.append({"op": op.key, "metrics": metrics})

    for i, op in enumerate(ops):
        peaks: dict = {}
        layer_calls(op, lambda name, fn, *a, **kw: _peak_mib(peaks, name, fn, *a, **kw))
        per_op[i]["peak_mib"] = peaks
        for name, peak in peaks.items():
            totals[f"{name}_peak_mb"] = max(totals[f"{name}_peak_mb"], peak)

    totals["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return totals, {"spans": tracer.spans, "per_op": per_op}, calls
