"""One benchmark process, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py --role setup|measure|trace --workload W \
        --seed S --t0-ns T [--seconds X] [--shrink K]

``T`` is ``time.monotonic_ns()`` just before the process was started, so
``setup_s`` runs from a fresh interpreter to ``seqdist`` imported and the
workload's inputs built.  ``setup`` stops there; ``measure`` then runs whole
rounds of CLI operations for at least ``X`` seconds and checks every report;
``trace`` makes the traced per-layer pass of layers.py.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench"
# Two rounds at least, so every operation has a repeat to compare bytes with.
MIN_ROUNDS = 2


def import_cli():
    """Import ``seqdist.cli`` from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import seqdist.cli

    if not Path(seqdist.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"seqdist came from {seqdist.cli.__file__}, not from {src}")
    return seqdist.cli


def run_op(cli, op, out_path: Path) -> tuple[int | None, float, str | None]:
    """One ``cli.main`` call: (exit code, wall seconds, report text)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        code = cli.main([*op.argv, "--out", str(out_path)])
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - t0
    text = out_path.read_text(encoding="utf-8") if code == 0 else None
    out_path.unlink(missing_ok=True)
    return code, seconds, text


def count_failures(calls, rng: random.Random) -> int:
    """Check every call; print what failed to stderr; return how many failed."""
    from checks import Reference, check_analyze, check_weights

    ref = Reference()
    first: dict[str, str] = {}
    failed = 0
    for op, code, _, text in calls:
        if code != 0:
            fails = [f"exit code {code}"]
        else:
            fails = [] if first.setdefault(op.key, text) == text else ["report differs from its repeat"]
            check = check_analyze if op.command == "analyze" else check_weights
            fails += check(op, text, ref, rng)
        if fails:
            failed += 1
            print(f"FAILED {op.key}: {'; '.join(fails)}", file=sys.stderr)
    return failed


def measure(cli, ops, seconds: float, rng: random.Random, out_path: Path) -> dict:
    """Whole rounds of operations until ``seconds`` have passed.

    The first round runs the operations in their listed order and the peak
    RSS is read after it: heap fragmentation, and with it the peak, depends
    on the order of operations.  Later rounds run in an order drawn from the
    seed.
    """
    calls = []
    order = list(ops)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for op in order:
            calls.append((op, *run_op(cli, op, out_path)))
        if rounds == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rng.shuffle(order)
        rounds += 1
    return {
        "op_seconds": [c[2] for c in calls],
        "horizons": [c[0].horizon for c in calls],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failed": count_failures(calls, rng),
    }


def traced(cli, ops, rng: random.Random, out_path: Path, trace_path: Path) -> dict:
    import layers

    metrics, record, calls = layers.trace(ops, lambda op: run_op(cli, op, out_path))
    trace_path.write_text(json.dumps(record), encoding="utf-8")
    metrics = {name: {"value": v, "unit": layers.PER_LAYER_UNITS[name]} for name, v in metrics.items()}
    return {"metrics": metrics, "attempted": len(calls), "failed": count_failures(calls, rng)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--shrink", type=int, default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    from workloads import operations

    ops = operations(args.workload, args.seed, args.shrink)
    result = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9}
    if args.role != "setup":
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        out_path = OUT_DIR / f"report-{stem}.jsonl"
        rng = random.Random(args.seed)
        if args.role == "measure":
            result.update(measure(cli, ops, args.seconds, rng, out_path))
        else:
            result.update(traced(cli, ops, rng, out_path, OUT_DIR / f"trace-{stem}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
