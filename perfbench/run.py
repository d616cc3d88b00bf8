"""The seqdist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh single-threaded
worker processes (worker.py) that import ``seqdist`` from the checkout's
``src`` and drive ``seqdist.cli.main``.  Workloads are in workloads.py and
BENCHMARK.json.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: fresh interpreter to ``seqdist`` imported and inputs built,
  the median over several fresh processes;
* ``op_s_p50``: median wall seconds of one ``cli.main`` call, over every
  call of the run (the sample count is ``attempted``);
* ``terms_per_s``: sum of horizons over sum of call seconds;
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring process after its first
  round, which runs every operation once in the listed order.

The failure rate is ``failed / attempted``: a call fails on a nonzero exit
code or a failed output check (checks.py).  ``--trace 1`` prints the
per-layer metrics of layers.py and writes the spans to ``.perfbench/``.
The last line of stdout is one JSON object; a run that cannot measure
prints no such line and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170.0
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_worker(role: str, args, deadline: float) -> dict:
    """Start worker.py in a fresh interpreter; return its JSON result line."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--shrink", str(args.shrink),
        "--t0-ns", str(time.monotonic_ns()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD}, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {role} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=0,
                        help="divide every horizon by 2**SHRINK (for the smoke tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = run_worker("trace", args, deadline)
            metrics = result["metrics"]
        else:
            # Half the set-up probes run before the measuring process and half
            # after it, so that one slow stretch of the machine sways fewer.
            setups = [run_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            result = run_worker("measure", args, deadline)
            setups.append(result["setup_s"])
            setups += [run_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_s_p50": {"value": statistics.median(result["op_seconds"]), "unit": "s"},
                "terms_per_s": {"value": sum(result["horizons"]) / sum(result["op_seconds"]),
                                "unit": "1/s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            }
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_rate {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
