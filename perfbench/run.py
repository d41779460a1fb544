"""Benchmark of permalg: seeded workloads, exact checks, end-to-end and
per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 55 --trace 0

Workloads: ``closure`` (witnessed slice closures and ``Span``) and ``cli``
(one ``python -m permalg`` child process per command).  ``BENCHMARK.json`` at
the root lists them with the reason each was chosen, and the metrics.

``--trace 0`` starts one worker that runs jobs closed loop for
``--seconds`` seconds, with set-up-only workers before and after it
(``setup_s`` is their median together with the measuring worker's own
set-up, so that a slow stretch of the machine moves few of them), and
prints every end-to-end metric.  ``--trace 1`` runs the workload's fixed job set
untraced twice and traced twice, checks that every per-layer count repeats
exactly, writes the spans to ``perfbench/out/`` and prints every per-layer
metric.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-up-only workers before the timed worker, and as many after it
WORKER_TIMEOUT_S = 170


def worker(args: list[str]) -> dict:
    """Spawn one worker process and return the JSON object it prints."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0-ns", str(t0)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    missing = [p for p in ("src/permalg/__init__.py", "algebras/heisenberg.json") if not (ROOT / p).is_file()]
    spec_path = ROOT / "BENCHMARK.json"
    if missing or not spec_path.is_file():
        print(f"not a permalg source checkout: missing {missing or ['BENCHMARK.json']}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = worker([*common, "--trace", "1"])
            wanted = spec["per_layer"]
            values = {name: m["value"] for name, m in result["metrics"].items()}
            correct = result["failed"] == 0 and result["counts_repeat"]
        else:
            setups = [worker([*common, "--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
            result = worker([*common, "--seconds", str(args.seconds), "--trace", "0"])
            setups.append(result["setup_s"])
            setups += [worker([*common, "--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
            wanted = spec["end_to_end"]
            values = {name: result[name] for name in ("jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups)
            correct = result["failed"] == 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"permalg benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        note = result.get("absent", {}).get(name)
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}" + (f"  (absent: {note})" if note else ""))
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} jobs)")
    if args.trace:
        print(f"  counts repeat across two traced passes: {result['counts_repeat']}")
        print(f"  spans written to {result['trace_file']}")
    else:
        print(
            f"  job latency samples: {attempted} over {result['jobs']} distinct jobs, each run at least"
            f" {result['repeats']} times; set-up samples: {len(setups)}"
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
