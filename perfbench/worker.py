"""One benchmark process: set up a workload, run its jobs, print one JSON line.

Started by ``run.py`` with ``--t0-ns``, the monotonic clock reading taken
just before this process was spawned, so that ``setup_s`` covers
interpreter start, ``import permalg`` and building the seeded inputs.

Modes:
  --setup-only   stop after set-up and report ``setup_s``;
  --trace 0      run episodes for ``--seconds`` and report job latencies;
  --trace 1      run the workload's fixed traced job set once untraced and
                 twice traced, check that every count repeats exactly, and
                 report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)


# at least ten latency samples beyond the 90th percentile
MIN_JOBS = 100


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


_reported = 0


def run_job(job: workloads.Job) -> bool:
    """True when the job ran and its exactness check passed."""
    global _reported
    try:
        return bool(job.run())
    except Exception:  # a failing job is counted, the run goes on
        if _reported < 3:
            _reported += 1
            print(f"job {job.kind} raised:", file=sys.stderr)
            traceback.print_exc()
        return False


def peak_rss_mb(wl: workloads.Workload) -> float:
    who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(wl: workloads.Workload, caches: workloads.SliceCaches, seconds: float) -> dict:
    """Closed loop over the episodes, in order and repeating, until
    ``seconds`` have passed, every job ran at least once and at least
    ``MIN_JOBS`` jobs ran; each episode starts with empty slice caches.

    The machine the benchmark was tuned on runs the same work up to twice as
    fast at some times as at others, while the fastest runs of a short piece
    of work stay within a few percent of each other.  So each job's latency
    is the minimum of its repeats in the run, and the metrics are taken over
    these minima: ``job_p50_ms`` and ``job_p90_ms`` across the jobs, and
    ``jobs_per_s`` as the closed-loop throughput, the number of jobs over
    the sum of their latencies (times the share that passed).
    """
    offsets = [0]
    for episode in wl.episodes:
        offsets.append(offsets[-1] + len(episode))
    samples: list[list[float]] = [[] for _ in range(offsets[-1])]
    attempted = failed = 0
    deadline = monotonic_ns() + int(seconds * 1e9)

    def done() -> bool:
        return monotonic_ns() >= deadline and attempted >= max(MIN_JOBS, len(samples))

    episode = 0
    while not done():
        index = episode % len(wl.episodes)
        caches.clear()
        for i, job in enumerate(wl.episodes[index]):
            t0 = time.perf_counter_ns()
            failed += not run_job(job)
            samples[offsets[index] + i].append((time.perf_counter_ns() - t0) / 1e6)
            attempted += 1
            if done():
                break
        episode += 1
    latencies = [min(s) for s in samples]
    return {
        "attempted": attempted,
        "failed": failed,
        "jobs": len(latencies),
        "repeats": min(len(s) for s in samples),
        "jobs_per_s": len(latencies) / (sum(latencies) / 1e3) * (attempted - failed) / attempted,
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": peak_rss_mb(wl),
    }


# ---------------------------------------------------------------------------
# traced run


def fixed_pass(wl, caches, tracer=None) -> tuple[float, int, int]:
    """Run the fixed traced job set once; returns (wall s, attempted, failed)."""
    caches.reset_totals()
    if wl.cli:
        wl.cli.child_s.clear()
        wl.cli.inproc_s.clear()
    attempted = failed = 0
    start = time.perf_counter_ns()
    for episode in wl.episodes[: wl.traced_episodes]:
        caches.clear()
        for job in episode:
            if tracer:
                tracer.open(f"job:{job.kind}")
            try:
                failed += not run_job(job)
            finally:
                if tracer:
                    tracer.close()
            attempted += 1
    wall = (time.perf_counter_ns() - start) / 1e9
    caches.clear()
    return wall, attempted, failed


def _median_wall(argv: list[str], env: dict, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_layers(wl: workloads.Workload) -> dict[str, float]:
    """Process-start costs, and the untraced pass's child vs in-process times."""
    env = wl.cli.env
    bare = _median_wall([sys.executable, "-c", "pass"], env)
    imported = _median_wall([sys.executable, "-c", "import permalg.cli"], env)
    child, inproc = sum(wl.cli.child_s), sum(wl.cli.inproc_s)
    return {
        "cli.interp_start_s": bare,
        "cli.import_s": imported - bare,
        "cli.inproc_s": statistics.median(wl.cli.inproc_s),
        "cli.process_overhead_frac": (child - inproc) / child,
    }


# (metric, unit, span, what): what is "calls", "self_s" or a count name
SPAN_METRICS = [
    ("perm.mul_calls", "count", "perm.mul", "calls"),
    ("perm.mul_self_s", "s", "perm.mul", "self_s"),
    ("perm.mul_terms_out", "count", "perm.mul", "perm.mul_terms_out"),
    ("perm.add_calls", "count", "perm.add", "calls"),
    ("perm.add_self_s", "s", "perm.add", "self_s"),
    ("linalg.span_add_calls", "count", "linalg.span_add", "calls"),
    ("linalg.span_add_accepted", "count", "linalg.span_add", "linalg.span_add_accepted"),
    ("linalg.span_add_self_s", "s", "linalg.span_add", "self_s"),
    ("linalg.witness_for_calls", "count", "linalg.witness_for", "calls"),
    ("linalg.witness_for_self_s", "s", "linalg.witness_for", "self_s"),
    ("expr.sum_init_calls", "count", "expr.sum_init", "calls"),
    ("expr.sum_init_self_s", "s", "expr.sum_init", "self_s"),
    ("expr.expand_self_s", "s", "expr.expand", "self_s"),
    ("expr.check_identity_calls", "count", "expr.check_identity", "calls"),
    ("expr.check_identity_self_s", "s", "expr.check_identity", "self_s"),
    ("expr.substitutions", "count", "expr.substitute", "calls"),
    ("parser.parse_calls", "count", "parser.parse", "calls"),
    ("parser.parse_self_s", "s", "parser.parse", "self_s"),
    ("lie.is_lie_self_s", "s", "lie.is_lie", "self_s"),
    ("lie.express_self_s", "s", "lie.express", "self_s"),
    ("lie.oracle_self_s", "s", "lie.oracle", "self_s"),
    ("jordan.express_calls", "count", "jordan.express", "calls"),
    ("jordan.express_self_s", "s", "jordan.express", "self_s"),
    ("jordan.ideal_self_s", "s", "jordan.ideal", "self_s"),
    ("jordan.sj_span_self_s", "s", "jordan.sj_span", "self_s"),
    ("jordan.to_bn_self_s", "s", "jordan.to_bn", "self_s"),
    ("envelope.construct_self_s", "s", "envelope.construct", "self_s"),
    ("envelope.nf_calls", "count", "envelope.nf", "calls"),
    ("envelope.nf_self_s", "s", "envelope.nf", "self_s"),
    ("envelope.nf_terms_in", "count", "envelope.nf", "envelope.nf_terms_in"),
    ("envelope.nf_terms_out", "count", "envelope.nf", "envelope.nf_terms_out"),
    ("envelope.compositions_self_s", "s", "envelope.compositions", "self_s"),
    ("envelope.embed_check_self_s", "s", "envelope.embed_check", "self_s"),
]
CLI_UNITS = {
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    "cli.inproc_s": "s",
    "cli.process_overhead_frac": "ratio",
}


def layer_metrics(tracer, caches, cli: dict | None) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the reasons for those
    reported as absent (their value is then 0)."""
    metrics: dict[str, dict] = {}
    absent: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name, unit, span, what in SPAN_METRICS:
        if not tracer.calls[span]:
            absent[name] = f"no {span} span on this workload"
        if what == "calls":
            put(name, tracer.calls[span], unit)
        elif what == "self_s":
            put(name, tracer.self_ns[span] / 1e9, unit)
        else:
            put(name, tracer.counts[what], unit)
    calls = tracer.calls["linalg.span_add"]
    put("linalg.span_add_useful_ratio", tracer.counts["linalg.span_add_accepted"] / calls if calls else 0, "ratio")
    if not calls:
        absent["linalg.span_add_useful_ratio"] = "no linalg.span_add span on this workload"
    for layer in ("lie", "jordan"):
        lookups = caches.lookups[layer]
        put(f"{layer}.cache_hit_ratio", caches.hits[layer] / lookups if lookups else 0, "ratio")
        put(f"{layer}.cache_entries", caches.peak_entries[layer], "count")
        if layer not in caches.caches:
            reason = f"the memoised {layer} slice closure no longer exists"
        elif not lookups:
            reason = f"no {layer} slice lookups on this workload"
        else:
            continue
        absent[f"{layer}.cache_hit_ratio"] = absent[f"{layer}.cache_entries"] = reason
    for name, unit in CLI_UNITS.items():
        put(name, cli[name] if cli else 0, unit)
        if not cli:
            absent[name] = "measured on the cli workload only"
    return metrics, absent


def traced_run(wl: workloads.Workload, caches, workload: str, seed: int) -> dict:
    import tracer as tracing

    # two untraced passes (the first also warms the process); the overhead
    # compares the best untraced wall with the best traced wall
    walls, attempted, failed = [], 0, 0
    for _ in range(2):
        wall, n, bad = fixed_pass(wl, caches)
        walls.append(wall)
        attempted += n
        failed += bad
    untraced_wall = min(walls)
    cli = cli_layers(wl) if wl.cli else None
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, n, bad = fixed_pass(wl, caches, tracer)
        finally:
            tracer.uninstall()
        attempted += n
        failed += bad
        metrics, absent = layer_metrics(tracer, caches, cli)
        passes.append((tracer, wall, metrics, absent))
    tracer, wall, metrics, absent = passes[0]
    traced_wall = min(p[1] for p in passes)
    metrics["trace.overhead_frac"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
    counts = [
        {k: v["value"] for k, v in p[2].items() if v["unit"] == "count" or k.endswith("_ratio")}
        for p in passes
    ]
    repeat = counts[0] == counts[1]
    if not repeat:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        print(f"traced counts differ between two passes: {diff}", file=sys.stderr)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "counts_repeat": repeat,
        "untraced_wall_s": walls,
        "traced_wall_s": [p[1] for p in passes],
        "metrics": metrics,
        "absent": absent,
        "spans_by_name": tracer.summary(),
        "counts": dict(tracer.counts),
        "edges": [[a, b, n] for (a, b), n in sorted(tracer.edges.items())],
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
    }
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {
        "attempted": attempted,
        "failed": failed,
        "counts_repeat": repeat,
        "metrics": metrics,
        "absent": absent,
        "trace_file": str(path.relative_to(ROOT)),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, ROOT)
    caches = workloads.SliceCaches()
    # the inputs live for the whole run: keep them out of the collector's
    # scans, so that collection costs reflect the library's own objects
    gc.collect()
    gc.freeze()
    setup_s = (monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        result = {}
    elif args.trace:
        result = traced_run(wl, caches, args.workload, args.seed)
    else:
        result = timed_run(wl, caches, args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
