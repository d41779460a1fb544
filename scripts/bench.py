#!/usr/bin/env python3
"""Per-layer timings of ``benchmarks/test_layers.py`` as one JSON file.

Runs the layer benchmarks under pytest-benchmark and writes, for each
layer, the minimum and median time of one round in seconds and the number
of rounds, with the Python version, the CPU count and the commit::

    python scripts/bench.py --out BENCH_17.json
    python scripts/bench.py --out one.json -k perm_mul

With ``--baseline REV`` it also exports the commit ``REV`` with ``git
archive`` into a temporary directory and runs the two trees' layers
alternately, ``--pairs`` times each, every tree with its own source and
its own ``benchmarks/``.  Each layer both trees have then gets the
baseline's minimum over all its runs (``baseline_min_s``) and
``ratio = min_s / baseline_min_s``, below 1 when this tree is faster.  A
layer only this tree has is run from this tree's ``benchmarks/`` against
the baseline's source, once per pair and alternating with the other runs,
and paired with those runs.  When that run fails, say because the layer
uses API the baseline lacks, the layer is written without a ratio and
named on stderr::

    python scripts/bench.py --out BENCH_21.json --baseline HEAD~1 --pairs 5

``tree_clean`` is False when ``src/`` or ``benchmarks/`` differ from the
commit.  Compare minima, and between two commits only paired minima from
one run of this script: the machine's other load only adds to a round,
and it drifts over hours by more than most code changes move a layer.
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LAYERS = "benchmarks/test_layers.py"


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_layers(tree: Path, chosen: list[str], scratch: Path, src: Path | None = None) -> dict | None:
    """One pytest-benchmark run, from ``tree``, of the layers the pytest
    arguments ``chosen`` name, against ``src`` (``tree``'s own source by
    default): ``{layer: {"min_s", "median_s", "rounds"}}``, or None when
    the run fails."""
    raw = scratch / "benchmark.json"
    path = os.pathsep.join(filter(None, [str(src or tree / "src"), os.environ.get("PYTHONPATH")]))
    # the layers use no hypothesis, whose plugin takes about a second to import
    cmd = [sys.executable, "-m", "pytest", *chosen, "-q", "-p", "no:cacheprovider"]
    cmd += ["-p", "no:hypothesispytest", f"--benchmark-json={raw}"]
    if subprocess.run(cmd, cwd=tree, env={**os.environ, "PYTHONPATH": path}).returncode != 0:
        return None
    benchmarks = json.loads(raw.read_text())["benchmarks"]
    return {
        b["name"]: {"min_s": b["stats"]["min"], "median_s": b["stats"]["median"], "rounds": b["stats"]["rounds"]}
        for b in benchmarks
    }


def export(rev: str, into: Path) -> str | None:
    """Extract the committed tree of ``rev`` into ``into``; its full hash, or None."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if not commit:
        return None
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO, capture_output=True, check=True)
    # the "data" filter, where this Python has it, refuses links and paths out of ``into``
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, **safe)
    return commit


def paired(runs: list[dict], baseline_runs: list[dict]) -> dict:
    """Per layer: this tree's minimum over its runs, the median of its
    medians and its rounds; for a layer the baseline has too, also the
    baseline's minimum and the ratio of minima.  A layer the baseline
    lacks is written unpaired, and named on stderr."""
    layers = {}
    for name in sorted(runs[0]):
        mins = [run[name]["min_s"] for run in runs]
        medians = sorted(run[name]["median_s"] for run in runs)
        layers[name] = {"min_s": min(mins), "median_s": medians[len(medians) // 2], "rounds": runs[0][name]["rounds"]}
        if name not in baseline_runs[0]:
            print(f"unpaired layer, not in the baseline: {name}", file=sys.stderr)
            continue
        base = min(run[name]["min_s"] for run in baseline_runs)
        layers[name].update(baseline_min_s=base, ratio=min(mins) / base)
    return layers


def alternate(tree: Path, base_tree: Path, chosen: list[str], pairs: int, scratch: Path) -> dict | None:
    """Run both trees' layers ``pairs`` times, alternating which goes first,
    and pair them; None when a run of either tree fails.

    Each layer only ``tree`` has runs alone, from ``tree`` against
    ``base_tree``'s source, on the baseline's side of every pair: last in
    the first pair, which names those layers, first in the second, and so
    on.  Those runs are its baseline runs.  A layer whose run fails there,
    as one that uses API the baseline lacks does, is named on stderr and
    left unpaired."""
    runs: list[dict] = []
    baseline_runs: list[dict] = []
    crossed: list[dict] = []  # per pair, the runs of the new layers against the baseline's source
    new: list[str] = []
    failed: set[str] = set()
    for i in range(pairs):
        for step in ("base", "tree", "new") if i % 2 == 0 else ("new", "tree", "base"):
            if step != "new":
                layers = run_layers(base_tree if step == "base" else tree, chosen, scratch)
                if layers is None:
                    return None
                (baseline_runs if step == "base" else runs).append(layers)
                continue
            if i == 0:
                new = sorted(set(runs[0]) - set(baseline_runs[0]))
            crossed.append({})
            for name in new:
                if name in failed:
                    continue
                layers = run_layers(tree, [f"{LAYERS}::{name}"], scratch, base_tree / "src")
                if layers is None:
                    print(f"layer failed against the baseline's source: {name}", file=sys.stderr)
                    failed.add(name)
                else:
                    crossed[-1].update(layers)
    for base, cross in zip(baseline_runs, crossed):
        base.update((name, run) for name, run in cross.items() if name not in failed)
    return paired(runs, baseline_runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("-k", dest="keyword", help="pytest -k expression choosing the layers")
    parser.add_argument("--baseline", metavar="REV", help="a commit to pair every layer with")
    parser.add_argument("--pairs", type=int, default=5, help="alternating runs of each tree with --baseline")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    commit = git("rev-parse", "HEAD") or None
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": commit,
        "tree_clean": commit and not git("status", "--porcelain", "--", "src", "benchmarks"),
    }
    chosen = [LAYERS, *(["-k", args.keyword] if args.keyword else [])]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        if args.baseline is None:
            layers = run_layers(REPO, chosen, scratch)
            if layers is None:
                return 1
        else:
            base_tree = scratch / "baseline"
            base_commit = export(args.baseline, base_tree)
            if base_commit is None:
                print(f"unknown revision {args.baseline!r}", file=sys.stderr)
                return 2
            layers = alternate(REPO, base_tree, chosen, args.pairs, scratch)
            if layers is None:
                return 1
            report["baseline"] = {"rev": args.baseline, "commit": base_commit}
            report["pairs"] = args.pairs
    report["layers"] = layers
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"{len(layers)} layers written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
