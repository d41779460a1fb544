#!/usr/bin/env python3
"""Per-layer timings of ``benchmarks/test_layers.py`` as one JSON file.

Runs the layer benchmarks under pytest-benchmark and writes, for each
layer, the minimum and median time of one round in seconds and the number
of rounds, with the Python version, the CPU count and the commit::

    python scripts/bench.py --out BENCH_17.json
    python scripts/bench.py --out one.json -k perm_mul

``tree_clean`` is False when ``src/`` or ``benchmarks/`` differ from the
commit.  Compare minima between files: the machine's other load only adds
to a round.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("-k", dest="keyword", help="pytest -k expression choosing the layers")
    args = parser.parse_args()
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "benchmark.json"
        # the layers use no hypothesis, whose plugin takes about a second to import
        cmd = [sys.executable, "-m", "pytest", "benchmarks/test_layers.py", "-q", "-p", "no:cacheprovider"]
        cmd += ["-p", "no:hypothesispytest", f"--benchmark-json={raw}", *(["-k", args.keyword] if args.keyword else [])]
        proc = subprocess.run(cmd, cwd=REPO, env={**os.environ, "PYTHONPATH": path})
        if proc.returncode != 0:
            return proc.returncode
        benchmarks = json.loads(raw.read_text())["benchmarks"]
    layers = {
        b["name"]: {"min_s": b["stats"]["min"], "median_s": b["stats"]["median"], "rounds": b["stats"]["rounds"]}
        for b in benchmarks
    }
    commit = git("rev-parse", "HEAD") or None
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": commit,
        "tree_clean": commit and not git("status", "--porcelain", "--", "src", "benchmarks"),
        "layers": layers,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"{len(layers)} layers written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
