"""Smoke test: each script in ``scripts/`` runs to completion on small input."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["rewrite_fuzz.py", "--algebras", "2", "--words", "20"],
        ["growth_report.py", "--dmax", "6"],
        ["identity_audit.py"],
    ],
)
def test_script_runs(argv):
    src = str(REPO / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_layer_benchmarks_run():
    """``benchmarks/`` stays runnable against the current API: every case
    runs once with timing switched off."""
    pytest.importorskip("pytest_benchmark")
    src = str(REPO / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable"]
        + ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"],
        capture_output=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()


def test_bench_script_writes_one_layer(tmp_path):
    """``scripts/bench.py -k`` runs the chosen layer and writes its entry."""
    pytest.importorskip("pytest_benchmark")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench.py"), "--out", str(out), "-k", "perm_commutator_with_letter"],
        capture_output=True,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    report = json.loads(out.read_text())
    assert report["python"] == platform.python_version()
    (name, layer), = report["layers"].items()
    assert name == "test_perm_commutator_with_letter"
    assert 0 < layer["min_s"] <= layer["median_s"] and layer["rounds"] == 50


def test_bench_script_pairs_a_baseline(tmp_path, capsys):
    """``scripts/bench.py --baseline`` exports the commit, runs both trees'
    layers and writes both minima with their ratio.  A layer the baseline
    lacks, as one a change adds, runs from this tree against the baseline's
    source and pairs with those runs; only when that run fails is it
    written unpaired and named on stderr."""
    spec = importlib.util.spec_from_file_location("bench", REPO / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    run = {"min_s": 2.0, "median_s": 3.0, "rounds": 5}
    layers = bench.paired([{"old": run, "new": run}], [{"old": {**run, "min_s": 4.0}, "gone": run}])
    assert layers == {"new": run, "old": {**run, "baseline_min_s": 4.0, "ratio": 0.5}}
    assert capsys.readouterr().err == "unpaired layer, not in the baseline: new\n"
    pytest.importorskip("pytest_benchmark")
    # two trees of a one-function package: the newer adds ``fresh`` and two
    # layers, one that the baseline's source runs and one that needs ``fresh``
    layer = "def test_{}(benchmark):\n    benchmark.pedantic(mini.{}, rounds=2, iterations=1)\n"
    trees = {}
    for name, api, tests in [
        ("base", ["old"], [("old", "old")]),
        ("tree", ["old", "fresh"], [("old", "old"), ("new", "old"), ("needs_fresh", "fresh")]),
    ]:
        trees[name] = tmp_path / name
        (trees[name] / "src" / "mini").mkdir(parents=True)
        (trees[name] / "src" / "mini" / "__init__.py").write_text("".join(f"def {f}():\n    return 1\n" for f in api))
        (trees[name] / "benchmarks").mkdir()
        text = "import mini\n\n" + "\n".join(layer.format(*t) for t in tests)
        (trees[name] / "benchmarks" / "test_layers.py").write_text(text)
    (tmp_path / "scratch").mkdir()
    layers = bench.alternate(trees["tree"], trees["base"], [bench.LAYERS], 2, tmp_path / "scratch")
    assert sorted(layers) == ["test_needs_fresh", "test_new", "test_old"]
    assert layers["test_new"]["ratio"] == layers["test_new"]["min_s"] / layers["test_new"]["baseline_min_s"] > 0
    assert "ratio" in layers["test_old"] and "ratio" not in layers["test_needs_fresh"]
    err = capsys.readouterr().err
    assert err.count("layer failed against the baseline's source: test_needs_fresh") == 1
    assert "unpaired layer, not in the baseline: test_needs_fresh" in err and "test_new" not in err
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "-k", "perm_commutator_with_letter", "--baseline", "HEAD", "--pairs", "1"]
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench.py"), *argv], capture_output=True, cwd=REPO, timeout=120
    )
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    report = json.loads(out.read_text())
    assert report["baseline"] == {"rev": "HEAD", "commit": head.stdout.strip()} and report["pairs"] == 1
    (name, layer), = report["layers"].items()
    assert name == "test_perm_commutator_with_letter"
    assert layer["ratio"] == layer["min_s"] / layer["baseline_min_s"] > 0
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench.py"), "--out", str(out), "--baseline", "no-such-rev"],
        capture_output=True,
        cwd=REPO,
        timeout=60,
    )
    assert proc.returncode == 2 and b"unknown revision" in proc.stderr
