"""The benchmark in ``perfbench/`` still runs against the library.

The tracer patches library entry points by name, and the workloads call
the library and the CLI with fixed arguments (``check-identity
--polarized`` among them), so a rename in the library makes every
benchmark job fail.  These tests only import and run ``perfbench/``; they
change nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402  (found through perfbench/ on sys.path)
import workloads  # noqa: E402


def failed_jobs(episode):
    return [job.kind for job in episode if not job.run()]


def test_tracer_targets_still_exist():
    missing = [
        f"{name}: {attr}"
        for name, owner, attr, _ in tracer.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_first_closure_episode_passes():
    episode = workloads.build("closure", 1, ROOT).episodes[0]
    assert episode and failed_jobs(episode) == []


@pytest.mark.skipif(importlib.util.find_spec("click") is None, reason="the cli workload checks through click")
def test_first_cli_episode_passes():
    """One child process per job, about 20 in turn."""
    episode = workloads.build("cli", 1, ROOT).episodes[0]
    assert episode and failed_jobs(episode) == []
