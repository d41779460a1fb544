"""The workloads of the permalg benchmark, as seeded episodes of jobs.

A job is one library call (for ``cli``, one command) together with its
exactness check; it returns True when the answer is exactly right.  An
episode is a fixed schedule of job kinds and input sizes whose contents
(coefficients, laws, words) come from the seed; the multidegrees that set
a ``closure`` job's cost come from the episode's index alone.  So every
seed does nearly the same amount of work.  Each episode starts with empty
slice caches (see :class:`SliceCaches`), which makes a run's cost
independent of how many episodes came before it and makes traced counts
repeat exactly.

Jobs are closed loop: one client, one job at a time, no threads; the
``cli`` workload runs one child process at a time.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

import gen
import permalg  # entry points are looked up at call time, so traced wrappers see them
from permalg import PermMonomial, PermPolynomial
from permalg import jordan as jordan_module
from permalg import lie as lie_module


class Job(NamedTuple):
    kind: str
    run: Callable[[], bool]


def poly(p: gen.Poly) -> PermPolynomial:
    return PermPolynomial([(PermMonomial(h, t), c) for (h, t), c in p.items()])


def word_dimension(k: int, n: int) -> int:
    """Canonical words of degree ``n`` on ``k`` letters."""
    return k * comb(n + k - 2, n - 1)


def metabelian_dimension(k: int, n: int) -> int:
    """Free metabelian bracket words ``[[x_f, x_s], x_r...]`` with
    ``f > s <= r1 <= ...``: the dimension of the commutator slice."""
    return sum((k - s) * comb(k - s + n - 2, n - 2) for s in range(1, k + 1))


class SliceCaches:
    """The memoised slice closures of ``lie`` and ``jordan``.

    ``clear`` folds the current ``cache_info()`` into the totals and empties
    the caches.  A closure that no longer exists, or is no longer memoised,
    is left out, and its metrics are reported absent.
    """

    def __init__(self) -> None:
        self.caches = {}
        for layer, module, attr in (
            ("lie", lie_module, "_lie_component"),
            ("jordan", jordan_module, "_sj_component"),
        ):
            fn = getattr(module, attr, None)
            if hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"):
                self.caches[layer] = fn
        self.hits: Counter = Counter()
        self.lookups: Counter = Counter()
        self.peak_entries: Counter = Counter()

    def clear(self) -> None:
        for layer, fn in self.caches.items():
            info = fn.cache_info()
            self.hits[layer] += info.hits
            self.lookups[layer] += info.hits + info.misses
            self.peak_entries[layer] = max(self.peak_entries[layer], info.currsize)
            fn.cache_clear()

    def reset_totals(self) -> None:
        self.clear()
        self.hits.clear()
        self.lookups.clear()
        self.peak_entries.clear()


# ---------------------------------------------------------------------------
# closure: witnessed slice closures, Span row echelon, small products


# Jobs that request multidegrees no earlier job of the episode requested:
# (letters k, component shapes); the episode permutes the letters of each
# shape, since the cost of a slice depends on which letter is repeated.
CLOSURE_NEW = [
    (3, [(2, 1, 1)]),
    (3, [(2, 2, 1), (3, 1, 1)]),
    (2, [(4, 3), (5, 2)]),
    (4, [(2, 2, 1, 1)]),
    (4, [(2, 2, 2, 1)]),
]
REVISITS = 4
CLOSURE_EPISODES = 4
# Whole-degree slices: (k, n) for sj_span and for lie_span_oracle.
CLOSURE_SJ = [(3, 5), (2, 6)]
CLOSURE_ORACLE = [(4, 5), (3, 6)]


def _jordan_job(g: PermPolynomial) -> Job:
    return Job("jordan_express", lambda: permalg.jordan_express(g).expand() == g)


def _sj_job(k: int, n: int, row: int) -> Job:
    def run() -> bool:
        space = permalg.sj_span(k, n)
        i = row % space.dim
        return space.dim == word_dimension(k, n) and space.expressions[i].expand() == space.basis()[i]

    return Job("sj_span", run)


def _oracle_job(k: int, n: int) -> Job:
    def run() -> bool:
        space = permalg.lie_span_oracle(k, n)
        return space.dim == metabelian_dimension(k, n) and all(permalg.is_lie(p) for p in space.basis())

    return Job("lie_span_oracle", run)


def _ideal_jobs(rng: random.Random, shape: random.Random) -> list[Job]:
    """Both ambients on the same seeded generators: ``g1`` on letters
    ``(1,1,0)`` and ``g2`` on ``(0,0,2)``, target ``(2,2,1)``, with the
    letters permuted by ``shape``.  The associative slice must contain
    ``g1`` times the missing letters, and must contain the anticommutator
    slice."""
    perm = [1, 2, 3]
    shape.shuffle(perm)

    def md(shape):
        out = [0, 0, 0]
        for i, e in enumerate(shape):
            out[perm[i] - 1] = e
        return tuple(out)

    g1 = gen.poly_on_components(rng, [md((1, 1, 0))], density=1.0)
    g2 = gen.poly_on_components(rng, [md((0, 0, 2))], density=1.0)
    target = md((2, 2, 1))
    gens = [poly(g1), poly(g2)]
    letters = {(perm[0], ()): 1, (perm[1], ()): 1, (perm[2], ()): 1}
    member = poly(reduce(gen.ref_mul, [{w: c} for w, c in letters.items()], g1))
    found = {}

    def run_perm() -> bool:
        found["perm"] = permalg.ideal_component("perm", gens, target)
        return found["perm"].contains(member)

    def run_jordan() -> bool:
        space = permalg.ideal_component("jordan", gens, target)
        outer = found["perm"]
        return space.dim <= outer.dim and all(outer.contains(p) for p in space.basis())

    return [Job("ideal_component", run_perm), Job("ideal_component", run_jordan)]


def closure_episode(rng: random.Random, index: int) -> list[Job]:
    """One ``jordan_express`` job in five opens new multidegrees; the other
    four revisit only multidegrees an earlier job of the episode requested.
    Revisits are then most of the episode's jobs, so they set the median."""
    shape = random.Random(f"closure-shapes:{index}")
    jobs: list[Job] = []
    for k, shapes in CLOSURE_NEW:
        mds = [gen.permuted(shape, s) for s in shapes]
        # every word of each component, so that only the coefficients
        # depend on the seed
        for _ in range(1 + REVISITS):
            jobs.append(_jordan_job(poly(gen.poly_on_components(rng, mds, density=1.0))))
    jobs += _ideal_jobs(rng, shape)
    jobs += [_sj_job(k, n, rng.randrange(1 << 16)) for k, n in CLOSURE_SJ]
    jobs += [_oracle_job(k, n) for k, n in CLOSURE_ORACLE]
    return jobs


# ---------------------------------------------------------------------------
# cli: one child process per command

CRITERION_10 = [
    ["normalize", "x2*x1 + x1*x2"],
    ["expand", "{{x1,x2},{x3,x4}}"],
    ["is-lie", "x2*x1*x3 - x1*x2*x3"],
    ["lie-express", "x2*x1 - x1*x2"],
    ["jordan-express", "x1*x2*x3"],
    ["check-identity", "--template", "[[a,b],[c,d]] = 0", "--polarized"],
    ["dims", "--gens", "3", "--deg", "4"],
    ["bn", "--gens", "2", "--deg", "3"],
    ["to-bn", "x1*x2*x3*x4"],
    ["cohn-witness"],
    ["envelope", "build", "--algebra", "algebras/heisenberg.json", "--deg", "4"],
    ["envelope", "nf", "--algebra", "algebras/heisenberg.json", "d(e2)*e1"],
    ["envelope", "check", "--algebra", "algebras/heisenberg.json", "--seed", "11"],
    ["gk", "--algebra", "algebras/heisenberg.json", "--max-deg", "12"],
]
# stock algebras that are valid metabelian Lie algebras
STOCK = ["abelian3", "affine2", "heisenberg", "skew2"]


class CliRunnerCheck:
    """Runs a command as a child process and through click's CliRunner.

    ``child_s`` and ``inproc_s`` keep each job's two wall times, which the
    traced run turns into the cli layer metrics.
    """

    def __init__(self, root: Path) -> None:
        from click.testing import CliRunner

        from permalg.cli import main

        self.root = root
        self.main = main
        self.runner = CliRunner()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PERMALG_OUTPUT", None)
        self.child_s: list[float] = []
        self.inproc_s: list[float] = []

    def job(self, args: list[str], expected_exit: int, expression: str | None = None) -> Job:
        """``expression`` goes last, after ``--``, since it may start with a minus."""
        argv = [*args, "--json"] + (["--", expression] if expression is not None else [])

        def run() -> bool:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "permalg", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                timeout=120,
            )
            t1 = time.perf_counter()
            result = self.runner.invoke(self.main, argv)
            t2 = time.perf_counter()
            self.child_s.append(t1 - t0)
            self.inproc_s.append(t2 - t1)
            if proc.returncode != expected_exit or result.exit_code != expected_exit:
                return False
            return json.loads(proc.stdout) == json.loads(result.stdout)

        return Job(args[0] if args[0] != "envelope" else f"envelope {args[1]}", run)


def _labels(root: Path, name: str) -> list[str]:
    with open(root / "algebras" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["basis"]


def cli_episode(rng: random.Random, runner: CliRunnerCheck) -> list[Job]:
    jobs = [runner.job(args, 0) for args in CRITERION_10]
    lie_part = gen.dynkin_image(gen.dense_poly(rng, 3, 4, 4, head_above=True))
    jobs.append(runner.job(["is-lie"], 0, gen.poly_text(lie_part)))
    tail = tuple(sorted(rng.randint(2, 3) for _ in range(3)))
    not_lie = gen.ref_lin((1, lie_part), (1, {(1, tail): Fraction(1)}))
    jobs.append(runner.job(["is-lie"], 1, gen.poly_text(not_lie)))
    g = gen.poly_on_components(rng, [gen.permuted(rng, (2, 1, 1))])
    jobs.append(runner.job(["jordan-express"], 0, gen.poly_text(g)))
    for polarized, holds in ((True, rng.random() < 0.5), (False, rng.random() < 0.5)):
        law = rng.randrange(gen.LAW_COUNT if holds else gen.PERTURBABLE)
        text = gen.random_template(rng, law, 4, holds)
        args = ["check-identity", "--template", text] + (["--polarized"] if polarized else [])
        jobs.append(runner.job(args, 0 if holds else 1))
    name = rng.choice(STOCK)
    labels = _labels(runner.root, name)
    terms = []
    for _ in range(rng.randint(1, 3)):
        plain = [rng.choice(labels) for _ in range(rng.randint(0, 3))]
        terms.append((gen.coefficient(rng), "*".join([f"d({rng.choice(labels)})", *plain])))
    expr = gen.sum_text(terms)
    jobs.append(runner.job(["envelope", "nf", "--algebra", f"algebras/{name}.json"], 0, expr))
    return jobs


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    episodes: list[list[Job]]
    traced_episodes: int  # the fixed job set of a traced run: the first episodes
    cli: CliRunnerCheck | None = None


def build(name: str, seed: int, root: Path) -> Workload:
    """Every input of the workload, generated from ``seed``."""

    def rng(i: int) -> random.Random:
        return random.Random(f"{name}:{seed}:{i}")

    if name == "closure":
        return Workload([closure_episode(rng(i), i) for i in range(CLOSURE_EPISODES)], 2)
    if name == "cli":
        runner = CliRunnerCheck(root)
        return Workload([cli_episode(rng(i), runner) for i in range(5)], 1, runner)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["closure", "cli"]
