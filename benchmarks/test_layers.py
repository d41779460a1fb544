"""Per-layer timings of the slice closures and the row echelon.

Run from the repository root (not part of the default test run, which
collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks -q

Each closure is timed cold: its slice caches are emptied before every
round, so a round pays for every lower slice it needs.
"""

import pytest

from permalg.jordan import _sj_component, sj_span
from permalg.lie import _lie_component, lie_span_oracle, ml_basis
from permalg.linalg import Subspace
from permalg.perm import enumerate_basis, multidegrees


def run_cold(benchmark, fn, args, cache, rounds):
    """Time ``fn(*args)`` with ``cache`` emptied before every round."""
    return benchmark.pedantic(fn, args=args, setup=cache.cache_clear, rounds=rounds, iterations=1)


@pytest.mark.parametrize("n, rounds", [(6, 20), (7, 10), (8, 5)])
def test_lie_component_multilinear(benchmark, n, rounds):
    space = run_cold(benchmark, _lie_component, ((1,) * n,), _lie_component, rounds)
    assert space.dim == n - 1


def test_lie_span_oracle_4_5(benchmark):
    space = run_cold(benchmark, lie_span_oracle, (4, 5), _lie_component, 20)
    assert space.dim == len(ml_basis(4, 5))


def test_sj_span_3_5(benchmark):
    space = run_cold(benchmark, sj_span, (3, 5), _sj_component, 20)
    assert space.dim == len(space.monomials)


def test_span_add_whole_degree(benchmark):
    """``Span.add`` alone: the rows of every (4, 5) Lie slice added into one
    whole-degree subspace, the assembly step of ``lie_span_oracle``."""
    monomials = enumerate_basis(4, 5)
    rows = [p for md in multidegrees(4, 5) for p in _lie_component(md).basis()]
    space = benchmark(Subspace, monomials, rows)
    assert space.dim == len(rows)
