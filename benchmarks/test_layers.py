"""Per-layer timings of the slice closures and the row echelon.

Run from the repository root (not part of the default test run, which
collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks -q

The library keeps no slices between calls, so every round is cold: it
pays for every lower slice it needs.
"""

import pytest

from permalg.jordan import ideal_component, sj_span
from permalg.lie import lie_span_oracle, ml_basis
from permalg.linalg import Subspace
from permalg.perm import PermPolynomial, enumerate_basis, multidegrees


def run(benchmark, fn, args, rounds):
    return benchmark.pedantic(fn, args=args, rounds=rounds, iterations=1)


@pytest.mark.parametrize("n, rounds", [(6, 20), (7, 10), (8, 5)])
def test_lie_slice_multilinear(benchmark, n, rounds):
    space = run(benchmark, lie_span_oracle, (n, n, (1,) * n), rounds)
    assert space.dim == n - 1


def test_lie_span_oracle_4_5(benchmark):
    space = run(benchmark, lie_span_oracle, (4, 5), 20)
    assert space.dim == len(ml_basis(4, 5))


def test_sj_span_3_5(benchmark):
    space = run(benchmark, sj_span, (3, 5), 20)
    assert space.dim == len(space.monomials)


def test_ideal_component_jordan_2_2_1(benchmark):
    """The anticommutator ideal of ``{x1,x2}`` and ``x3*x3`` at ``(2, 2, 1)``."""
    x = PermPolynomial.from_word
    gens = [x((1, 2)) + x((2, 1)), x((3, 3))]
    space = run(benchmark, ideal_component, ("jordan", gens, (2, 2, 1)), 20)
    assert 0 < space.dim <= len(space.monomials)


def test_span_add_whole_degree(benchmark):
    """``Span.add`` alone: the rows of every (4, 5) Lie slice added into one
    whole-degree subspace, the assembly step of ``lie_span_oracle``."""
    monomials = enumerate_basis(4, 5)
    rows = [p for md in multidegrees(4, 5) for p in lie_span_oracle(4, 5, md).basis()]
    space = benchmark(Subspace, monomials, rows)
    assert space.dim == len(rows)
