"""Slices are values: a call does the same work however often it ran before."""

import pytest

from permalg.jordan import ideal_component, sj_span
from permalg.lie import lie_span_oracle
from permalg.linalg import Span
from permalg.perm import PermPolynomial

x = PermPolynomial.from_word

CALLS = [
    pytest.param(lambda: lie_span_oracle(3, 6), id="lie_span_oracle(3, 6)"),
    pytest.param(lambda: sj_span(3, 5), id="sj_span(3, 5)"),
    pytest.param(
        lambda: ideal_component("jordan", [x((1, 2)) + x((2, 1)), x((3, 3))], (2, 2, 1)),
        id="ideal_component(jordan, (2, 2, 1))",
    ),
]


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Span.add`` and ``PermPolynomial.__mul__`` since the fixture began."""
    tally = {"add": 0, "mul": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Span, "add", counting("add", Span.add))
    monkeypatch.setattr(PermPolynomial, "__mul__", counting("mul", PermPolynomial.__mul__))
    return tally


@pytest.mark.parametrize("call", CALLS)
def test_repeated_call_does_the_same_work(call, counts):
    work = []
    for _ in range(2):
        before = dict(counts)
        call()
        work.append({key: counts[key] - before[key] for key in counts})
    assert work[0] == work[1]
    assert work[0]["add"] > 0
