"""Slices are values: a call does the same work however often it ran before."""

import pytest

import permalg.jordan as jordan
from permalg.jordan import ideal_component, jordan_express, sj_span
from permalg.lie import lie_span_oracle
from permalg.linalg import Span
from permalg.perm import PermPolynomial

x = PermPolynomial.from_word

# each call with the count of the work it must repeat
CALLS = [
    pytest.param(lambda: lie_span_oracle(3, 6), "add", id="lie_span_oracle(3, 6)"),
    # the rows are installed, not added: the work left is one witness per word
    pytest.param(lambda: sj_span(3, 5), "word", id="sj_span(3, 5)"),
    pytest.param(
        lambda: ideal_component("jordan", [x((1, 2)) + x((2, 1)), x((3, 3))], (2, 2, 1)),
        "add",
        id="ideal_component(jordan, (2, 2, 1))",
    ),
]


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Span.add``, ``PermPolynomial.__mul__`` and
    ``_FWitnesses.word`` since the fixture began."""
    tally = {"add": 0, "mul": 0, "word": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Span, "add", counting("add", Span.add))
    monkeypatch.setattr(PermPolynomial, "__mul__", counting("mul", PermPolynomial.__mul__))
    monkeypatch.setattr(jordan._FWitnesses, "word", counting("word", jordan._FWitnesses.word))
    return tally


@pytest.mark.parametrize("call, probe", CALLS)
def test_repeated_call_does_the_same_work(call, probe, counts):
    work = []
    for _ in range(2):
        before = dict(counts)
        call()
        work.append({key: counts[key] - before[key] for key in counts})
    assert work[0] == work[1]
    assert work[0][probe] > 0


def test_sj_span_builds_one_witness_per_word(counts):
    sj_span(3, 5)
    assert counts == {"add": 0, "mul": 0, "word": 45}


def node_ids(witnesses) -> set[int]:
    """The ``id`` of every node of every tree of the ``ExprSum``s."""
    seen: set[int] = set()
    for witness in witnesses:
        todo = list(witness._terms)
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if hasattr(node, "left"):
                    todo += (node.left, node.right)
    return seen


def growable(module) -> dict[str, int]:
    """Size of each dict, list or set held by the module or by a class it defines."""
    out = {}
    for name, value in vars(module).items():
        if isinstance(value, (dict, list, set)):
            out[name] = len(value)
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr, held in vars(value).items():
                if isinstance(held, (dict, list, set)) and not attr.startswith("__"):
                    out[f"{name}.{attr}"] = len(held)
    return out


WITNESS_CALLS = [
    pytest.param(
        lambda: [jordan_express(x((3, 1, 1, 2), 2) + x((1, 1, 2, 3), -1) + x((2, 1, 1, 3), 3) + x((1, 2)) + x((2, 1)))],
        id="jordan_express",
    ),
    pytest.param(lambda: sj_span(3, 5).expressions, id="sj_span(3, 5)"),
]


@pytest.mark.parametrize("call", WITNESS_CALLS)
def test_witness_trees_are_built_per_call(call):
    """Two calls on the same input share no node: the node store of
    ``f``-element witnesses lives as long as one call, and the module
    keeps no container that grows between calls."""
    before = growable(jordan)
    first = call()
    second = call()  # both kept alive, so no id is reused
    assert node_ids(first) and node_ids(second)
    assert node_ids(first).isdisjoint(node_ids(second))
    assert all(a == b and str(a) == str(b) for a, b in zip(first, second))
    assert growable(jordan) == before
