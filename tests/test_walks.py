"""The tree walks: ``fold``, the flat sort key, equality, printing and
substitution, on small trees against recursive oracles and on chains far
deeper than the interpreter's recursion limit."""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from permalg.expr import (
    Anti,
    Comm,
    Leaf,
    Prod,
    Slot,
    fold,
    left_normed,
    node_key,
    node_slots,
    node_str,
    substitute_node,
)
from permalg.parser import parse_envelope_expr, parse_word

DEEP = 5000
ATOMS = (Leaf(1), Leaf(2), Slot(1), Slot(2))  # x1, x2, a, b
TAGS = {Prod: 2, Comm: 3, Anti: 4}


def nested_key_oracle(e):
    """The structural key as a nested tuple, ``(size, kind, left key,
    right key)``: the order the flat ``node_key`` must reproduce."""
    if isinstance(e, Leaf):
        return (1, 0, e.index)
    if isinstance(e, Slot):
        return (1, 1, e.index)
    left, right = nested_key_oracle(e.left), nested_key_oracle(e.right)
    return (left[0] + right[0], TAGS[type(e)], left, right)


def rebuilt(e):
    """A copy of ``e`` that shares no binary node with it."""
    if isinstance(e, (Leaf, Slot)):
        return type(e)(e.index)
    return type(e)(rebuilt(e.left), rebuilt(e.right))


def shapes(atoms):
    """Every tree over the atom sequence: each bracketing with each node
    kind at each inner node."""
    if len(atoms) == 1:
        yield atoms[0]
        return
    for k in range(1, len(atoms)):
        for left in shapes(atoms[:k]):
            for right in shapes(atoms[k:]):
                for kind in (Prod, Comm, Anti):
                    yield kind(left, right)


SMALL_TREES = [t for n in (1, 2, 3) for atoms in product(ATOMS, repeat=n) for t in shapes(atoms)]


def test_flat_key_orders_and_separates_like_nested_key():
    assert len(SMALL_TREES) == 1204
    flat = sorted(SMALL_TREES, key=node_key)
    assert flat == sorted(SMALL_TREES, key=nested_key_oracle)
    assert len({node_key(t) for t in SMALL_TREES}) == len(SMALL_TREES)
    for t in SMALL_TREES:
        copy = rebuilt(t)
        assert copy == t and hash(copy) == hash(t) and node_key(copy) == node_key(t)
        assert node_key(t)[0] == fold(t, lambda n: 1, lambda n, l, r: l + r)
    two_leaves = SMALL_TREES[:52]
    for u in two_leaves:
        for v in two_leaves:
            assert (u == v) == (u is v)


trees = st.recursive(
    st.sampled_from(ATOMS),
    lambda sub: st.tuples(st.sampled_from([Prod, Comm, Anti]), sub, sub).map(
        lambda t: t[0](t[1], t[2])
    ),
    max_leaves=5,
)


@given(trees, trees)
def test_flat_key_matches_nested_key_on_pairs(u, v):
    fu, fv = node_key(u), node_key(v)
    nu, nv = nested_key_oracle(u), nested_key_oracle(v)
    assert (fu < fv) == (nu < nv)
    assert (fu == fv) == (nu == nv) == (u == v) == (rebuilt(u) == v)


def test_fold_evaluates_bottom_up():
    tree = Comm(Prod(Leaf(1), Slot(2)), Anti(Leaf(3), Leaf(4)))
    seen = []

    def binary(n, left, right):
        seen.append(type(n).__name__)
        return f"{type(n).__name__}({left},{right})"

    assert fold(tree, lambda n: str(n.index), binary) == "Comm(Prod(1,2),Anti(3,4))"
    assert seen == ["Prod", "Anti", "Comm"]
    assert fold(Leaf(7), lambda n: n.index, binary) == 7


def test_deep_chain_prints_and_keys():
    letters = [1, 2] * (DEEP // 2)
    anti = left_normed(Anti, letters)
    assert node_str(anti) == "{" * (DEEP - 1) + "x1" + "".join(f",x{i}}}" for i in letters[1:])
    assert node_str(left_normed(Prod, letters)) == "*".join(f"x{i}" for i in letters)
    comm = left_normed(Comm, [Slot(1)] + [Leaf(2)] * (DEEP - 1))
    assert node_str(comm) == "[" * (DEEP - 1) + "a" + ",x2]" * (DEEP - 1)
    key = node_key(anti)
    assert len(key) == 5 * DEEP - 2
    assert key[: 2 * (DEEP - 1)] == tuple(x for s in range(DEEP, 1, -1) for x in (s, 4))
    assert key[2 * (DEEP - 1) :] == (1, 0, 1) + tuple(x for i in letters[1:] for x in (1, 0, i))
    assert repr(anti).startswith("Anti(left=Anti(left=")
    assert repr(Prod(Leaf(1), Slot(2))) == "Prod(left=Leaf(index=1), right=Slot(index=2))"


def test_deep_chain_slots_and_substitution():
    template = left_normed(Prod, [Slot(1)] + [Leaf(1)] * (DEEP - 2) + [Slot(2)])
    assert node_slots(template) == frozenset({1, 2})
    assert node_slots(left_normed(Prod, [1] * DEEP)) == frozenset()
    got = substitute_node(template, {1: Leaf(2), 2: Comm(Leaf(1), Leaf(2))})
    expected = left_normed(Prod, [Leaf(2)] + [Leaf(1)] * (DEEP - 2) + [Comm(Leaf(1), Leaf(2))])
    assert got == expected
    assert node_key(got) == node_key(expected)


def test_deep_chain_equality():
    letters = [1, 2, 3] * (DEEP // 3) + [1]
    a, b = left_normed(Anti, letters), left_normed(Anti, letters)
    assert a is not b and a == b and not a != b
    deepest = left_normed(Anti, [3] + letters[1:])  # differs only at the first letter
    assert a != deepest and deepest != a
    assert a != left_normed(Comm, letters)
    shared = Anti(a, Leaf(4))
    assert shared == Anti(a, Leaf(4)) and shared != Anti(b, Leaf(5))


def test_deep_words_parse():
    letters = [2] + [1, 3] * (DEEP // 2)
    assert parse_word("*".join(f"x{i}" for i in letters)) == tuple(letters)
    labels = ["e1", "e2", "e3"]
    text = "2*d(e2)*" + "*".join(f"e{i}" for i in letters)
    assert parse_envelope_expr(text, labels) == [(2, 2, tuple(letters))]
