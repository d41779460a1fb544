from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.expr import (
    Anti,
    Comm,
    ExprSum,
    IdentityTemplate,
    Leaf,
    Prod,
    Slot,
    UnboundSlotError,
    associator,
    check_identity,
    expand_node,
    left_normed,
    set_partition_patterns,
    wrap,
)
from permalg.perm import PermPolynomial


def leaves(max_index=4):
    return st.integers(1, max_index).map(Leaf)


def trees(depth=3):
    return st.recursive(
        leaves(),
        lambda sub: st.tuples(st.sampled_from([Prod, Comm, Anti]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        max_leaves=6,
    )


def test_expand_examples():
    x = PermPolynomial.from_word
    assert expand_node(Comm(Leaf(1), Leaf(2))) == x((1, 2)) - x((2, 1))
    nested = Anti(Anti(Leaf(1), Leaf(2)), Anti(Leaf(3), Leaf(4)))
    expected = (
        x((1, 2, 3, 4), 2) + x((2, 1, 3, 4), 2) + x((3, 1, 2, 4), 2) + x((4, 1, 2, 3), 2)
    )
    assert expand_node(nested) == expected
    metab = Comm(Comm(Leaf(1), Leaf(2)), Comm(Leaf(3), Leaf(4)))
    assert expand_node(metab).is_zero


def test_expand_unbound_slot():
    with pytest.raises(UnboundSlotError):
        expand_node(Comm(Slot(1), Leaf(2)))


@given(trees(), trees())
def test_comm_anti_vs_assoc(u, v):
    pu, pv = expand_node(u), expand_node(v)
    assert expand_node(Comm(u, v)) == pu * pv - pv * pu
    assert expand_node(Anti(u, v)) == pu * pv + pv * pu


@given(st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3), trees()), max_size=4))
def test_exprsum_expand_linear(items):
    total = ExprSum(items)
    expected = PermPolynomial.zero()
    for c, n in items:
        expected = expected + expand_node(n).scale(c)
    assert total.expand() == expected


def test_exprsum_combines_terms():
    t = Comm(Leaf(1), Leaf(2))
    s = ExprSum([(1, t), (2, t)])
    assert s.terms() == [(t, Fraction(3))]
    assert (s - s).is_zero
    with pytest.raises(TypeError, match="int or Fraction"):
        ExprSum([(0.5, t)])


def test_left_normed():
    assert left_normed(Comm, [2, 1, 3]) == Comm(Comm(Leaf(2), Leaf(1)), Leaf(3))
    with pytest.raises(ValueError):
        left_normed(Prod, [])


def test_metabelian_template_holds():
    a, b, c, d = Slot(1), Slot(2), Slot(3), Slot(4)
    t = IdentityTemplate(wrap(a).comm(b).comm(wrap(c).comm(d)), 0 * wrap(a))
    verdict = check_identity(t)
    assert verdict.holds


def test_commutativity_template_fails_with_witness():
    a, b = Slot(1), Slot(2)
    t = IdentityTemplate(wrap(a).prod(b), wrap(b).prod(a))
    verdict = check_identity(t)
    assert not verdict.holds
    assert verdict.counterexample == (1, 2)
    assert verdict.residual == PermPolynomial.from_word((1, 2)) - PermPolynomial.from_word((2, 1))


def test_associator_exchange_template():
    a, b, c, d = (Slot(i) for i in range(1, 5))
    lhs = 2 * associator(wrap(a).anti(b), c, d)
    rhs = (
        associator(wrap(a).anti(b), d, c)
        + associator(wrap(a).anti(c), b, d)
        + associator(wrap(b).anti(c), a, d)
    )
    assert check_identity(IdentityTemplate(lhs, rhs)).holds


def test_right_commutativity_template():
    a, b, c = Slot(1), Slot(2), Slot(3)
    t = IdentityTemplate(wrap(a).prod(b).prod(c), wrap(a).prod(c).prod(b))
    assert check_identity(t).holds
    assert check_identity(t, "polarized").holds


def test_modes_agree_on_multilinear_templates():
    a, b, c, d = (Slot(i) for i in range(1, 5))
    templates = [
        IdentityTemplate(wrap(a).anti(b), wrap(b).anti(a)),
        IdentityTemplate(wrap(a).comm(b).comm(wrap(c).comm(d)), 0 * wrap(a)),
        IdentityTemplate(wrap(a).prod(b), wrap(b).prod(a)),
    ]
    for t in templates:
        assert check_identity(t).holds == check_identity(t, "polarized").holds


def test_polarized_covers_squares():
    # {a,a} = 2 a*a holds; a*a = 0 does not
    a = Slot(1)
    t = IdentityTemplate(wrap(a).anti(a), 2 * wrap(a).prod(a))
    assert check_identity(t, "polarized").holds
    t2 = IdentityTemplate(wrap(a).prod(a), 0 * wrap(a))
    assert not check_identity(t2, "polarized").holds


def test_set_partition_patterns():
    pats = list(set_partition_patterns(3))
    assert pats == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]


def test_arity_bound():
    slots_7 = [Slot(i) for i in range(1, 8)]
    lhs = wrap(slots_7[0])
    for s in slots_7[1:]:
        lhs = lhs.prod(s)
    t = IdentityTemplate(lhs, lhs)
    with pytest.raises(ValueError, match="6"):
        check_identity(t)


def test_template_slot_validation():
    with pytest.raises(ValueError, match="contiguous"):
        IdentityTemplate(wrap(Slot(2)), wrap(Slot(2)))
    with pytest.raises(ValueError, match="absent"):
        IdentityTemplate(wrap(Slot(1)), wrap(Slot(1)).prod(Slot(2)))


def test_deep_trees_hash_without_walking():
    """A binary node hashes from its children's stored hashes, so building
    a long chain one product at a time is linear and hashing a deep chain
    does not recurse."""
    chain = ExprSum.of(Leaf(1))
    for _ in range(2000):
        chain = chain.anti(Leaf(1))
    assert len(chain) == 1
    deep = left_normed(Anti, [1] * 5000)
    assert hash(deep) == hash(left_normed(Anti, [1] * 5000))
    assert hash(Prod(Leaf(1), Leaf(2))) == hash(Prod(Leaf(1), Leaf(2)))
    assert Prod(Leaf(1), Leaf(2)) != Comm(Leaf(1), Leaf(2))
    assert len({Prod(Leaf(1), Leaf(2)), Comm(Leaf(1), Leaf(2)), Anti(Leaf(1), Leaf(2))}) == 3


def test_exprsum_str_deterministic():
    terms = [
        (Fraction(-1, 4), Anti(Anti(Leaf(1), Leaf(2)), Leaf(3))),
        (1, Leaf(2)),
        (3, Comm(Leaf(2), Leaf(1))),
    ]
    s = ExprSum(terms)
    assert str(s) == "x2 + 3*[x2,x1] - 1/4*{{x1,x2},x3}"
    # the terms are ordered when printed, whatever order they came in
    backwards = ExprSum(reversed(terms))
    assert backwards == s
    assert str(backwards) == str(s)
    assert backwards.terms() == s.terms()
    parts = [ExprSum([t]) for t in terms]
    assert parts[2] + parts[1] + parts[0] == s == parts[0] + parts[1] + parts[2]
    assert str(parts[2] + parts[1] + parts[0]) == str(s)
