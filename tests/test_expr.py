from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.expr import (
    Anti,
    Comm,
    ExprSum,
    IdentityTemplate,
    IdentityVerdict,
    Leaf,
    Prod,
    Slot,
    UnboundSlotError,
    associator,
    check_identity,
    expand_node,
    left_normed,
    wrap,
)
from permalg.parser import parse_template
from permalg.perm import PermMonomial, PermPolynomial

from oracles import set_partition_patterns


def expand_fold_oracle(e, mapping=None):
    """The tree multiplied out one product at a time, with slot ``i``
    replaced by ``mapping[i]``: the independent check of the head-vector
    expansion."""
    if isinstance(e, Leaf):
        return PermPolynomial.generator(e.index)
    if isinstance(e, Slot):
        return expand_fold_oracle(mapping[e.index])
    l = expand_fold_oracle(e.left, mapping)
    r = expand_fold_oracle(e.right, mapping)
    if isinstance(e, Prod):
        return l * r
    if isinstance(e, Comm):
        return l * r - r * l
    return l * r + r * l


def fold_sum(terms, mapping=None):
    out = PermPolynomial.zero()
    for c, node in terms:
        out = out + expand_fold_oracle(node, mapping).scale(c)
    return out


def is_stored_exact(c):
    """A stored coefficient: a nonzero ``int`` or ``Fraction``, never a
    float and never a ``bool`` (whose type is ``bool``, not ``int``)."""
    return type(c) in (int, Fraction) and c != 0


def assert_stored_exact(p):
    assert all(is_stored_exact(c) for _, c in p.items())


def all_trees(word):
    """Every tree whose leaves, read left to right, are ``word``: each
    bracketing shape with each node kind at each inner node."""
    if len(word) == 1:
        yield Leaf(word[0])
        return
    for k in range(1, len(word)):
        for left in all_trees(word[:k]):
            for right in all_trees(word[k:]):
                for kind in (Prod, Comm, Anti):
                    yield kind(left, right)


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


def test_expansion_matches_fold_exhaustively():
    """Every shape and node kind on every identification pattern of up to
    4 leaves, and on the all-distinct and all-equal patterns of 5."""
    words = [p for n in range(1, 5) for p in set_partition_patterns(n)]
    words += [(1, 2, 3, 4, 5), (1, 1, 1, 1, 1)]
    count = 0
    for word in words:
        for tree in all_trees(word):
            got = expand_node(tree)
            assert got == expand_fold_oracle(tree), tree
            assert_stored_exact(got)
            count += 1
    assert count == 1 + 3 * 2 + 9 * 2 * 5 + 27 * 5 * 15 + 2 * 81 * 14


def test_vanishing_trees_store_nothing():
    x1, x2 = Leaf(1), Leaf(2)
    vanishing = [
        Comm(x1, x1),
        Prod(Comm(x1, x1), x2),
        Prod(x2, Comm(x1, x1)),
        Comm(Anti(x1, x2), Anti(x2, x1)),
    ]
    for tree in vanishing:
        assert not expand_node(tree).items()
    third = Fraction(1, 3)
    assert not ExprSum([(third, Comm(x1, x2)), (third, Comm(x2, x1))]).expand().items()


def test_deep_chain_expands():
    """A 5000-deep left-normed anticommutator expands without recursion to
    ``W(a1) + W(a2) + sum_{j>=3} 2^(j-2) W(aj)``, with ``W(h)`` the word with
    head ``h`` and all the letters."""
    word = [1, 2, 3] * 1666 + [1, 2]
    expected: dict[int, int] = {}
    for j, h in enumerate(word, start=1):
        expected[h] = expected.get(h, 0) + (1 if j <= 2 else 1 << (j - 2))
    rest = sorted(word)
    got = expand_node(left_normed(Anti, word))
    assert got == PermPolynomial(
        (PermMonomial(h, tuple(rest[: rest.index(h)] + rest[rest.index(h) + 1 :])), c)
        for h, c in expected.items()
    )
    assert_stored_exact(got)
    same = expand_node(left_normed(Anti, [1] * 5000))
    assert same.terms() == [(PermMonomial(1, (1,) * 4999), Fraction(2**4999))]


def test_node_sum_is_the_expansion_coefficient_sum():
    """A node's ``_sum``, fixed when it is built, is the coefficient sum of
    its expansion, on every tree the exhaustive test walks."""
    words = [p for n in range(1, 5) for p in set_partition_patterns(n)]
    words += [(1, 2, 3, 4, 5), (1, 1, 1, 1, 1)]
    for word in words:
        for tree in all_trees(word):
            assert tree._sum == sum(c for _, c in expand_node(tree).items()), tree
    assert Slot(1)._sum == 1


def test_deep_right_nested_product_expands():
    """``x1*(x2*(...*x5000))`` expands without recursion to the one word
    headed by ``x1``: every right child has weight 0, and still gives its
    letters to the word."""
    chain = Leaf(5000)
    for i in range(4999, 0, -1):
        chain = Prod(Leaf(i), chain)
    got = expand_node(chain)
    assert got.terms() == [(PermMonomial(1, tuple(range(2, 5001))), 1)]
    assert_stored_exact(got)


def test_expansion_does_not_fold(monkeypatch):
    """Expansion walks each tree once by leaf weights, not by ``fold``."""
    from permalg import expr

    def refuse(*args, **kwargs):
        raise AssertionError("fold called")

    monkeypatch.setattr(expr, "fold", refuse)
    tree = Anti(Comm(Leaf(1), Leaf(4)), Prod(Leaf(2), Leaf(3)))
    assert expand_node(tree) == expand_fold_oracle(tree)
    terms = [(Fraction(1, 2), tree), (3, Comm(Leaf(2), Leaf(1)))]
    assert ExprSum(terms).expand() == fold_sum(terms)
    template = Anti(Comm(Leaf(1), Slot(1)), Prod(Leaf(2), Leaf(3)))
    assert expr._expand([(template, 1)], (4,)) == expand_node(tree)


def slot_trees():
    return st.recursive(
        st.one_of(leaves(3), st.integers(1, 3).map(Slot)),
        lambda sub: st.tuples(st.sampled_from([Prod, Comm, Anti]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        max_leaves=12,
    )


def mirrored(e):
    """The same element spelled differently: every anticommutator's
    children swapped."""
    if isinstance(e, (Leaf, Slot)):
        return e
    left, right = mirrored(e.left), mirrored(e.right)
    return Anti(right, left) if isinstance(e, Anti) else type(e)(left, right)


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    st.lists(st.tuples(fractions, slot_trees()), max_size=4),
    st.lists(st.tuples(fractions, slot_trees()), max_size=2),
    st.fixed_dictionaries({i: st.one_of(leaves(4), trees()) for i in (1, 2, 3)}),
)
def test_expansion_matches_fold_on_random_trees(terms, cancelled, mapping):
    """Trees of up to 12 leaves with repeated letters and substituted slots;
    the ``cancelled`` terms come back negated and mirrored, so their
    expansions cancel without their trees being equal."""
    items = terms + cancelled + [(-c, mirrored(t)) for c, t in cancelled]
    got = ExprSum(items).substitute(mapping).expand()
    assert got == fold_sum(terms, mapping)
    assert_stored_exact(got)


def is_stored_canonical(c):
    """A coefficient as an expansion stores it: an ``int`` when it is
    integral, and a ``Fraction`` only when it is not."""
    return is_stored_exact(c) and (type(c) is int) == (c.denominator == 1)


# numerators over mixed denominators, some of them integral, so that the
# common denominator of a sum is usually larger than any one of them
mixed_fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))


@given(
    st.lists(st.tuples(mixed_fractions, slot_trees()), max_size=4),
    st.lists(st.tuples(mixed_fractions, st.integers(-3, 3), slot_trees()), max_size=3),
    st.lists(st.tuples(mixed_fractions, slot_trees()), max_size=3),
    st.fixed_dictionaries({i: st.one_of(leaves(4), trees()) for i in (1, 2, 3)}),
)
def test_integer_expansion_over_mixed_denominators(free, whole, cancelled, mapping):
    """Expansion over one common denominator matches the fold oracle.
    Each ``whole`` triple ``(c, m, t)`` is ``c*t + (m - c)*mirrored(t)``,
    which expands to ``m`` times ``t`` with integral coefficients, and each
    ``cancelled`` pair ``c*t - c*mirrored(t)`` expands to zero; neither
    pair is one tree, so the denominators meet only in the sum.  Every
    stored coefficient is an ``int`` exactly when it is integral."""
    integral = [term for c, m, t in whole for term in ((c, t), (m - c, mirrored(t)))]
    cancelling = cancelled + [(-c, mirrored(t)) for c, t in cancelled]
    for items, expected in (
        (free + integral + cancelling, fold_sum(free + integral, mapping)),
        (integral + cancelling, fold_sum([(m, t) for _, m, t in whole], mapping)),
        (cancelling, PermPolynomial.zero()),
    ):
        got = ExprSum(items).substitute(mapping).expand()
        assert got == expected
        assert all(is_stored_canonical(c) for _, c in got.items())
    assert all(type(c) is int for _, c in ExprSum(integral).substitute(mapping).expand().items())


@given(
    st.lists(st.tuples(fractions, slot_trees()), min_size=1, max_size=3),
    st.lists(st.tuples(fractions, slot_trees()), max_size=2),
)
def test_check_identity_matches_fold(lhs, extra):
    """``check_identity`` gives the verdict, counterexample and residual
    of the distinct substitution, and no identification pattern fails
    where it holds.  The right side is the left mirrored plus ``extra``,
    so the template holds whenever ``extra`` expands to zero."""
    lhs = lhs + [(1, left_normed(Prod, [Slot(1), Slot(2), Slot(3)]))]
    rhs = [(c, mirrored(t)) for c, t in lhs] + extra
    template = IdentityTemplate(ExprSum(lhs), ExprSum(rhs))
    verdict = check_identity(template)
    (letters, distinct), *identified = pattern_residuals(template)
    if distinct:
        assert verdict == (False, letters, distinct)
        assert_stored_exact(verdict.residual)
    else:
        assert verdict == (True, None, None)
        assert not any(residual for _, residual in identified)


def pattern_residuals(template):
    """``lhs - rhs`` multiplied out under every identification pattern of
    the slots, the distinct pattern first, as ``(letters, residual)``
    pairs: pattern entry ``p`` is ``x_{m+p}``, above the fixed letters
    ``x_1 .. x_m`` of the terms that do not cancel."""
    terms = [(c, t) for t, c in (template.lhs - template.rhs).items()]
    fixed = max((max(leaf_letters(t), default=0) for _, t in terms), default=0)
    distinct = tuple(range(1, template.arity + 1))
    out = []
    for pattern in [distinct] + [p for p in set_partition_patterns(template.arity) if p != distinct]:
        letters = tuple(fixed + g for g in pattern)
        out.append((letters, fold_sum(terms, {i: Leaf(g) for i, g in enumerate(letters, start=1)})))
    return out


def leaf_letters(e):
    """The letters of a tree's fixed leaves, by plain recursion."""
    if isinstance(e, Leaf):
        return [e.index]
    if isinstance(e, Slot):
        return []
    return leaf_letters(e.left) + leaf_letters(e.right)


def test_check_identity_slots_avoid_fixed_letters():
    """``x1*a = a*x1`` fails at ``a = x2``; substituting ``x1`` for the
    slot, the fixed letter itself, would make it hold."""
    t = IdentityTemplate(Prod(Leaf(1), Slot(1)), Prod(Slot(1), Leaf(1)))
    verdict = check_identity(t)
    assert not verdict.holds
    assert verdict.counterexample == (2,)
    assert verdict.residual == PermPolynomial.from_word((1, 2)) - PermPolynomial.from_word((2, 1))
    # a law holds whatever its fixed letters
    assert check_identity(IdentityTemplate(Prod(Prod(Leaf(3), Slot(1)), Slot(2)), Prod(Prod(Leaf(3), Slot(2)), Slot(1)))).holds


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
    assert bool(IdentityVerdict(False)) is False
    assert t.names == ("a", "b")
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


def test_modes_agree_on_multilinear_templates():
    """The distinct substitution agrees with the identification patterns
    of the slots, the old ``polarized`` mode, which is now the oracle."""
    texts = [
        "{a,b} = {b,a}",
        "[[a,b],[c,d]] = 0",
        "a*b = b*a",
        "2*<{a,b},c,d> = <{a,b},d,c> + <{a,c},b,d> + <{b,c},a,d>",
        "a*a*b = a*b*a",
        "{a,a} = 2*a*a",
        "[a,b]*c = 0",
        "a*[b,c] = 0",
    ]
    # and with fixed letters: ``x3*a*b = x3*b*a`` holds, ``x1*a = a*x1`` does not
    templates = [parse_template(text) for text in texts] + [
        IdentityTemplate(Prod(Prod(Leaf(3), Slot(1)), Slot(2)), Prod(Prod(Leaf(3), Slot(2)), Slot(1))),
        IdentityTemplate(Prod(Leaf(1), Slot(1)), Prod(Slot(1), Leaf(1))),
    ]
    for t in templates:
        assert check_identity(t).holds is not any(r for _, r in pattern_residuals(t)), str(t)


def test_polarized_covers_squares():
    # {a,a} = 2 a*a holds; a*a = 0 does not
    a = Slot(1)
    t = IdentityTemplate(wrap(a).anti(a), 2 * wrap(a).prod(a))
    assert check_identity(t).holds
    t2 = IdentityTemplate(wrap(a).prod(a), 0 * wrap(a))
    assert not check_identity(t2).holds


def test_set_partition_patterns():
    pats = list(set_partition_patterns(3))
    assert pats == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    # the Bell numbers
    assert [len(list(set_partition_patterns(n))) for n in range(6)] == [0, 1, 2, 5, 15, 52]


def test_eight_slot_template_is_decided():
    """No slot count is refused: on 8 slots, swapping the last two factors
    of a product is a law and swapping the first two is not."""
    slots = [Slot(i) for i in range(1, 9)]
    lhs = left_normed(Prod, slots)
    assert check_identity(IdentityTemplate(lhs, left_normed(Prod, slots[:6] + slots[:5:-1]))).holds
    verdict = check_identity(IdentityTemplate(lhs, left_normed(Prod, slots[1::-1] + slots[2:])))
    assert not verdict.holds and verdict.counterexample == tuple(range(1, 9))


def test_template_slot_validation():
    with pytest.raises(ValueError, match="contiguous starting at 1: a has no term left"):
        IdentityTemplate(wrap(Slot(2)), wrap(Slot(2)))
    # a slot on the right only is a slot like any other
    t = IdentityTemplate(wrap(Slot(1)), wrap(Slot(1)).prod(Slot(2)))
    assert t.arity == 2 and not check_identity(t).holds
    assert check_identity(parse_template("0 = [a,b] + [b,a]")).holds
    assert parse_template("q*p = p*q").names == ("q", "p")


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
    # a leaf and a slot of one index are two nodes, and two terms of a sum
    assert Leaf(1) != Slot(1) and Slot(1) != Leaf(1)
    assert len(ExprSum([(1, Leaf(1)), (1, Slot(1))])) == 2
    assert hash(Comm(Slot(1), Leaf(2))) == hash(Comm(Slot(1), Leaf(2)))
    # nodes keep their fields in slots, not in an instance dict
    assert not any(hasattr(n, "__dict__") for n in (Leaf(1), Slot(1), Prod(Leaf(1), Leaf(2)), deep))


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
