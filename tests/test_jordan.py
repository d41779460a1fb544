from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.expr import Anti, ExprSum, Leaf, left_normed, wrap
from permalg.jordan import (
    FElement,
    NotJordanElement,
    bn_basis,
    cohn_witness,
    expand_bn,
    f_comb,
    ideal_component,
    jordan_express,
    sj_span,
    to_bn,
    verify_J_identities,
    verify_perm_plus_identities,
)
from permalg.linalg import Subspace
from permalg.perm import PermMonomial, PermPolynomial, dimension, enumerate_basis, letters, multidegrees

from oracles import f_terms_oracle, ideal_closure_oracle, jordan_express_oracle, sj_closure_oracle

x = PermPolynomial.from_word


def test_perm_plus_identity_suite():
    report = verify_perm_plus_identities()
    assert report.ok, report.failures()


def test_J_identity_suite():
    report = verify_J_identities()
    assert report.ok, report.failures()


def test_sj_span_dimensions():
    assert sj_span(2, 3).dim == dimension(2, 3) == 6
    assert sj_span(2, 2).dim == 3
    assert sj_span(3, 2).dim == 6  # k(k+1)/2
    assert sj_span(1, 5).dim == 1
    # multilinear degree-3 slice is everything
    from permalg.jordan import _sj_rows

    assert len(_sj_rows((1, 2, 3))) == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_slices_match_closure_oracle(k):
    from permalg.jordan import _FWitnesses, _row_witness, _sj_rows

    for n in range(1, 8):
        for md in (md for md in product(range(n + 1), repeat=k) if sum(md) == n):
            oracle = sj_closure_oracle(md)
            if n >= 3:
                # the 2^(n-3) law: each f-element expands to a multiple of its word
                for m in enumerate_basis(k, n, md):
                    word = PermPolynomial.from_monomial(m)
                    assert FElement(m.head, m.tail).expand() == 2 ** (n - 3) * word
                assert oracle.dim == len(oracle.monomials)
            closed = _sj_rows(letters(md))
            assert closed == oracle.basis()
            for row in closed:
                assert ExprSum._of(_row_witness(_FWitnesses(), row.terms()[0][0])).expand() == row


def test_sj_span_witnesses_expand_to_rows():
    sub = sj_span(2, 4)
    for row, witness in zip(sub.basis(), sub.expressions):
        assert witness.expand() == row


def test_jordan_express_paper_formula():
    # the degree-3 expression of a single word through anticommutators
    a, b, c = Leaf(1), Leaf(2), Leaf(3)
    combo = (
        Fraction(-1, 4) * wrap(a).anti(b).anti(c)
        + Fraction(3, 4) * wrap(b).anti(c).anti(a)
        + Fraction(-1, 4) * wrap(a).anti(c).anti(b)
    )
    assert combo.expand() == x((1, 2, 3))


def test_jordan_express_examples():
    expr = jordan_express(x((1, 2, 3)))
    assert str(expr) == "-1/4*{{x1,x2},x3} - 1/4*{{x1,x3},x2} + 3/4*{{x2,x3},x1}"
    assert expr.expand() == x((1, 2, 3))
    sym = x((1, 2)) + x((2, 1))
    expr2 = jordan_express(sym)
    assert expr2.expand() == sym
    with pytest.raises(NotJordanElement) as err:
        jordan_express(x((1, 2)))
    assert err.value.component == x((1, 2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jordan_express_degree_two_exhaustive(k):
    """Every coefficient vector in {-2..2} on the words of every degree-2
    multidegree: the closed form fails exactly where the closure oracle
    finds no witness, and otherwise gives the oracle's witness."""
    for md in multidegrees(k, 2):
        monos = enumerate_basis(k, 2, md)
        oracle = sj_closure_oracle(md)
        for coeffs in product(range(-2, 3), repeat=len(monos)):
            g = PermPolynomial(zip(monos, coeffs))
            expected = oracle.witness_for(g, ExprSum.zero())
            if expected is None:
                with pytest.raises(NotJordanElement) as err:
                    jordan_express(g)
                assert err.value.component == g
            else:
                got = jordan_express(g)
                assert str(got) == str(expected)
                assert got.expand() == g


def jordan_express_error(g):
    with pytest.raises(NotJordanElement) as err:
        jordan_express(g)
    return err.value.component


def test_jordan_express_reports_the_degree_two_slice_of_least_exponent_vector(rng):
    """With several non-Jordan degree-2 slices, the one reported is the
    one of least exponent vector, which among degree-2 slices is the one
    of greatest content."""
    assert str(jordan_express_error(x((1, 2)) + x((2, 3)) + x((1, 3)) + x((1,)) + x((1, 2, 3)))) == "x2*x3"
    assert str(jordan_express_error(x((3, 1)) + x((2, 4), 2) - x((4, 2)) + x((1, 1, 2)))) == "2*x2*x4 - x4*x2"
    for _ in range(100):
        g = PermPolynomial.zero()
        for _ in range(rng.randint(2, 6)):
            g = g + x((rng.randint(1, 4), rng.randint(1, 4)), rng.randint(-2, 2))
            g = g + x(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4))), rng.randint(-2, 2))
        bad = []  # in ascending exponent vector
        for md in multidegrees(4, 2):
            lo, hi = letters(md)
            if lo != hi and g.coefficient(PermMonomial(lo, (hi,))) != g.coefficient(PermMonomial(hi, (lo,))):
                bad.append(PermPolynomial((m, g.coefficient(m)) for m in enumerate_basis(4, 2, md)))
        if bad:
            assert jordan_express_error(g) == bad[0]
        else:
            assert jordan_express(g).expand() == g


def test_jordan_express_mixed_degrees():
    g = x((1,), 2) + x((1, 1)) + x((3, 1, 2), 5)
    expr = jordan_express(g)
    assert expr.expand() == g


@given(st.integers(1, 4), st.integers(3, 8), st.data())
def test_jordan_express_matches_the_f_comb_formula(k, n, data):
    """On a rational component of degree ``n``, ``jordan_express`` gives
    the same terms as ``c / 2^(n-3) * f_comb(x_head, x_a1, {..{x_a2,
    x_a3}, ..})`` summed over its words ``c * x_head*x_a1*...``."""
    md = data.draw(st.sampled_from(list(multidegrees(k, n))))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    g = PermPolynomial((m, data.draw(coeffs)) for m in enumerate_basis(k, n, md))
    expected = ExprSum()
    for m, c in g.items():
        a1, *rest = m.tail
        expected = expected + Fraction(c, 2 ** (n - 3)) * f_comb(Leaf(m.head), Leaf(a1), left_normed(Anti, rest))
    assert jordan_express(g) == expected


@pytest.mark.parametrize("word", [(1, 1, 2, 3), (2, 2, 2), (1, 1, 1, 2), (2, 2, 3, 3, 4)])
def test_f_element_with_its_head_first_has_two_terms(word):
    """When the head is also the first argument, ``{{b,c},a}`` and
    ``{{a,c},b}`` are one tree, so the ``f``-element is built as two
    terms; the witness and ``FElement.expr()`` equal the three-term
    ``f_comb`` and print as it does."""
    from permalg.jordan import _FWitnesses

    head, a1, *rest = word
    _, second, third = _FWitnesses().word(head, word[1:])
    assert second is third
    three = f_comb(Leaf(head), Leaf(a1), left_normed(Anti, rest))
    fe = FElement(head, tuple(word[1:]))
    assert fe.expr() == three and str(fe.expr()) == str(three)
    assert fe.expand() == x(word, 2 ** (len(word) - 3))
    g = x(word, Fraction(-5, 3))
    expected = Fraction(-5, 3 * 2 ** (len(word) - 3)) * three
    witness = jordan_express(g)
    assert witness == expected and str(witness) == str(expected)
    assert witness.expand() == g


@given(
    st.integers(2, 3),
    st.integers(3, 5),
    st.data(),
)
def test_jordan_express_roundtrip(k, n, data):
    monos = enumerate_basis(k, n)
    coeffs = data.draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=len(monos),
            max_size=len(monos),
        )
    )
    g = PermPolynomial(zip(monos, coeffs))
    assert jordan_express(g).expand() == g


def test_ideal_component_examples():
    pair = x((1, 2)) + x((2, 1))
    cube = x((1, 1, 1), 2)
    square = x((2, 2))
    gens = [pair, cube, square]
    ideal = ideal_component("jordan", gens, (2, 1))
    assert ideal.dim == 1
    assert ideal.contains(x((1, 1, 2), 3) + x((2, 1, 1)))
    perm_ideal = ideal_component("perm", gens, (2, 1))
    assert perm_ideal.dim == 2
    assert ideal_component("perm", [], (2, 1)).dim == 0
    assert ideal_component("jordan", [], (2, 1)).dim == 0


def test_ideal_component_validation():
    mixed = x((1, 2)) + x((1, 1))
    with pytest.raises(ValueError, match="inhomogeneous"):
        ideal_component("perm", [mixed], (2, 1))
    for ambient in ("perm", "jordan"):
        with pytest.raises(ValueError, match="inhomogeneous"):
            ideal_component(ambient, [x((2,)), x((1, 2)) + x((1, 1, 2))], (2, 1))
        with pytest.raises(ValueError, match="x3 beyond 2 generators"):
            ideal_component(ambient, [x((3, 1))], (2, 1))
    with pytest.raises(ValueError, match="ambient"):
        ideal_component("weird", [], (1, 1))
    # no degree bound: at (39, 1) the pair {x1,x2} (sum 2) brings both
    # words, the zero-sum commutator only itself with the letters appended
    assert ideal_component("perm", [], (39, 1)).dim == 0
    pair = ideal_component("jordan", [x((1, 2)) + x((2, 1))], (39, 1))
    assert pair.dim == len(pair.monomials) == 2
    comm = ideal_component("jordan", [x((1, 2)) - x((2, 1))], (39, 1))
    assert comm.basis() == [x((1, 1) + (1,) * 37 + (2,)) - x((2,) + (1,) * 39)]


def _generators(k, max_degree):
    """Every generator of degree <= ``max_degree`` on ``k`` letters with
    coefficients in {-1, 0, 1, 2}: one-letter and zero-sum ones included."""
    for n in range(1, max_degree + 1):
        for md in multidegrees(k, n):
            words = enumerate_basis(k, n, md)
            for coeffs in product((-1, 0, 1, 2), repeat=len(words)):
                yield PermPolynomial(zip(words, coeffs))


@pytest.mark.parametrize("ambient", ["perm", "jordan"])
@pytest.mark.parametrize("k, gen_degree, max_degree", [(1, 3, 8), (2, 2, 5), (3, 2, 4)])
def test_ideal_component_matches_closure_single_generator(ambient, k, gen_degree, max_degree):
    """The closed form against the closure on every small generator and
    every target up to ``max_degree``, including targets the generator is
    not below."""
    for g in _generators(k, gen_degree):
        for n in range(1, max_degree + 1):
            for md in multidegrees(k, n):
                got = ideal_component(ambient, [g], md).basis()
                assert got == ideal_closure_oracle(ambient, [g], md).basis(), (g, md)


@pytest.mark.parametrize("ambient", ["perm", "jordan"])
def test_ideal_component_matches_closure_random(ambient, rng):
    """Seeded sets of 0-3 generators, some forced to coefficient sum 0."""
    for _ in range(150):
        k = rng.randint(1, 4)
        n = rng.randint(1, 7 if k <= 2 else 5)
        md = rng.choice(list(multidegrees(k, n)))
        gens = []
        for _ in range(rng.randint(0, 3)):
            gmd = rng.choice(list(multidegrees(k, rng.randint(1, n))))
            words = enumerate_basis(k, sum(gmd), gmd)
            coeffs = [rng.randint(-2, 2) for _ in words]
            if rng.random() < 0.3:
                coeffs[-1] -= sum(coeffs)
            gens.append(PermPolynomial(zip(words, coeffs)))
        got = ideal_component(ambient, gens, md).basis()
        assert got == ideal_closure_oracle(ambient, gens, md).basis(), (gens, md)


@pytest.mark.parametrize(
    "gens, md, dims",
    [
        # zero-sum: only the generator with the letters appended
        ([x((1, 2)) - x((2, 1))], (2, 1, 1), (1, 1)),
        # a letter: the whole slice on the associative side; on the
        # anticommutator side, one letter short of it only x1*x2 + x2*x1
        ([x((1,))], (1, 1), (2, 1)),
        ([x((1,))], (2, 1), (2, 2)),
        # x1^3 is not below (2, 3)
        ([x((1, 1, 1))], (2, 3), (0, 0)),
    ],
)
def test_ideal_component_edge_generators(gens, md, dims):
    for ambient, dim in zip(("perm", "jordan"), dims):
        got = ideal_component(ambient, gens, md)
        assert got.dim == dim
        assert got.basis() == ideal_closure_oracle(ambient, gens, md).basis()


def test_ideal_component_builds_no_witnesses(monkeypatch):
    """The anticommutator ideal uses only the rows of each slice, so it
    builds no ``f``-element witness trees."""
    import permalg.jordan as jordan

    calls = []
    build = jordan._FWitnesses.word
    monkeypatch.setattr(jordan._FWitnesses, "word", lambda *args: calls.append(args) or build(*args))
    ideal_component("jordan", [x((1, 2)) + x((2, 1)), x((3, 3))], (2, 2, 1))
    assert len(calls) == 0
    sj_span(2, 3)  # the probe sees the witnesses sj_span does build
    assert len(calls) == dimension(2, 3)


def test_cohn_witness_report():
    report = cohn_witness()
    assert report.witness == x((1, 1, 2)) + x((2, 1, 1))
    assert report.ideal_slice_dim == 1
    assert report.perm_slice_dim == 2
    assert not report.in_ideal_slice
    assert report.in_perm_slice
    assert report.in_sj_slice
    assert report.exceptional


def test_f_comb_examples():
    assert f_comb(Leaf(1), Leaf(2), Leaf(3)).expand() == x((1, 2, 3))
    assert f_comb(Leaf(1), Leaf(1), Leaf(1)).expand() == x((1, 1, 1))
    for a, b, c in [(1, 2, 3), (2, 2, 3), (3, 1, 1)]:
        lhs = f_comb(Leaf(a), Leaf(b), Leaf(c)).expand()
        rhs = f_comb(Leaf(a), Leaf(c), Leaf(b)).expand()
        assert lhs == rhs


def test_bn_basis_counts():
    assert [str(e) for e in bn_basis(3, 3)][:3] == [
        "f(x1;x1,x1)",
        "f(x1;x1,x2)",
        "f(x1;x1,x3)",
    ]
    multilinear = [e for e in bn_basis(3, 3) if set(e.args) | {e.head} == {1, 2, 3} and len(set(e.args)) == 2]
    assert [str(e) for e in multilinear] == [
        "f(x1;x2,x3)",
        "f(x2;x1,x3)",
        "f(x3;x1,x2)",
    ]
    assert len(bn_basis(2, 3)) == 6
    assert [str(e) for e in bn_basis(1, 4)] == ["f(x1;x1,x1*x1)"]
    with pytest.raises(ValueError):
        bn_basis(2, 2)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bn_expansion_matrix_invertible(k, n):
    elements = bn_basis(k, n)
    assert len(elements) == dimension(k, n)
    sub = Subspace(enumerate_basis(k, n))
    for e in elements:
        assert sub.add(e.expand()), f"dependent expansion at {e}"
    assert sub.dim == dimension(k, n)


def test_to_bn_degree_three():
    combo = to_bn((1, 2, 3))
    as_strs = [(str(c), str(fe)) for c, fe in combo]
    assert as_strs == [
        ("1", "f(x1;x2,x3)"),
        ("1", "f(x2;x1,x3)"),
        ("2", "f(x3;x1,x2)"),
    ]


def test_to_bn_rejects_short_words():
    with pytest.raises(ValueError):
        to_bn((1, 2))


@given(st.lists(st.integers(1, 3), min_size=3, max_size=5))
def test_to_bn_roundtrip(word):
    combo = to_bn(word)
    expected = ExprSum.of(left_normed(Anti, word)).expand()
    assert expand_bn(combo) == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_to_bn_roundtrip_exhaustive(n):
    for word in product((1, 2, 3), repeat=n):
        expected = ExprSum.of(left_normed(Anti, word)).expand()
        assert expand_bn(to_bn(word)) == expected, word


def test_to_bn_long_flat_word():
    # {..{x,x},..,x} on n letters is 2^(n-1) x^n and f(x;x,x^(n-2)) is
    # 2^(n-3) x^n, so the combination is 4 f(x;x,x^(n-2)) for every n
    assert to_bn((1,) * 1200) == [(Fraction(4), FElement(1, (1,) * 1199))]


@pytest.mark.parametrize("n", [3, 4, 10, 1000])
def test_to_bn_two_letter_flat_word_exact(n):
    # x2*x1^(n-1): the head x2 weighs 1, the n-1 letters x1 weigh
    # 1 + 2 + ... + 2^(n-2) = 2^(n-1) - 1, over the 2^(n-3) of the law
    assert to_bn((2,) + (1,) * (n - 1)) == [
        (Fraction(2 ** (n - 1) - 1, 2 ** (n - 3)), FElement(1, (1,) * (n - 2) + (2,))),
        (Fraction(1, 2 ** (n - 3)), FElement(2, (1,) * (n - 1))),
    ]


def test_to_bn_builds_one_f_element_per_distinct_letter(monkeypatch):
    import permalg.jordan as jordan

    built = []

    class Counting(FElement):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(args[0])
            return super().__new__(cls, *args)

    word = (2,) + (1,) * 3998 + (3,)
    expected = to_bn(word)
    monkeypatch.setattr(jordan, "FElement", Counting)
    assert to_bn(word) == expected
    assert built == [1, 2, 3]


def test_felement_roundtrip_through_to_bn():
    # expanding an f-element and re-solving it via the triple-product route
    fe = FElement(2, (1, 3))
    assert expand_bn([(Fraction(1), fe)]) == fe.expand()


# ---------------------------------------------------------------------------
# the per-call witness builder against the word-by-word oracle

# (k, n) of every multidegree the differential tests cover
WITNESS_DEGREES = [(k, n) for k in (1, 2, 3) for n in range(1, 8)] + [(4, n) for n in range(1, 6)]
COEFFICIENTS = [Fraction(p, q) for p in (-5, -3, -1, 1, 2, 4, 6) for q in (1, 2, 3, 4, 12)]


def same_witness(got, want):
    """Equal as sums, printed alike, the same coefficient on every tree,
    and every integral coefficient of an ``f``-element tree an ``int``."""
    assert got == want
    assert str(got) == str(want)
    assert [c for _, c in got.terms()] == [c for _, c in want.terms()]
    assert all(type(c) is int for node, c in got.items() if node._size > 2 and c.denominator == 1)


def seeded_coefficient(rng):
    """One of ``COEFFICIENTS``, stored as an ``int`` when integral."""
    c = rng.choice(COEFFICIENTS)
    return c.numerator if c.denominator == 1 else c


def seeded_component(rng, k, n, md):
    """The words of ``md`` with seeded coefficients; at degree 2 a multiple
    of the slice's one row, which is all ``jordan_express`` accepts there."""
    if n == 2:
        (row,) = sj_closure_oracle(md).basis()
        return seeded_coefficient(rng) * row
    return PermPolynomial._of({m: seeded_coefficient(rng) for m in enumerate_basis(k, n, md)})


@pytest.mark.parametrize("k, n", WITNESS_DEGREES)
def test_jordan_express_matches_word_by_word_oracle(k, n, rng):
    for md in multidegrees(k, n):
        g = seeded_component(rng, k, n, md)
        same_witness(jordan_express(g), jordan_express_oracle(g))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_jordan_express_of_many_contents_matches_oracle(k, rng):
    """Every content of degrees 1 to 5 at once: contents never share a
    tree, so each content's sum stands as it is."""
    g = PermPolynomial.zero()
    for n in range(1, 6):
        for md in multidegrees(k, n):
            g = g + seeded_component(rng, k, n, md)
    same_witness(jordan_express(g), jordan_express_oracle(g))


def test_shared_tree_cancels_like_the_oracle(rng):
    """``{{x_b, c}, x_a}`` is a tree of the word headed by ``a`` (with
    coefficient ``3q``) and of the word headed by ``b`` (with ``-q``) when
    ``b`` is the least other letter of ``a``'s word and ``a`` of ``b``'s.
    With ``c_b = 3*c_a`` it sums to zero and leaves both witnesses.  At
    degree 3 with a repeated letter a third term can be that tree too, so
    those contents are left out."""
    cancelled = 0
    for k, n in WITNESS_DEGREES:
        for md in multidegrees(k, n) if n >= 3 else ():
            content = letters(md)
            if n == 3 and len(set(content)) < 3:
                continue
            for a, b in product(sorted(set(content)), repeat=2):
                rest_a, rest_b = list(content), list(content)
                rest_a.remove(a)
                rest_b.remove(b)
                if a == b or min(rest_a) != b or min(rest_b) != a:
                    continue
                g = seeded_component(rng, k, n, md)
                c = g.coefficient(PermMonomial(a, tuple(rest_a)))
                word_b = PermMonomial(b, tuple(rest_b))
                g = g + PermPolynomial.from_monomial(word_b, 3 * c - g.coefficient(word_b))
                rest_a.remove(b)
                shared = Anti(Anti(Leaf(b), left_normed(Anti, rest_a)), Leaf(a))
                got = jordan_express(g)
                assert got.coefficient(shared) == 0
                same_witness(got, jordan_express_oracle(g))
                cancelled += 1
    assert cancelled > 100, cancelled


@pytest.mark.parametrize("k, n", WITNESS_DEGREES)
def test_sj_span_witnesses_match_oracle(k, n):
    space = sj_span(k, n)
    for row, witness in zip(space.basis(), space.expressions):
        same_witness(witness, jordan_express_oracle(row))


@pytest.mark.parametrize("k, n", [(k, n) for k, n in WITNESS_DEGREES if n >= 3])
def test_f_elements_and_expand_bn_match_oracle(k, n, rng):
    """``FElement.expr()`` is the witness of ``2^(n-3)`` times its word; and
    ``expand_bn`` of a seeded combination, with one element repeated and a
    lower degree mixed in, expands the oracle's terms."""
    basis = bn_basis(k, n)
    for fe in basis:
        word = PermPolynomial.from_monomial(PermMonomial(fe.head, fe.args), 2 ** (n - 3))
        same_witness(fe.expr(), jordan_express_oracle(word))
    combination = [(rng.choice(COEFFICIENTS), fe) for fe in basis + basis[:2]]
    if n > 3:
        combination += [(rng.choice(COEFFICIENTS), fe) for fe in bn_basis(k, n - 1)]
    want = ExprSum(
        (coeff * c, node)
        for coeff, fe in combination
        for c, node in f_terms_oracle(Fraction(1, 4), fe.head, fe.args)
    ).expand()
    got = expand_bn(combination)
    assert got == want and str(got) == str(want)
    assert [c for _, c in got.terms()] == [c for _, c in want.terms()]
