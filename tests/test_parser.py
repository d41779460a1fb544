from fractions import Fraction
from functools import reduce

import pytest

from permalg import parser
from permalg.expr import Anti, Comm, ExprSum, Leaf, Prod, Slot, check_identity
from permalg.parser import (
    ExprSyntaxError,
    parse_envelope_expr,
    parse_expr,
    parse_template,
    parse_word,
)
from permalg.perm import PermPolynomial

x = PermPolynomial.from_word


def test_parse_basic_forms():
    assert parse_expr("[x1,x2]") == ExprSum.of(Comm(Leaf(1), Leaf(2)))
    assert parse_expr("{{x1,x2},{x3,x4}}") == ExprSum.of(
        Anti(Anti(Leaf(1), Leaf(2)), Anti(Leaf(3), Leaf(4)))
    )
    half = parse_expr("1/2 {x1,x1}")
    assert half == Fraction(1, 2) * ExprSum.of(Anti(Leaf(1), Leaf(1)))


def test_parse_products_left_normed():
    got = parse_expr("x1*x2*x3")
    assert got == ExprSum.of(Prod(Prod(Leaf(1), Leaf(2)), Leaf(3)))
    assert parse_expr("x1 x2 x3") == got
    assert parse_expr("(x1*x2)*x3") == got


def test_parse_scalars_and_signs():
    assert parse_expr("2x1").expand() == x((1,), 2)
    assert parse_expr("3/4 x1 x2").expand() == x((1, 2), Fraction(3, 4))
    # unary minus binds loosest
    assert parse_expr("-x1 + x2").expand() == -(x((1,)) + x((2,)))
    assert parse_expr("x1 - x2").expand() == x((1,)) - x((2,))
    assert parse_expr("0").expand().is_zero
    # a sign after + or - belongs to the next term
    assert parse_expr("x1 + -3/2*x3") == parse_expr("x1 - 3/2*x3")
    assert parse_expr("x1 - -x2") == parse_expr("x1 + x2")
    assert parse_expr("x1 - +x2") == parse_expr("x1 - x2")
    assert parse_expr("x1 + -x2*x3 - -2 x4").expand() == x((1,)) - x((2, 3)) + x((4,), 2)
    for text in ("x1 + - -x2", "x1 - -", "x1 * -x2"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(text)


def test_parse_associator():
    got = parse_expr("<x1,x2,x3>").expand()
    manual = (
        ExprSum.of(Anti(Anti(Leaf(1), Leaf(2)), Leaf(3)))
        - ExprSum.of(Anti(Leaf(1), Anti(Leaf(2), Leaf(3))))
    ).expand()
    assert got == manual


def test_parse_e_names_and_unknowns():
    assert parse_expr("e2") == ExprSum.of(Leaf(2))
    with pytest.raises(ExprSyntaxError, match="unknown generator"):
        parse_expr("foo")
    with pytest.raises(ExprSyntaxError, match="unknown generator"):
        parse_expr("x1x2")  # juxtaposed names need a separator


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError, match="position"):
        parse_expr("[x1,x2")
    with pytest.raises(ExprSyntaxError, match="position 7"):
        parse_expr("x1*x2 +")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0 x1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("3 + 4")  # scalar without a monomial
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 * - x2")


def test_a_number_may_precede_a_name_that_is_no_exponent():
    """Juxtaposition still multiplies: ``2x1``, ``2 e1`` and ``2*e1`` are
    the same product, and a scalar is an ``int`` unless it has a denominator."""
    assert parse_expr("2 e1") == parse_expr("2*e1") == parse_expr("2x1")
    ((_, c),) = parse_expr("2x1").items()
    assert type(c) is int
    ((_, c),) = parse_expr("6/3 x1").items()
    assert type(c) is Fraction and c == 2


def envelope(text):
    return parse_envelope_expr(text, ("e1", "e2", "e3"))


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_expr, "[x1 x2]", "expected ','", 6),
        (parse_expr, "{x1}", "expected ','", 3),
        (parse_expr, "<x1,x2>", "expected ','", 6),
        (parse_expr, "<x1,x2,x3", "expected '>'", 9),
        (parse_expr, "(x1", "expected ')'", 3),
        (parse_expr, "[x1,x2", "expected ']'", 6),
        (parse_expr, "{x1,x2", "expected '}'", 6),
        (envelope, "d(1)", "expected a letter inside d(...)", 2),
        (envelope, "d(zz)", "unknown generator 'zz'", 2),
        (envelope, "d(e1", "expected ')'", 4),
        (envelope, "<e1,e2,e3>", "brackets are not part of envelope expressions", 0),
        (envelope, "{e1,e2}", "brackets are not part of envelope expressions", 0),
        (envelope, "e1*[e1,e2]", "brackets are not part of envelope expressions", 3),
        (parse_expr, "foo", "unknown generator 'foo'", 0),
        (parse_expr, "d(x1)", "unknown generator 'd'", 0),
        (parse_word, "x1*y2", "unknown generator 'y2'", 3),
        (envelope, "x1", "unknown generator 'x1'", 0),
        # a template's positions count from its start, on either side of '='
        (parse_template, "a*b = [a b]", "expected ','", 10),
        (parse_template, "a*b = b $ a", "unexpected character '$'", 8),
        (parse_template, "[a,b] = c*", "expected a factor after '*'", 10),
        (parse_template, "a b ] = c", "unexpected ']'", 4),
        # errors found once the text is read give the offending term or factor
        (envelope, "d(e1)*e2 + e1*e2", "each envelope word needs exactly one dotted letter, found 0", 11),
        (envelope, "(d(e1) + e1)*e2", "each envelope word needs exactly one dotted letter, found 0", 0),
        (envelope, "d(e1)*(e2) + e2", "each envelope word needs exactly one dotted letter, found 0", 13),
        (envelope, "e3 + d(e1)*d(e2)", "each envelope word needs exactly one dotted letter, found 0", 0),
        (envelope, "d(e3) + d(e1)*d(e2)*e3", "each envelope word needs exactly one dotted letter, found 2", 8),
        (parse_word, "x1*x2*(x3*x1)", "word must be left-normed", 6),
        (parse_word, " (x1*(x2*x3))", "word must be left-normed", 1),
        (parse_word, "x1*[x2,x3]*(x1*x2)", "expected a plain product of generators", 3),
        (parse_word, "x1*x2*3", "expected a word without a coefficient", 6),
        (parse_word, "x1*(-x2)*x3", "expected a word without a coefficient", 3),
        (parse_word, "x1*(2*x2)*1/2*3", "expected a word without a coefficient", 3),
        # a single product word: the token after it, a factor of several terms, or a bare scalar
        (parse_word, "x1*x2*x3 + x1", "expected a single product word", 9),
        (parse_word, "x1*(x2 + x3)*x1", "expected a single product word", 3),
        (parse_word, " 3", "expected a single product word", 1),
        (parse_word, "x1 x2 = x3", "expected a single product word", 6),
        # a number right before an e<digits> name reads as a float literal
        (parse_expr, "1e5*x1", "1e5 reads as a float; write 1*e5 for a product", 0),
        (parse_expr, "x1 + 2/3e2", "3e2 reads as a float; write 3*e2 for a product", 7),
        (parse_word, "x1*1e2", "1e2 reads as a float; write 1*e2 for a product", 3),
        (envelope, "2e1*d(e2)", "2e1 reads as a float; write 2*e1 for a product", 0),
    ],
)
def test_error_message_and_position(parse, text, message, position):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize("text, position", [("x1 +   $x2", 7), ("x1 + $", 5), ("$", 0), ("x1\t#", 3)])
def test_bad_character_position_is_the_character(text, position):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(text)
    assert str(info.value) == f"unexpected character {text[position]!r} (at position {position})"


def test_template_slots_number_in_order_of_first_appearance():
    t = parse_template("[b,a] = [a,b]")
    assert t.lhs == ExprSum.of(Comm(Slot(1), Slot(2)))
    assert t.rhs == ExprSum.of(Comm(Slot(2), Slot(1)))
    t = parse_template("c*(b*a) = a*b*c")
    assert t.lhs == ExprSum.of(Prod(Slot(1), Prod(Slot(2), Slot(3))))
    assert t.rhs == ExprSum.of(Prod(Prod(Slot(3), Slot(2)), Slot(1)))


def test_print_parse_round_trip():
    cases = [
        "x1*x2 - x2*x1",
        "[x1,x2]",
        "{{x1,x2},x3}",
        "2*x1*x1*x2 + 1/2*x3",
        "-x1",
    ]
    for text in cases:
        poly = parse_expr(text).expand()
        reparsed = parse_expr(str(poly)).expand()
        assert reparsed == poly
        assert str(reparsed) == str(poly)


def test_parse_template():
    t = parse_template("[[a,b],[c,d]] = 0")
    assert t.arity == 4
    assert check_identity(t).holds
    t2 = parse_template("a*b = b*a")
    assert not check_identity(t2).holds
    with pytest.raises(ExprSyntaxError, match="exactly one"):
        parse_template("a*b = b*a = 0")


def test_parse_word():
    assert parse_word("x1*x2*x3") == (1, 2, 3)
    assert parse_word("x2 x1 x1") == (2, 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse_word("x1 + x2")
    with pytest.raises(ExprSyntaxError):
        parse_word("2 x1 x2")
    with pytest.raises(ExprSyntaxError, match="left-normed"):
        parse_word("x1*(x2*x3)")


def test_parse_envelope_expr():
    labels = ("e1", "e2", "e3")
    got = parse_envelope_expr("d(e2)*e1", labels)
    assert got == [(Fraction(1), 2, (1,))]
    got = parse_envelope_expr("d(e1)*e2 - d(e3)", labels)
    assert sorted(got) == [(Fraction(-1), 3, ()), (Fraction(1), 1, (2,))]
    got = parse_envelope_expr("1/2 d(e1)*e1*e1", labels)
    assert got == [(Fraction(1, 2), 1, (1, 1))]
    got = parse_envelope_expr("2*d(e1)*(e2-e3)*e1", labels)
    assert sorted(got) == [(Fraction(-2), 1, (3, 1)), (Fraction(2), 1, (2, 1))]
    with pytest.raises(ExprSyntaxError, match="exactly one dotted"):
        parse_envelope_expr("e1*e2", labels)
    with pytest.raises(ExprSyntaxError, match="exactly one dotted"):
        parse_envelope_expr("d(e1)*d(e2)", labels)
    with pytest.raises(ExprSyntaxError, match="not part of envelope"):
        parse_envelope_expr("[e1,e2]", labels)
    with pytest.raises(ExprSyntaxError, match="unknown"):
        parse_envelope_expr("d(zz)", labels)


def test_dotted_letter_is_its_own_node_kind():
    """A plain letter past the millionth stays plain: a dotted letter is a
    node of its own kind, so no label index reads as a dot.  The filler
    labels between ``a`` and ``L1000001`` are never read."""
    labels = ["a"] + ["filler"] * 999_999 + ["L1000001", "b"]
    assert parse_envelope_expr("d(a)*L1000001", labels) == [(Fraction(1), 1, (1_000_001,))]
    assert parse_envelope_expr("d(L1000001)*a*b", labels) == [(Fraction(1), 1_000_001, (1, 1_000_002))]


def test_flat_product_parses_in_linear_work(monkeypatch):
    """A flat product of ``n`` letters builds its ``n - 1`` product nodes
    once each."""
    built = 0

    class CountingProd(Prod):
        def __init__(self, left, right):
            nonlocal built
            built += 1
            super().__init__(left, right)

    monkeypatch.setattr(parser, "Prod", CountingProd)
    for n in (100, 200):
        built = 0
        parse_expr("*".join(["x1"] * n))
        assert built == n - 1


@pytest.mark.parametrize(
    "coeff, factors",
    [
        (1, ["x1+2*x2", "[x1,x3]", "x2-x3"]),
        (3, ["x1-x2", "x3", "x1+x3", "{x2,x1}"]),
        (1, ["x1*x2", "x3", "x2*x1 - x1*x2"]),
        (-2, ["x1+x2", "x1-x2"]),
    ],
)
def test_flat_product_matches_factor_by_factor(coeff, factors):
    text = "*".join([str(coeff)] + [f"({f})" for f in factors])
    expected = coeff * reduce(ExprSum.prod, map(parse_expr, factors))
    assert parse_expr(text) == expected
