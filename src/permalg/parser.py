"""Text grammar for expressions and identity templates.

Grammar (loosest to tightest): leading unary minus, then ``+``/``-``
(either may carry one sign: ``x1 - -x2`` is ``x1 + x2``), then
juxtaposition or ``*``.  Atoms are names, rational scalars ``p`` or
``p/q``, bracket forms ``[a,b]`` (commutator), ``{a,b}`` (anticommutator),
``<a,b,c>`` (associator), parentheses, and, in envelope expressions,
dotted letters spelled ``d(name)``.  One resolver per entry point turns a
name into a node: in expressions and words ``x<n>`` or ``e<n>`` is the
generator ``n``; a template ``lhs = rhs`` binds every name to a slot in
order of first appearance; an envelope expression reads the algebra's
labels.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .expr import (
    ExprSum,
    IdentityTemplate,
    Leaf,
    Node,
    Prod,
    Slot,
    associator,
    fold,
)

__all__ = [
    "ExprSyntaxError",
    "parse_envelope_expr",
    "parse_expr",
    "parse_template",
    "parse_word",
]


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_INDEXED = re.compile(r"[xe]([1-9][0-9]*)")


def _indexed(name: str) -> Leaf | None:
    """``x<n>`` or ``e<n>`` is the generator ``n``; any other name is unknown."""
    m = _INDEXED.fullmatch(name)
    return Leaf(int(m.group(1))) if m else None


# a name that, written right after a number, would read as its exponent
_EXPONENT = re.compile(r"e[0-9]")

_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/(),=\[\]{}<>]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


# opening symbol -> closing symbol, operand count and the form it builds
_BRACKETS = {
    "[": ("]", 2, ExprSum.comm),
    "{": ("}", 2, ExprSum.anti),
    "<": (">", 3, associator),
}
_ATOM_SYMS = {"(", *_BRACKETS}


class _Parser:
    """Recursive descent over one text.  ``resolve`` turns each name into
    its node, or None for an unknown name; ``envelope`` reads ``d(name)``
    as a dotted letter, refuses brackets and keeps in ``starts`` where each
    term of the whole expression first starts, for errors found later."""

    def __init__(self, text: str, resolve: Callable[[str], Leaf | Slot | None], envelope: bool = False):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.resolve = resolve
        self.envelope = envelope
        self.starts: dict[Node, int] = {}
        self.depth = 0  # parentheses open around the product being read

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, sym: str):
        kind, text, at = self.next()
        if kind != "sym" or text != sym:
            raise ExprSyntaxError(f"expected {sym!r}", at)

    def parse(self, stop: str | None = None) -> ExprSum:
        """An expression up to the end of the text, or up to ``stop``, which it consumes."""
        expr = self.expression()
        _, text, at = self.next()
        if text != stop:  # the end of the text reads as None
            raise ExprSyntaxError(f"unexpected {text!r}", at)
        return expr

    def expression(self) -> ExprSum:
        kind, text, _ = self.peek()
        if kind == "sym" and text == "-":
            self.next()
            return -self.expression()
        return self.sum()

    def sum(self) -> ExprSum:
        acc = self.product()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "+-":
                self.next()
                if (sign := self.peek())[0] == "sym" and sign[1] in "+-":
                    self.next()
                    text = "+" if text == sign[1] else "-"
                term = self.product()
                acc = acc + term if text == "+" else acc - term
            else:
                return acc

    def factors(self) -> list[tuple[int, Fraction | int | ExprSum]]:
        """The scalars and factors of one product, with positions, not yet multiplied."""
        items: list[tuple[int, Fraction | int | ExprSum]] = []
        while True:
            kind, text, at = self.peek()
            if kind == "number":
                items.append((at, self.rational()))
            elif kind == "name" or (kind == "sym" and text in _ATOM_SYMS):
                items.append((at, self.atom()))
            elif kind == "sym" and text == "*":
                if not items:
                    raise ExprSyntaxError("unexpected '*'", at)
                self.next()
                nkind, ntext, nat = self.peek()
                if not (nkind in ("number", "name") or (nkind == "sym" and ntext in _ATOM_SYMS)):
                    raise ExprSyntaxError("expected a factor after '*'", nat)
            else:
                break
        if not items:
            raise ExprSyntaxError("expected an expression", at)
        return items

    def product(self) -> ExprSum:
        start = self.peek()[2]
        items = self.factors()
        coeff = prod(f for _, f in items if type(f) is not ExprSum)
        factors = [f for _, f in items if type(f) is ExprSum]
        if not factors:
            if coeff == 0:
                return ExprSum.zero()
            _, _, at = self.peek()
            raise ExprSyntaxError("scalar without a monomial", at)
        # distribute over all factors at once: each choice of one term per
        # factor is one left-nested Prod chain, and one ExprSum holds them
        # all, so each tree is hashed once instead of once a factor
        terms = []
        for choice in itertools.product(*(f.items() for f in factors)):
            (node, c), *rest = choice
            c *= coeff
            for right, rc in rest:
                node = Prod(node, right)
                c *= rc
            terms.append((c, node))
            if self.envelope and not self.depth:
                self.starts.setdefault(node, start)
        return ExprSum(terms)

    def rational(self) -> Fraction | int:
        """A scalar ``p``, an ``int``, or ``p/q``, a ``Fraction``."""
        kind, text, at = self.next()
        num = int(text)
        kind, nxt, _ = self.peek()
        if kind == "sym" and nxt == "/":
            self.next()
            dkind, dtext, dat = self.next()
            if dkind != "number":
                raise ExprSyntaxError("expected a denominator", dat)
            den = int(dtext)
            if den == 0:
                raise ExprSyntaxError("zero denominator", dat)
            self.no_exponent(dtext, dat)
            return Fraction(num, den)
        self.no_exponent(text, at)
        return num

    def no_exponent(self, number: str, at: int) -> None:
        """Refuse the number at ``at`` when an ``e<digits>`` name follows it
        with no space: ``1e5`` reads as a float, not as ``1*e5``."""
        kind, name, nat = self.peek()
        if kind == "name" and nat == at + len(number) and _EXPONENT.match(name):
            raise ExprSyntaxError(f"{number}{name} reads as a float; write {number}*{name} for a product", at)

    def atom(self) -> ExprSum:
        kind, text, at = self.next()
        if kind == "name":
            dotted = self.envelope and text == "d" and self.peek()[:2] == ("sym", "(")
            if dotted:
                self.next()
                kind, text, at = self.next()
                if kind != "name":
                    raise ExprSyntaxError("expected a letter inside d(...)", at)
            node = self.resolve(text)
            if node is None:
                raise ExprSyntaxError(f"unknown generator {text!r}", at)
            if dotted:
                self.expect(")")
                # the envelope grammar has no slots: a slot is the dotted letter
                node = Slot(node.index)
            return ExprSum.of(node)
        if kind == "sym" and text == "(":
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            self.expect(")")
            return inner
        if kind == "sym" and text in _BRACKETS:
            if self.envelope:
                raise ExprSyntaxError("brackets are not part of envelope expressions", at)
            close, arity, build = _BRACKETS[text]
            operands = [self.expression()]
            for _ in range(arity - 1):
                self.expect(",")
                operands.append(self.expression())
            self.expect(close)
            return build(*operands)
        raise ExprSyntaxError(f"unexpected {text!r}", at)


def parse_expr(text: str) -> ExprSum:
    """Parse a free-algebra expression into a formal combination of trees."""
    return _Parser(text, _indexed).parse()


def parse_template(text: str) -> IdentityTemplate:
    """Parse ``lhs = rhs`` in one pass, every name bound to a slot; ``rhs``
    may be 0.  The template keeps the names in slot order."""
    if text.count("=") != 1:
        raise ExprSyntaxError("template must contain exactly one '='", text.find("=") if "=" in text else len(text))
    slots: dict[str, Slot] = {}

    def bind(name: str) -> Slot:
        # a new name takes the next slot, on either side of the '='
        if name not in slots:
            slots[name] = Slot(len(slots) + 1)
        return slots[name]

    parser = _Parser(text, bind)
    return IdentityTemplate(parser.parse("="), parser.parse(), list(slots))


def _letters(node: Node, message: str, at: int, left_normed: bool = False) -> list[Leaf | Slot]:
    """The leaves and slots of a product tree, left to right.  Any other node is
    the error ``message``, and with ``left_normed`` so is a product whose
    right factor is a product; a subtree's value is its letters or its
    first error in reading order, raised at the root with position ``at``."""

    def binary(n: Node, left, right):
        if type(n) is not Prod:
            return message
        if type(left) is str:
            return left
        if left_normed and type(n.right) is Prod:
            return "word must be left-normed"
        if type(right) is str:
            return right
        left += right
        return left

    out = fold(node, lambda n: [n], binary)
    if type(out) is str:
        raise ExprSyntaxError(out, at)
    return out


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a plain left-normed product word and return its letters.  The
    factors, one term each, multiply into one left-nested tree, so a
    parenthesized product after the first factor is a right factor that is
    a product.  An error in a factor gives the factor's position, and a
    scalar other than 1 that of the first number or factor that scales."""
    parser = _Parser(text, _indexed)
    items = parser.factors()
    kind, _, at = parser.peek()  # a token after the product, such as a '+'
    if kind is None:
        # a factor of more than one term, or the first scalar when no factor is a word
        words = [(at, f) for at, f in items if type(f) is ExprSum]
        at = next((at for at, f in words if len(f) != 1), None if words else items[0][0])
    if at is not None:
        raise ExprSyntaxError("expected a single product word", at)
    letters: list[Leaf | Slot] = []
    scalars: list[tuple[int, Fraction | int]] = []
    for at, c in items:
        if type(c) is ExprSum:
            ((node, c),) = c.items()
            if letters and type(node) is Prod:
                raise ExprSyntaxError("word must be left-normed", at)
            letters += _letters(node, "expected a plain product of generators", at, left_normed=True)
        scalars.append((at, c))
    if prod(c for _, c in scalars) != 1:
        raise ExprSyntaxError("expected a word without a coefficient", next(at for at, c in scalars if c != 1))
    return tuple(n.index for n in letters)


def parse_envelope_expr(
    text: str, labels: Sequence[str]
) -> list[tuple[Fraction, int, tuple[int, ...]]]:
    """Parse an envelope expression over the given letters.

    Returns (coefficient, dotted letter index, plain letter indices) triples
    in original 1-based indices; every product must carry exactly one dot.
    """
    index = {lbl: i for i, lbl in enumerate(labels, start=1)}
    parser = _Parser(text, lambda name: Leaf(index[name]) if name in index else None, envelope=True)
    out: list[tuple[Fraction, int, tuple[int, ...]]] = []
    for node, coeff in parser.parse().terms():
        at = parser.starts[node]
        letters = _letters(node, "envelope expressions use products only", at)
        dotted = [n.index for n in letters if type(n) is Slot]
        plain = [n.index for n in letters if type(n) is Leaf]
        if len(dotted) != 1:
            raise ExprSyntaxError(
                f"each envelope word needs exactly one dotted letter, found {len(dotted)}", at
            )
        out.append((coeff, dotted[0], tuple(plain)))
    return out
