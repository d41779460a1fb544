"""Commutator-side analysis: the Lie-element criterion and its oracle.

The commutator subalgebra of the free perm algebra generated by the
letters is a free metabelian Lie algebra.  A polynomial is a commutator
expression in the letters precisely when the composite of ``head`` (keep
words whose first letter exceeds the second) and ``dynkin`` (left-normed
bracketing) fixes it; ``lie_span_oracle`` rebuilds the same subspace by
brute-force bracket closure, independently of that criterion.

The closure works one multidegree slice at a time and brackets each lower
slice with one letter: a Lie subalgebra generated by a set is spanned by
the left-normed brackets of its elements, so one-letter brackets of the
lower slices reach every bracket of the slice.  Slices are computed per
call: a call of ``lie_span_oracle`` builds the lower slices it needs in a
dict of its own and keeps nothing once it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple, Sequence

from .expr import Comm, ExprSum, expand_node, left_normed, node_str
from .linalg import Subspace
from .perm import (
    PermMonomial,
    PermPolynomial,
    enumerate_basis,
    letters,
    multidegrees,
)

__all__ = [
    "MLMonomial",
    "NotLieElement",
    "dynkin",
    "head",
    "is_lie",
    "lie_express",
    "lie_span_oracle",
    "ml_basis",
]


def head(f: PermPolynomial) -> PermPolynomial:
    """Keep degree-1 terms and words whose head exceeds the first tail letter."""
    return PermPolynomial._of(
        {m: c for m, c in f.items() if not m.tail or m.head > m.tail[0]}
    )


def dynkin(f: PermPolynomial) -> PermPolynomial:
    """Left-normed bracketing of each word, expanded back into the word basis.

    A word ``h t1 t2 ... tm`` maps to ``[[..[x_h, x_t1], ..], x_tm]``; in a
    perm algebra a product annihilates commutators on its right, so the
    bracket collapses to ``[x_h, x_t1] * x_t2 ... x_tm``, i.e. exactly two
    words.  Length-1 words are fixed.
    """
    out: list[tuple[PermMonomial, Fraction]] = []
    for m, c in f.items():
        out.append((m, c))
        if m.tail:
            out.append((PermMonomial(m.tail[0], tuple(sorted((m.head,) + m.tail[1:]))), -c))
    return PermPolynomial(out)


def is_lie(f: PermPolynomial) -> bool:
    """Exact commutator-expressibility test: ``dynkin(head(f)) == f``."""
    return dynkin(head(f)) == f


class NotLieElement(ValueError):
    """Raised with the defect ``f - dynkin(head(f))`` when ``f`` is not Lie."""

    def __init__(self, defect: PermPolynomial):
        super().__init__(f"not a Lie element; defect {defect}")
        self.defect = defect


def lie_express(f: PermPolynomial) -> ExprSum:
    """Write a Lie element as a combination of left-normed commutator words."""
    defect = f - dynkin(head(f))
    if defect:
        raise NotLieElement(defect)
    # a one-letter word is the leaf itself
    return ExprSum((c, left_normed(Comm, m.word())) for m, c in head(f).items())


class MLMonomial(NamedTuple):
    """Free-basis bracket word ``[[..[[x_first, x_second], x_r1], ..], x_rm]``.

    Constraints: ``first > second`` and ``second <= r1 <= ... <= rm``, so the
    second letter is the minimum of the whole word.
    """

    first: int
    second: int
    rest: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return 2 + len(self.rest)

    def letters(self) -> tuple[int, ...]:
        return (self.first, self.second, *self.rest)

    def expr(self):
        return left_normed(Comm, self.letters())

    def expand(self) -> PermPolynomial:
        return expand_node(self.expr())

    def __str__(self) -> str:
        return node_str(self.expr())


def ml_basis(
    k: int, n: int, multidegree: Sequence[int] | None = None
) -> list[MLMonomial]:
    """Free metabelian basis words of degree ``n`` on ``k`` generators."""
    if n < 2:
        raise ValueError("bracket words need degree >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if multidegree is not None:
        md = tuple(multidegree)
        if len(md) != k:
            raise ValueError(f"multidegree must have length {k}")
        if sum(md) != n:
            raise ValueError(f"multidegree total {sum(md)} != degree {n}")
        word = letters(md)
        second = word[0]  # the minimum letter
        out = []
        for first in sorted(set(word[1:])):
            if first <= second:
                continue
            rest = list(word)
            rest.remove(second)
            rest.remove(first)
            out.append(MLMonomial(first, second, tuple(rest)))
        return out
    out = []
    for second in range(1, k + 1):
        for first in range(second + 1, k + 1):
            for rest in combinations_with_replacement(range(second, k + 1), n - 2):
                out.append(MLMonomial(first, second, rest))
    return sorted(out)


def _lie_component(md: tuple[int, ...], memo: dict[tuple[int, ...], Subspace]) -> Subspace:
    """Bracket-closure span of one multidegree slice, built inductively.

    The slice is spanned by ``[u, x_i]`` for ``u`` in the slice of
    ``md - e_i``: the subalgebra a set generates is spanned by left-normed
    brackets of its elements (the Jacobi identity rewrites ``[u, [v, w]]``
    as ``[[u, v], w] - [[u, w], v]``), and a left-normed bracket ends in one
    letter.  Bracketing pairs of lower slices over every split spans the
    same subspace, so the echelon rows are the same, at many more products.
    Slices already built are looked up in ``memo``, and new ones stored there.
    """
    if md in memo:
        return memo[md]
    k = len(md)
    n = sum(md)
    space = memo[md] = Subspace(enumerate_basis(k, n, md))
    if n == 1:
        gen = md.index(1) + 1
        space.add(PermPolynomial.generator(gen))
        return space
    for i, e in enumerate(md):
        if not e:
            continue
        x = PermPolynomial.generator(i + 1)
        for u in _lie_component(md[:i] + (e - 1,) + md[i + 1 :], memo).basis():
            space.add(u * x - x * u)
    return space


def lie_span_oracle(
    k: int, n: int, multidegree: Sequence[int] | None = None
) -> Subspace:
    """Degree-``n`` slice of the commutator subalgebra, by brute-force closure."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    memo: dict[tuple[int, ...], Subspace] = {}
    if multidegree is not None:
        md = tuple(multidegree)
        if len(md) != k or sum(md) != n:
            raise ValueError("multidegree must have length k and total n")
        return _lie_component(md, memo)
    space = Subspace(enumerate_basis(k, n))
    for md in multidegrees(k, n):
        for p in _lie_component(md, memo).basis():
            space.add(p)
    return space
