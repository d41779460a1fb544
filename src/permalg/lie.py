"""Commutator-side analysis: the Lie-element criterion and its oracle.

The commutator subalgebra of the free perm algebra generated by the
letters is a free metabelian Lie algebra.  Its slices have a closed form,
read off the slice law of :mod:`permalg.perm` (a slice has one word
``W(h)`` per distinct letter ``h`` of its content):

- The product of two words is one word, so the coefficient sum ``s`` is
  multiplicative, ``s(uv) = s(u) s(v)``.
- A commutator ``uv - vu`` of homogeneous elements therefore has sum 0,
  and so has every element of degree >= 2 of the Lie subalgebra.
- A left-normed bracket collapses onto plain right multiplication:
  ``[[..[x_h, x_t1], ..], x_tm] = [x_h, x_t1] x_t2 ... x_tm``, which is
  ``W(h) - W(t1)`` in the slice of its letters.  With ``a`` the least
  letter of a slice of degree >= 2, the bracket ``[[x_h, x_a], ...]`` is
  ``W(h) - W(a)`` for each ``h != a``.
- These differences, one per letter ``h != a``, are independent and span
  the zero-sum hyperplane of the slice, so they are a basis of its Lie
  part (``ml_basis``), and an element is Lie exactly when no slice of
  degree >= 2 has a nonzero coefficient sum (``is_lie``).  Degree-1
  slices are the letters themselves.
- An element with coefficients ``c_h`` on ``W(h)`` differs from its Lie
  part ``sum_{h != a} c_h (W(h) - W(a))`` by ``s W(a)`` per slice: the
  defect ``NotLieElement`` carries.  It equals ``f - dynkin(head(f))``,
  the projection that keeps the words whose head exceeds their first tail
  letter and brackets them left-normed, because ``W(h)`` for ``h != a`` is
  exactly a word whose first tail letter ``a`` is below its head.

``lie_span_oracle`` rebuilds the Lie part by brute-force bracket closure,
independently of this law.  The closure works one multidegree slice at a
time and brackets each lower slice with one letter: a Lie subalgebra
generated by a set is spanned by the left-normed brackets of its elements,
so one-letter brackets of the lower slices reach every bracket of the
slice.

The renaming law: slices whose multidegrees share an exponent pattern,
the nonzero exponents in order (``(2,0,1,1)`` and ``(0,2,1,1)`` both have
``(2,1,1)``), are one slice up to the names of the letters.  Renaming the
letters ``1..r`` onto an increasing support is an endomorphism of the free
perm algebra.  It maps canonical words to canonical words (a sorted tail
stays sorted) and keeps their order, so it keeps pivots and reduced
echelon rows, and it commutes with the bracket ``[u, x] = u * x - x * u``
(``PermPolynomial.commutator``).  So the closure closes each pattern once,
on the letters ``1..r``, and renames its rows onto every multidegree of
that pattern.  That work is per call: a call of ``lie_span_oracle`` keeps
the patterns it closed in a dict of its own and keeps nothing once it
returns.  Only the oracle reduces rows, so only it imports
:mod:`permalg.linalg`; ``is_lie`` and ``lie_express`` do not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .expr import Comm, ExprSum, expand_node, left_normed, node_str
from .perm import PermMonomial, PermPolynomial, enumerate_basis, multidegrees, slice_word

if TYPE_CHECKING:
    from fractions import Fraction

    from .linalg import Subspace

__all__ = [
    "MLMonomial",
    "NotLieElement",
    "is_lie",
    "lie_express",
    "lie_span_oracle",
    "ml_basis",
]


def _defect(f: PermPolynomial) -> PermPolynomial:
    """``s W(a)`` on each slice of degree >= 2, in one pass: each term is
    keyed by its content, whose least letter is ``a``."""
    sums: dict[tuple[int, ...], Fraction | int] = {}
    for m, c in f.items():
        if m.tail:
            key = m.content()
            sums[key] = sums.get(key, 0) + c
    return PermPolynomial._of({slice_word(key, key[0]): s for key, s in sums.items() if s})


def is_lie(f: PermPolynomial) -> bool:
    """Exact commutator-expressibility test: no slice of degree >= 2 has a
    nonzero coefficient sum."""
    return not _defect(f)


class NotLieElement(ValueError):
    """Raised when ``f`` is not Lie, with the defect: the coefficient sum of
    each slice of degree >= 2 times the word headed by its least letter."""

    def __init__(self, defect: PermPolynomial):
        super().__init__(f"not a Lie element; defect {defect}")
        self.defect = defect


def lie_express(f: PermPolynomial) -> ExprSum:
    """Write a Lie element as a combination of left-normed commutator words:
    each word whose head exceeds its first tail letter, bracketed."""
    defect = _defect(f)
    if defect:
        raise NotLieElement(defect)
    # a one-letter word is the leaf itself
    return ExprSum(
        (c, left_normed(Comm, m.word())) for m, c in f.items() if not m.tail or m.head > m.tail[0]
    )


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
    """Free metabelian basis words of degree ``n`` on ``k`` generators: the
    words of ``enumerate_basis`` whose head exceeds their first tail letter,
    read as brackets, in the same order."""
    if n < 2:
        raise ValueError("bracket words need degree >= 2")
    return [
        MLMonomial(m.head, m.tail[0], m.tail[1:])
        for m in enumerate_basis(k, n, multidegree)
        if m.head > m.tail[0]
    ]


def _rename(p: PermPolynomial, support: tuple[int, ...]) -> PermPolynomial:
    """``p`` with letter ``j`` renamed to ``support[j - 1]``, for ``support``
    increasing: a sorted tail stays sorted."""
    name = (0, *support).__getitem__  # letter j -> support[j - 1]
    return PermPolynomial._of({PermMonomial(name(m.head), tuple(map(name, m.tail))): c for m, c in p.items()})


def _lie_component(
    md: tuple[int, ...],
    memo: dict[tuple[int, ...], list[PermPolynomial]],
    xs: Sequence[PermPolynomial],
) -> list[PermPolynomial]:
    """Echelon rows of the bracket-closure span of one multidegree slice.

    The slice is spanned by ``[u, x_i]`` for ``u`` in the slice of
    ``md - e_i``: the subalgebra a set generates is spanned by left-normed
    brackets of its elements (the Jacobi identity rewrites ``[u, [v, w]]``
    as ``[[u, v], w] - [[u, w], v]``), and a left-normed bracket ends in one
    letter.  Bracketing pairs of lower slices over every split spans the
    same subspace, so the echelon rows are the same, at many more products.
    ``xs`` holds the letters ``x_1, x_2, ...``, built once per call of
    ``lie_span_oracle``, and ``[u, x_i]`` is ``u.commutator(x_i)``: one
    dict, no intermediate product.

    Each exponent pattern (the nonzero entries of ``md``, in order) is
    closed once, on the letters ``1..r`` and on a bare ``Span``, and its
    rows are kept in ``memo``.  ``md`` gets them with letter ``j`` renamed
    to the ``j``-th letter of its support.  The renaming preserves the
    order of letters, so it is an endomorphism of the free perm algebra
    that maps canonical words to canonical words in the same order and
    commutes with the bracket: it carries each step of the pattern's
    closure onto the same step of ``md``'s, and the pattern's reduced
    echelon rows onto ``md``'s, with the same pivots in the same order.
    """
    pattern = tuple(filter(None, md))
    rows = memo.get(pattern)
    if rows is None:
        if pattern == (1,):
            rows = [xs[0]]
        else:
            from .linalg import Span

            span = Span()
            for i, e in enumerate(pattern):
                x = xs[i]
                for u in _lie_component(pattern[:i] + (e - 1,) + pattern[i + 1 :], memo, xs):
                    span.add(u.commutator(x))
            rows = [PermPolynomial._of(row) for row in span.rows]
        memo[pattern] = rows
    if md[: len(pattern)] == pattern:  # already on the letters 1..r
        return rows
    support = tuple(i for i, e in enumerate(md, start=1) if e)
    return [_rename(p, support) for p in rows]


def lie_span_oracle(
    k: int, n: int, multidegree: Sequence[int] | None = None
) -> Subspace:
    """Degree-``n`` slice of the commutator subalgebra, by brute-force closure."""
    from .linalg import Subspace

    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    memo: dict[tuple[int, ...], list[PermPolynomial]] = {}
    xs = [PermPolynomial._of({PermMonomial(i): 1}) for i in range(1, k + 1)]
    if multidegree is not None:
        md = tuple(multidegree)
        if len(md) != k or sum(md) != n:
            raise ValueError("multidegree must have length k and total n")
        return Subspace.echelon(enumerate_basis(k, n, md), _lie_component(md, memo, xs))
    # slices of different multidegrees share no word, so their rows together
    # are already reduced
    return Subspace.echelon(
        enumerate_basis(k, n), (p for md in multidegrees(k, n) for p in _lie_component(md, memo, xs))
    )
