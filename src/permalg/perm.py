"""Exact arithmetic in the free perm algebra.

A perm algebra is an associative algebra obeying right-commutativity
``abc = acb``.  Every product of generators therefore equals a word whose
letters after the first are sorted non-decreasingly, and those canonical
words form a linear basis of the free algebra.  Elements are sparse
rational combinations of canonical words with exact coefficients: each
stored coefficient is a nonzero ``int`` or ``Fraction``, never a float or
a ``bool``.  Integral inputs stay ``int``s, whose arithmetic is far
cheaper than a ``Fraction``'s, and only a true rational pays for one; an
expansion (:mod:`permalg.expr`) stores every integral coefficient as an
``int``, whatever its inputs.

The slice law: a word's content is its letters in ascending order, and
the words of one content ``C`` span a slice (a multidegree component).
The slice holds one word per distinct letter ``h`` of ``C``: ``W(h)``,
the head ``h`` followed by the rest of ``C``.  Every module keys a slice
by its content (:meth:`PermMonomial.content`,
:meth:`PermPolynomial.components`) and spells ``W(h)`` with
:func:`slice_word`; an exponent vector a caller passes in becomes a
content through :func:`letters`.

The product law: ``u * v`` is ``W(head of u)`` in the slice of the
letters of both.  Only the content ``M`` of ``v`` matters, so
``f * g = sum_M s_M(g) * (f with M appended)``, where ``s_M(g)`` is the
sum of ``g``'s coefficients on the slice ``M``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Any, Hashable, ItemsView, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

__all__ = [
    "Combination",
    "PermMonomial",
    "PermPolynomial",
    "accumulate",
    "canonicalize",
    "dimension",
    "enumerate_basis",
    "exact",
    "format_linear",
    "letters",
    "multidegrees",
    "slice_word",
]

K = TypeVar("K", bound=Hashable)


class PermMonomial(NamedTuple):
    """Canonical basis word: ``head`` followed by a sorted ``tail``.  Its
    tuple order, head then tail, orders echelon pivots and printed terms."""

    head: int
    tail: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return 1 + len(self.tail)

    def word(self) -> tuple[int, ...]:
        """Letters in word order, head first."""
        return (self.head, *self.tail)

    def content(self) -> tuple[int, ...]:
        """Letters in ascending order: the key of the word's slice."""
        return tuple(sorted(self.tail + (self.head,)))

    def __str__(self) -> str:
        return "*".join(f"x{i}" for i in self.word())


def canonicalize(word: Sequence[int]) -> PermMonomial:
    """Canonical form of a generator word.

    Right-commutativity lets every letter after the first commute with its
    neighbours, so the representative keeps the head and sorts the rest.
    """
    if len(word) == 0:
        raise ValueError("empty monomial")
    if any(i < 1 for i in word):
        raise ValueError("generator indices are 1-based")
    return PermMonomial(word[0], tuple(sorted(word[1:])))


def exact(coeff: Fraction | int) -> Fraction | int:
    """``coeff`` itself when it is an ``int`` or a ``Fraction``, and a
    subclass of either as the plain kind; anything else (a float, say,
    whose binary value is not the number it was written as, or a ``bool``,
    which is an ``int`` to Python but not a number to a reader) raises
    ``TypeError``.  Sums and products of the two kinds stay exact: an
    ``int`` with an ``int`` gives an ``int``, and either with a
    ``Fraction`` gives a ``Fraction``.  Only ``/`` leaves them (``int /
    int`` is a float), so a quotient is taken as ``Fraction(p, q)``."""
    cls = coeff.__class__
    if cls is int or cls is Fraction:
        return coeff
    if cls is bool or not isinstance(coeff, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {cls.__name__}")
    return int(coeff) if isinstance(coeff, int) else Fraction(coeff)


def accumulate(
    data: dict[K, Fraction | int], items: Iterable[tuple[K, Fraction | int]]
) -> dict[K, Fraction | int]:
    """Add the ``(key, coeff)`` terms into the sparse combination ``data``
    in place and return it.  A key whose coefficient sums to zero is
    dropped, so ``data`` never stores a zero.  A new key stores ``coeff``
    as it is: the caller passes exact values (see :func:`exact`), so every
    value stays a nonzero ``int`` or ``Fraction``."""
    for key, coeff in items:
        old = data.get(key)
        if old is None:
            if coeff:
                data[key] = coeff
        elif s := old + coeff:
            data[key] = s
        else:
            del data[key]
    return data


def _canonical(mono: PermMonomial) -> PermMonomial:
    """``mono`` itself when it is a canonical word: a head and a sorted
    tail of 1-based indices.  Anything else raises, since a second spelling
    of one word would make equal elements compare unequal."""
    if not isinstance(mono, PermMonomial):
        raise TypeError(f"expected PermMonomial, got {type(mono).__name__}")
    tail = mono.tail
    if mono.head < 1 or (tail and (tail[0] < 1 or tuple(sorted(tail)) != tail)):
        raise ValueError(f"{mono!r} is not canonical: need indices >= 1 and a sorted tail")
    return mono


def format_linear(items: Iterable[tuple[Fraction, str]]) -> str:
    """Render ``coeff * text`` terms as a signed sum; empty input prints ``0``."""
    parts: list[str] = []
    for coeff, text in items:
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = text if mag == 1 else f"{mag}*{text}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


class Combination:
    """Sparse rational combination: a dict from key to a nonzero ``int``
    or ``Fraction``.

    Instances are immutable in use: every operation returns a fresh value,
    zero coefficients are never stored, and zero has no terms.  Equality
    holds between values of the same class only, and a combination is not
    hashable.  A subclass names its ordering and text through ``_key`` and
    ``_text``; ``terms()`` and ``str`` order the terms, nothing else does.
    """

    __slots__ = ("_terms",)

    _key = staticmethod(lambda key: key)
    _text = staticmethod(str)

    @classmethod
    def _of(cls, data: dict) -> "Combination":
        """Wrap ``data`` without checks.  The caller guarantees nonzero
        ``int`` or ``Fraction`` values, never a float or a ``bool``, plus
        whatever the subclass's constructor checks."""
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def zero(cls):
        return cls._of({})

    def terms(self) -> list[tuple[Any, Fraction | int]]:
        """Terms sorted by the class's ``_key``."""
        key = self._key
        return sorted(self._terms.items(), key=lambda kv: key(kv[0]))

    def items(self) -> ItemsView[Any, Fraction | int]:
        """Terms in no particular order, for callers that only index them."""
        return self._terms.items()

    def coefficient(self, key) -> Fraction | int:
        return self._terms.get(key, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(accumulate(dict(self._terms), ((k, -c) for k, c in other._terms.items())))

    def scale(self, coeff: Fraction | int):
        c = exact(coeff)
        if not c:
            return self.zero()
        return self._of({k: v * c for k, v in self._terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        text = self._text
        return format_linear((c, text(k)) for k, c in self.terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class PermPolynomial(Combination):
    """Sparse rational combination of canonical monomials."""

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[PermMonomial, Fraction | int]
        | Iterable[tuple[PermMonomial, Fraction | int]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = accumulate({}, ((_canonical(m), exact(c)) for m, c in items))

    @classmethod
    def generator(cls, i: int) -> "PermPolynomial":
        return cls.from_word((i,))

    @classmethod
    def from_word(cls, word: Sequence[int], coeff: Fraction | int = 1) -> "PermPolynomial":
        mono, c = canonicalize(word), exact(coeff)
        return cls._of({mono: c} if c else {})

    @classmethod
    def from_monomial(cls, mono: PermMonomial, coeff: Fraction | int = 1) -> "PermPolynomial":
        return cls(((mono, coeff),))

    def support(self) -> set[PermMonomial]:
        return set(self._terms)

    def __mul__(self, other):
        if isinstance(other, PermPolynomial):
            # the product law: one product per term of self and slice of other
            sums = accumulate({}, ((m.content(), c) for m, c in other._terms.items()))
            return PermPolynomial._of(
                accumulate(
                    {},
                    (
                        (PermMonomial(m.head, tuple(sorted(m.tail + rest))), c * s)
                        for m, c in self._terms.items()
                        for rest, s in sums.items()
                    ),
                )
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def components(self) -> dict[tuple[int, ...], "PermPolynomial"]:
        """The slices of this polynomial, keyed by content, in ascending content."""
        buckets: dict[tuple[int, ...], dict[PermMonomial, Fraction | int]] = {}
        for m, c in self._terms.items():
            buckets.setdefault(m.content(), {})[m] = c
        return {key: PermPolynomial._of(buckets[key]) for key in sorted(buckets)}



def dimension(k: int, n: int) -> int:
    """Number of canonical words of degree ``n`` on ``k`` generators.

    One of ``k`` heads times a multiset of ``n - 1`` tail letters:
    ``k * C(n + k - 2, n - 1)``.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    return k * comb(n + k - 2, n - 1)


def letters(multidegree: Sequence[int]) -> tuple[int, ...]:
    """The content of a multidegree: generator ``i`` repeated
    ``multidegree[i - 1]`` times, in ascending order."""
    return tuple(i for i, e in enumerate(multidegree, start=1) for _ in range(e))


def slice_word(content: tuple[int, ...], head: int) -> PermMonomial:
    """``W(head)``: the word of the slice ``content`` headed by ``head``,
    which must be one of its letters, followed by the others."""
    i = bisect_left(content, head)
    return PermMonomial(head, content[:i] + content[i + 1 :])


def multidegrees(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every exponent vector over ``k`` generators with total ``n``, in
    ascending order.  Stars and bars: ``k - 1`` bars among ``n + k - 1``
    places, and lexicographic bar positions give ascending vectors."""
    for bars in combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def enumerate_basis(
    k: int, n: int, multidegree: Sequence[int] | None = None
) -> list[PermMonomial]:
    """All canonical monomials of degree ``n`` on generators ``1..k``.

    With ``multidegree`` (an exponent vector of length ``k``) only the words
    with that exact letter content are produced.  Order: head index, then
    tail lexicographic.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if multidegree is not None:
        md = tuple(multidegree)
        if len(md) != k:
            raise ValueError(f"multidegree must have length {k}")
        if any(e < 0 for e in md):
            raise ValueError("multidegree entries must be non-negative")
        if sum(md) != n:
            raise ValueError(f"multidegree total {sum(md)} != degree {n}")
        content = letters(md)
        return [slice_word(content, head) for head in sorted(set(content))]
    return [
        PermMonomial(head, tail)
        for head in range(1, k + 1)
        for tail in combinations_with_replacement(range(1, k + 1), n - 1)
    ]
