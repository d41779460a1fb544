"""Exact rational linear algebra whose columns are the vectors' own keys.

Every entry is an ``int`` or a ``fractions.Fraction``, so ranks,
memberships and solves are exact; a float or ``bool`` entry raises
``TypeError``.  A row is divided by its lead as a product with
``Fraction(1) / lead``, and a quotient that is integral is stored as an
``int``, so integral entries stay ``int``s until a division leaves them
fractional.
``Span`` is an incremental reduced row echelon form over any vectors whose
``items()`` give ``(column, coefficient)`` pairs: dicts, or a
``PermPolynomial``, whose columns are its canonical words.  Rows are stored
sparse and fully reduced, so reducing a vector touches only the pivots in
its support.  ``Subspace`` pins a span to the words of one homogeneous
component.  Coordinates are read off witnesses: ``span_solve`` gives the
``j``-th vector the witness ``{j: 1}``, a
:class:`~permalg.perm.Combination`, and returns the coefficients of the
target's witness.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .perm import Combination, PermMonomial, PermPolynomial, accumulate, exact

__all__ = ["Span", "Subspace", "span_solve"]


class Span:
    """Incremental reduced row echelon span.

    Rows are pivot-normalized and fully reduced against each other.  Each
    row may carry a witness; witnesses must support addition and left
    multiplication by ``int`` and ``Fraction`` and are combined alongside row operations,
    so a row's witness always maps to that row under the caller's linear map.
    A span carries a witness on every row or on none.

    A vector is anything whose ``items()`` gives ``(column, coefficient)``
    pairs; coefficients must be ``int`` or ``Fraction``.  Columns are any
    totally ordered keys, and a row's pivot is its smallest column.
    ``rows`` (dict copies), ``pivots`` and ``witnesses`` return fresh lists
    in pivot order; changing them leaves the span as it is.
    """

    def __init__(self):
        self._pivots: list = []  # ascending
        self._rows: dict[Any, dict[Any, Fraction | int]] = {}  # pivot -> sparse row
        self._witnesses: dict[Any, Any] = {}  # pivot -> witness
        self._columns: set = set()  # every column a row has ever held

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list:
        return list(self._pivots)

    @property
    def rows(self) -> list[dict[Any, Fraction | int]]:
        return [dict(self._rows[p]) for p in self._pivots]

    @property
    def witnesses(self) -> list[Any]:
        return [self._witnesses[p] for p in self._pivots] if self._witnesses else []

    @staticmethod
    def _sparse(vec) -> dict[Any, Fraction | int]:
        """A fresh sparse copy of ``vec`` whose entries are checked by
        :func:`~permalg.perm.exact`: ``int`` and ``Fraction`` stay as they are."""
        out: dict[Any, Fraction | int] = {}
        for j, c in vec.items():
            if c.__class__ is not int and c.__class__ is not Fraction:
                c = exact(c)
            if c:
                out[j] = c
        return out

    def _reduce(self, vec) -> tuple[dict[Any, Fraction | int], list[tuple[Any, Fraction | int]]]:
        """Residue of ``vec`` modulo the span plus the ``(pivot, coefficient)``
        pairs used.  Every row is 0 at the other rows' pivots, so the
        residue keeps ``vec``'s entry at each pivot until that pivot's own
        row clears it: the coefficients are ``vec``'s pivot entries."""
        residue = self._sparse(vec)
        rows = self._rows
        used = [(p, residue[p]) for p in sorted(p for p in residue if p in rows)]
        for p, c in used:
            c = -c
            accumulate(residue, ((j, c * x) for j, x in rows[p].items()))
        return residue, used

    def contains(self, vec) -> bool:
        residue, _ = self._reduce(vec)
        return not residue

    def add(self, vec, witness: Any = None) -> bool:
        """Insert a vector; returns True when the rank grew."""
        if self._rows and (witness is not None) != bool(self._witnesses):
            raise ValueError("a span carries a witness on every row or on none")
        residue, used = self._reduce(vec)
        if not residue:
            return False
        if witness is not None:
            for p, c in used:
                witness = witness + (-c) * self._witnesses[p]
        pivot = min(residue)
        at = bisect(self._pivots, pivot)  # compares columns before any change
        lead = residue[pivot]
        if lead != 1:
            # never ``v / lead``: an int over an int is a float
            inv = -1 if lead == -1 else Fraction(1) / lead
            residue = {j: v * inv for j, v in residue.items()}
            if inv != -1:  # an integral quotient is stored as an int
                residue = {j: v.numerator if v.denominator == 1 else v for j, v in residue.items()}
            if witness is not None:
                witness = inv * witness
        # no row has a column below its pivot, nor one it never held
        for q in self._pivots[:at] if pivot in self._columns else ():
            other = self._rows[q]
            f = other.get(pivot)
            if f:
                f = -f
                accumulate(other, ((j, f * x) for j, x in residue.items()))
                if witness is not None:
                    self._witnesses[q] = self._witnesses[q] + f * witness
        self._columns.update(residue)
        self._rows[pivot] = residue
        self._pivots.insert(at, pivot)
        if witness is not None:
            self._witnesses[pivot] = witness
        return True

    def witness_for(self, vec, zero: Any) -> Any | None:
        """Witness combination producing ``vec``, or None when outside the span."""
        if self._rows and not self._witnesses:
            raise ValueError("this span carries no witnesses")
        residue, used = self._reduce(vec)
        if residue:
            return None
        combo = zero
        for p, c in used:
            combo = combo + c * self._witnesses[p]
        return combo


class Subspace:
    """Echelonized subspace of one homogeneous component.

    The component is fixed by its words, ``monomials``; a polynomial with
    a word outside them is refused.  Basis rows are kept in reduced row
    echelon form with pivots increasing in word order: head, then tail.
    """

    def __init__(
        self, monomials: Sequence[PermMonomial], polynomials: Iterable[PermPolynomial] = ()
    ):
        self.monomials = tuple(monomials)
        self._words = frozenset(self.monomials)
        if len(self._words) != len(self.monomials):
            raise ValueError("duplicate monomials in axis")
        self._span = Span()
        for p in polynomials:
            self.add(p)

    @property
    def dim(self) -> int:
        return self._span.dim

    def _inside(self, poly: PermPolynomial) -> PermPolynomial:
        """``poly`` itself when all its words lie in this component."""
        if not self._words.issuperset(poly._terms):
            outside = poly.support() - self._words
            raise ValueError(f"monomial {min(outside)} outside this component")
        return poly

    def add(self, poly: PermPolynomial, witness: Any = None) -> bool:
        return self._span.add(self._inside(poly), witness)

    def contains(self, poly: PermPolynomial) -> bool:
        return self._words.issuperset(poly._terms) and self._span.contains(poly)

    def basis(self) -> list[PermPolynomial]:
        return [PermPolynomial._of(row) for row in self._span.rows]

    @property
    def expressions(self) -> list[Any]:
        """Witnesses parallel to ``basis()`` rows, when the span carries them."""
        return self._span.witnesses

    def witness_for(self, poly: PermPolynomial, zero: Any) -> Any | None:
        return self._span.witness_for(self._inside(poly), zero)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, width={len(self.monomials)})"


def span_solve(
    vectors: Sequence[PermPolynomial], target: PermPolynomial
) -> list[Fraction | int] | None:
    """Exact coordinates of ``target`` in the span of ``vectors``, or None.

    A vector that depends on the ones before it gets coordinate 0.  All
    inputs must lie in a single multidegree component; mixing components
    raises ``ValueError``.
    """
    monos = target.support()
    for v in vectors:
        monos |= v.support()
    if len({m.content() for m in monos}) > 1:
        raise ValueError("mixed homogeneous components")
    span = Span()
    for j, v in enumerate(vectors):
        span.add(v, Combination._of({j: 1}))
    combo = span.witness_for(target, Combination.zero())
    if combo is None:
        return None
    return [combo.coefficient(j) for j in range(len(vectors))]
