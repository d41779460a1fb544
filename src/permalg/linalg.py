"""Exact rational linear algebra over fixed monomial axes.

Everything here works with ``fractions.Fraction`` entries, so ranks,
memberships and solves are exact; a float entry raises ``TypeError``.
``Span`` is an incremental reduced row echelon form that stores each row
sparse, as ``{column: coefficient}`` keyed by its pivot.  The rows are
fully reduced (each is 1 at its own pivot and 0 at every other pivot), so
reducing a vector touches only the pivots in its support.  ``Subspace``
pins a span to a concrete homogeneous component of the free perm algebra
via an ordered monomial axis.  Coordinates are read off witnesses:
``span_solve`` gives the ``j``-th vector the witness ``{j: 1}``, a
:class:`~permalg.perm.Combination` whose terms are ordered only when
printed, and returns the coefficients of the target's witness.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .perm import Combination, PermMonomial, PermPolynomial, accumulate, exact, mono_key

__all__ = ["Span", "Subspace", "span_solve"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

Vector = Sequence[Fraction] | Mapping[int, Fraction]


class Span:
    """Incremental reduced row echelon span.

    Rows are pivot-normalized and fully reduced against each other.  Each
    row may carry a witness; witnesses must support addition and left
    multiplication by ``Fraction`` and are combined alongside row operations,
    so a row's witness always maps to that row under the caller's linear map.
    A span carries a witness on every row or on none.

    Vectors come in dense (a sequence of length ``width``) or sparse (a
    mapping from column to coefficient); entries must be ``int`` or
    ``Fraction``.  ``rows`` (dense), ``pivots`` and ``witnesses`` return
    fresh lists in pivot order; changing them leaves the span as it is.
    """

    def __init__(self, width: int):
        self.width = width
        self._pivots: list[int] = []  # ascending
        self._rows: dict[int, dict[int, Fraction]] = {}  # pivot -> sparse row
        self._witnesses: dict[int, Any] = {}  # pivot -> witness

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list[int]:
        return list(self._pivots)

    @property
    def rows(self) -> list[list[Fraction]]:
        return [self._dense(self._rows[p]) for p in self._pivots]

    @property
    def witnesses(self) -> list[Any]:
        return [self._witnesses[p] for p in self._pivots] if self._witnesses else []

    def _dense(self, row: Mapping[int, Fraction]) -> list[Fraction]:
        out = [_ZERO] * self.width
        for j, c in row.items():
            out[j] = c
        return out

    def _sparse(self, vec: Vector) -> dict[int, Fraction]:
        """A fresh sparse copy of ``vec`` with exact ``Fraction`` entries."""
        if isinstance(vec, Mapping):
            items = vec.items()
        else:
            if len(vec) != self.width:
                raise ValueError(f"vector of length {len(vec)} in a span of width {self.width}")
            items = enumerate(vec)
        out: dict[int, Fraction] = {}
        for j, c in items:
            if type(c) is not Fraction:
                c = Fraction(exact(c))
            if c:
                if not 0 <= j < self.width:
                    raise ValueError(f"column {j} outside a span of width {self.width}")
                out[j] = c
        return out

    def _reduce(self, vec: Vector) -> tuple[dict[int, Fraction], list[tuple[int, Fraction]]]:
        """Residue of ``vec`` modulo the span plus the ``(pivot, coefficient)``
        pairs used.  Every row is 0 at the other rows' pivots, so the
        residue keeps ``vec``'s entry at each pivot until that pivot's own
        row clears it: the coefficients are ``vec``'s pivot entries."""
        residue = self._sparse(vec)
        rows = self._rows
        used = [(p, residue[p]) for p in sorted(p for p in residue if p in rows)]
        for p, c in used:
            accumulate(residue, ((j, -c * x) for j, x in rows[p].items()))
        return residue, used

    def contains(self, vec: Vector) -> bool:
        residue, _ = self._reduce(vec)
        return not residue

    def add(self, vec: Vector, witness: Any = None) -> bool:
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
        lead = residue[pivot]
        if lead != 1:
            residue = {j: v / lead for j, v in residue.items()}
            if witness is not None:
                witness = (1 / lead) * witness
        for q, other in self._rows.items():
            f = other.get(pivot)
            if f:
                accumulate(other, ((j, -f * x) for j, x in residue.items()))
                if witness is not None:
                    self._witnesses[q] = self._witnesses[q] + (-f) * witness
        self._rows[pivot] = residue
        insort(self._pivots, pivot)
        if witness is not None:
            self._witnesses[pivot] = witness
        return True

    def witness_for(self, vec: Vector, zero: Any) -> Any | None:
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

    The component is fixed by an ordered monomial axis; basis rows are kept
    in reduced row echelon form with strictly increasing pivots.
    """

    def __init__(
        self, monomials: Sequence[PermMonomial], polynomials: Iterable[PermPolynomial] = ()
    ):
        self.monomials = tuple(monomials)
        self._index = {m: i for i, m in enumerate(self.monomials)}
        if len(self._index) != len(self.monomials):
            raise ValueError("duplicate monomials in axis")
        self._span = Span(len(self.monomials))
        for p in polynomials:
            self.add(p)

    @property
    def dim(self) -> int:
        return self._span.dim

    def _coordinates(self, poly: PermPolynomial) -> dict[int, Fraction]:
        """``poly`` as a sparse ``{axis index: coefficient}`` vector."""
        index = self._index
        out: dict[int, Fraction] = {}
        for m, c in poly.items():
            i = index.get(m)
            if i is None:
                raise ValueError(f"monomial {m} outside this component")
            out[i] = c
        return out

    def add(self, poly: PermPolynomial, witness: Any = None) -> bool:
        return self._span.add(self._coordinates(poly), witness)

    def contains(self, poly: PermPolynomial) -> bool:
        try:
            vec = self._coordinates(poly)
        except ValueError:
            return False
        return self._span.contains(vec)

    def basis(self) -> list[PermPolynomial]:
        monos, span = self.monomials, self._span
        return [
            PermPolynomial._of({monos[i]: row[i] for i in sorted(row)})
            for row in (span._rows[p] for p in span._pivots)
        ]

    @property
    def expressions(self) -> list[Any]:
        """Witnesses parallel to ``basis()`` rows, when the span carries them."""
        return list(self._span.witnesses)

    def witness_for(self, poly: PermPolynomial, zero: Any) -> Any | None:
        return self._span.witness_for(self._coordinates(poly), zero)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, width={len(self.monomials)})"


def _component_of(monomials: Iterable[PermMonomial]) -> tuple[tuple[int, int], ...]:
    sig: set[tuple[tuple[int, int], ...]] = set()
    for m in monomials:
        sig.add(tuple(sorted(Counter(m.word()).items())))
    if len(sig) > 1:
        raise ValueError("mixed homogeneous components")
    return next(iter(sig)) if sig else ()


def span_solve(
    vectors: Sequence[PermPolynomial], target: PermPolynomial
) -> list[Fraction] | None:
    """Exact coordinates of ``target`` in the span of ``vectors``, or None.

    A vector that depends on the ones before it gets coordinate 0.  All
    inputs must lie in a single multidegree component; mixing components
    raises ``ValueError``.
    """
    monos: set[PermMonomial] = set()
    for v in vectors:
        monos |= v.support()
    monos |= target.support()
    _component_of(monos)
    axis = Subspace(sorted(monos, key=mono_key))
    for j, v in enumerate(vectors):
        axis.add(v, Combination._of({j: _ONE}))
    combo = axis.witness_for(target, Combination.zero())
    if combo is None:
        return None
    return [combo.coefficient(j) for j in range(len(vectors))]
