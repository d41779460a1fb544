"""Exact rational linear algebra over fixed monomial axes.

Everything here works with ``fractions.Fraction`` entries, so ranks,
memberships and solves are exact.  ``Span`` is an incremental reduced
row echelon form; ``Subspace`` pins a span to a concrete homogeneous
component of the free perm algebra via an ordered monomial axis.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .perm import PermMonomial, PermPolynomial, mono_key

__all__ = ["Span", "Subspace", "rref", "solve_coordinates", "span_solve"]

_ZERO = Fraction(0)


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and their pivot columns."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        lead = mat[r][c]
        mat[r] = [v / lead for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def solve_coordinates(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Exact solution of ``sum c_j * columns[j] = target``; free variables are 0."""
    m = len(target)
    n = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(m)]
    rows, pivots = rref(aug)
    sol = [_ZERO] * n
    for row, p in zip(rows, pivots):
        if p == n:
            return None  # inconsistent
        sol[p] = row[n]
    return sol


class Span:
    """Incremental reduced row echelon span.

    Rows are pivot-normalized and fully reduced against each other.  Each
    row may carry a witness; witnesses must support addition and left
    multiplication by ``Fraction`` and are combined alongside row operations,
    so a row's witness always maps to that row under the caller's linear map.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        self.witnesses: list[Any] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[Fraction]) -> tuple[list[Fraction], list[tuple[int, Fraction]]]:
        """Residue of ``vec`` modulo the span plus the row coefficients used."""
        residue = [Fraction(v) for v in vec]
        used: list[tuple[int, Fraction]] = []
        for idx, (row, p) in enumerate(zip(self.rows, self.pivots)):
            c = residue[p]
            if c:
                residue = [a - c * b for a, b in zip(residue, row)]
                used.append((idx, c))
        return residue, used

    def contains(self, vec: Sequence[Fraction]) -> bool:
        residue, _ = self.reduce(vec)
        return not any(residue)

    def add(self, vec: Sequence[Fraction], witness: Any = None) -> bool:
        """Insert a vector; returns True when the rank grew."""
        residue, used = self.reduce(vec)
        pivot = next((i for i, v in enumerate(residue) if v), None)
        if pivot is None:
            return False
        if witness is not None:
            for idx, c in used:
                witness = witness - c * self.witnesses[idx]
        lead = residue[pivot]
        row = [v / lead for v in residue]
        if witness is not None:
            witness = (1 / lead) * witness
        for idx, other in enumerate(self.rows):
            f = other[pivot]
            if f:
                self.rows[idx] = [a - f * b for a, b in zip(other, row)]
                if self.witnesses:
                    self.witnesses[idx] = self.witnesses[idx] - f * witness
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        if witness is not None or self.witnesses:
            self.witnesses.insert(at, witness)
        return True

    def witness_for(self, vec: Sequence[Fraction], zero: Any) -> Any | None:
        """Witness combination producing ``vec``, or None when outside the span."""
        residue, used = self.reduce(vec)
        if any(residue):
            return None
        combo = zero
        for idx, c in used:
            combo = combo + c * self.witnesses[idx]
        return combo


class Subspace:
    """Echelonized subspace of one homogeneous component.

    The component is fixed by an ordered monomial axis; basis rows are kept
    in reduced row echelon form with strictly increasing pivots.
    """

    def __init__(
        self,
        monomials: Sequence[PermMonomial],
        polynomials: Iterable[PermPolynomial] = (),
        witnesses: Iterable[Any] | None = None,
    ):
        self.monomials = tuple(monomials)
        self._index = {m: i for i, m in enumerate(self.monomials)}
        if len(self._index) != len(self.monomials):
            raise ValueError("duplicate monomials in axis")
        self._span = Span(len(self.monomials))
        if witnesses is None:
            for p in polynomials:
                self.add(p)
        else:
            for p, w in zip(polynomials, witnesses, strict=True):
                self.add(p, w)

    @property
    def dim(self) -> int:
        return self._span.dim

    def vector(self, poly: PermPolynomial) -> list[Fraction]:
        vec = [_ZERO] * len(self.monomials)
        for m, c in poly.items():
            i = self._index.get(m)
            if i is None:
                raise ValueError(f"monomial {m} outside this component")
            vec[i] = c
        return vec

    def add(self, poly: PermPolynomial, witness: Any = None) -> bool:
        return self._span.add(self.vector(poly), witness)

    def contains(self, poly: PermPolynomial) -> bool:
        try:
            vec = self.vector(poly)
        except ValueError:
            return False
        return self._span.contains(vec)

    def basis(self) -> list[PermPolynomial]:
        return [
            PermPolynomial._of({m: c for m, c in zip(self.monomials, row) if c})
            for row in self._span.rows
        ]

    @property
    def expressions(self) -> list[Any]:
        """Witnesses parallel to ``basis()`` rows, when the span carries them."""
        return list(self._span.witnesses)

    def witness_for(self, poly: PermPolynomial, zero: Any) -> Any | None:
        return self._span.witness_for(self.vector(poly), zero)

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

    All inputs must lie in a single multidegree component; mixing components
    raises ``ValueError``.
    """
    monos: set[PermMonomial] = set()
    for v in vectors:
        monos |= v.support()
    monos |= target.support()
    _component_of(monos)
    if not monos:
        return [_ZERO] * len(vectors)
    axis = Subspace(sorted(monos, key=mono_key))
    return solve_coordinates([axis.vector(v) for v in vectors], axis.vector(target))
