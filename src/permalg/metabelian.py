"""The input side of the enveloping construction: metabelian Lie algebras.

A finite-dimensional Lie algebra is given by labels and structure
constants (``load_algebra`` reads the JSON form).  ``validate`` checks the
Jacobi identity on basis triples and the metabelian law on basis
quadruples, and ``split_basis`` reorders (and, when it must, changes) the
basis so the derived subalgebra comes first, which is the form the
rewriting system in :mod:`permalg.envelope` is stated in.  Vectors are
sparse ``{basis index: coefficient}`` dicts; a ``Span`` takes them as
they are, since its columns are the vectors' own keys.

By bilinearity ``[u, v]`` can be nonzero only when a letter of ``u`` and a
letter of ``v`` form a pair in ``table``.  Both ``validate`` (the
metabelian law, on the bracket values) and ``split_basis`` (on the adapted
rows) bracket only such pairs of vectors.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .linalg import Span
from .perm import Combination, accumulate, exact

__all__ = [
    "AlgebraFormatError",
    "BasisSplit",
    "InvalidLieAlgebra",
    "LieValidationReport",
    "MetabelianLieAlgebra",
    "load_algebra",
    "split_basis",
]

Vec = dict[int, Fraction | int]


class AlgebraFormatError(ValueError):
    """Malformed structure-constant input."""


class LieValidationReport(NamedTuple):
    jacobi_violations: list[tuple[tuple[int, int, int], Vec]]
    metabelian_violations: list[tuple[tuple[int, int, int, int], Vec]]

    @property
    def ok(self) -> bool:
        return not self.jacobi_violations and not self.metabelian_violations


class InvalidLieAlgebra(ValueError):
    def __init__(self, report: LieValidationReport):
        jac = [t for t, _ in report.jacobi_violations]
        met = [t for t, _ in report.metabelian_violations]
        super().__init__(f"invalid algebra: jacobi violations {jac}, metabelian violations {met}")
        self.report = report


class MetabelianLieAlgebra:
    """Finite-dimensional Lie algebra given by labels and structure constants.

    Brackets are stored for index pairs ``i < j`` only; the other
    orientation follows by antisymmetry.  ``validate`` checks the Jacobi
    identity on basis triples and the metabelian law on basis quadruples.
    """

    def __init__(
        self,
        dim: int,
        labels: Sequence[str] | None = None,
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction | int]] | None = None,
    ):
        if type(dim) is not int:
            raise AlgebraFormatError(f"dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise AlgebraFormatError("dimension must be at least 1")
        self.dim = dim
        self._labels = None  # e1 .. e<dim>, unique by construction: see labels
        self._derived: Span | None = None  # see _derived_span
        if labels is not None:
            self._labels = tuple(labels)
            if not all(isinstance(label, str) and label for label in self._labels):
                raise AlgebraFormatError("labels must be non-empty strings")
            if len(self._labels) != dim:
                raise AlgebraFormatError(f"expected {dim} labels, got {len(self._labels)}")
            if len(set(self._labels)) != dim:
                raise AlgebraFormatError("labels must be unique")
        self.table: dict[tuple[int, int], Vec] = {}
        for (i, j), value in (brackets or {}).items():
            if not all(type(x) is int for x in (i, j, *value)):
                raise AlgebraFormatError(f"bracket ({i!r},{j!r}) -> {list(value)!r} needs integer indices")
            if not (1 <= i < j <= dim):
                raise AlgebraFormatError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= dim")
            for b in value:
                if not 1 <= b <= dim:
                    raise AlgebraFormatError(f"bracket value index {b} out of range")
            vec = accumulate({}, ((b, exact(c)) for b, c in value.items()))
            if vec:
                self.table[(i, j)] = vec

    @property
    def labels(self) -> tuple[str, ...]:
        """The basis labels; ``e1`` .. ``e<dim>`` when none were given, built
        on first use, so a caller can refuse a large ``dim`` before paying
        for them."""
        if self._labels is None:
            self._labels = tuple(f"e{i}" for i in range(1, self.dim + 1))
        return self._labels

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetabelianLieAlgebra":
        try:
            dim = _typed(data["dim"], int)
        except (KeyError, TypeError):
            raise AlgebraFormatError("missing or bad 'dim'") from None
        labels = data.get("basis")
        if labels is not None and type(labels) is not list:
            raise AlgebraFormatError("'basis' must be a list of labels")
        entries = data.get("brackets", [])
        brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        if not isinstance(entries, list):
            raise AlgebraFormatError("'brackets' must be a list")
        for entry in entries:
            try:
                i, j = _typed(entry["i"], int), _typed(entry["j"], int)
                values = _typed(entry.get("value", []), list)
            except (KeyError, TypeError):
                raise AlgebraFormatError(f"bad bracket entry {entry!r}") from None
            if i >= j:
                raise AlgebraFormatError(f"bracket pair ({i},{j}) must have i < j")
            if (i, j) in brackets:
                raise AlgebraFormatError(f"duplicate bracket pair ({i},{j})")
            items: list[tuple[int, Fraction]] = []
            for item in values:
                try:
                    b, text = item
                    b = _typed(b, int)
                except (TypeError, ValueError):
                    raise AlgebraFormatError(f"bad bracket value item {item!r}") from None
                items.append((b, _parse_rational(text)))
            brackets[(i, j)] = accumulate({}, items)
        return cls(dim, labels, brackets)

    def bracket_basis(self, i: int, j: int) -> Vec:
        """``[e_i, e_j]`` for any pair of basis indices."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {b: -c for b, c in self.table.get((j, i), {}).items()}

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """``[u, v]`` by bilinearity: each pair's entry of ``table`` read in
        place, its sign moved onto the scalar when ``i > j``."""
        table = self.table
        out: Vec = {}
        for i, ci in u.items():
            for j, cj in v.items():
                if i < j:
                    value, scalar = table.get((i, j)), ci * cj
                elif i > j:
                    value, scalar = table.get((j, i)), -ci * cj
                else:
                    continue
                if value:
                    accumulate(out, ((b, scalar * c) for b, c in value.items()))
        return out

    def _bracket_support(self, vectors: Sequence[Vec]) -> list[tuple[int, int]]:
        """The index pairs ``r < s`` of ``vectors``, ascending, where a letter
        of ``vectors[r]`` and one of ``vectors[s]`` form a pair in ``table``:
        the only pairs whose bracket can be nonzero."""
        holders: dict[int, list[int]] = {}  # letter -> indices of the vectors holding it
        for r, v in enumerate(vectors):
            for i in v:
                holders.setdefault(i, []).append(r)
        joined = ((r, s) for i, j in self.table for r in holders.get(i, ()) for s in holders.get(j, ()) if r != s)
        return sorted({(min(r, s), max(r, s)) for r, s in joined})

    def _derived_span(self) -> Span:
        """The span of the brackets: the derived subalgebra, in original
        coordinates, built on first use and kept."""
        if self._derived is None:
            self._derived = Span()
            for pair in sorted(self.table):
                self._derived.add(self.table[pair])
        return self._derived

    def derived_dim(self) -> int:
        """``|Y|``, the dimension of the derived subalgebra: with ``dim``, every envelope count."""
        return self._derived_span().dim

    def validate(self) -> LieValidationReport:
        """Jacobi on the triples where some ``[[e_p,e_q],e_t]`` can be nonzero, as
        ``(p, q)`` is a pair and ``t`` pairs with a letter of its bracket; the
        metabelian law on the pairs of pairs whose values can bracket to
        nonzero.  Both lists ascend by index tuple."""
        jacobi, metabelian = [], []
        adjacent: dict[int, set[int]] = {}  # letter -> the letters it has a pair with
        for i, j in self.table:
            adjacent.setdefault(i, set()).add(j)
            adjacent.setdefault(j, set()).add(i)
        triples = {
            tuple(sorted((p, q, t)))
            for (p, q), value in self.table.items()
            for t in set().union(*(adjacent.get(b, ()) for b in value)) - {p, q}
        }
        for i, j, k in sorted(triples):
            terms = (self.bracket(self.bracket_basis(p, q), {t: 1}) for p, q, t in ((i, j, k), (j, k, i), (k, i, j)))
            if r := accumulate({}, chain.from_iterable(term.items() for term in terms)):
                jacobi.append(((i, j, k), r))
        pairs = sorted(self.table)
        values = [self.table[pair] for pair in pairs]
        for r, s in self._bracket_support(values):
            if w := self.bracket(values[r], values[s]):
                metabelian.append((pairs[r] + pairs[s], w))
        return LieValidationReport(jacobi, metabelian)

    def __repr__(self) -> str:
        return f"MetabelianLieAlgebra(dim={self.dim}, labels={self.labels})"


def _typed(value, kind: type):
    """``value`` when its type is exactly ``kind``, so a ``bool`` is not an
    ``int``; anything else raises ``TypeError``."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _parse_rational(text) -> Fraction | int:
    """A JSON coefficient: an integer, or the text ``p`` (an ``int``) or
    ``p/q`` (a ``Fraction``)."""
    if type(text) is int:
        return text
    if not isinstance(text, str):
        raise AlgebraFormatError(f"rational must be 'p' or 'p/q', got {text!r}")
    s = text.strip()
    body = s[1:] if s[:1] == "-" else s
    if not body or not all(part.isdigit() and part for part in body.split("/", 1)):
        raise AlgebraFormatError(f"rational must be 'p' or 'p/q', got {text!r}")
    try:
        return Fraction(s) if "/" in s else int(s)
    except ZeroDivisionError:
        raise AlgebraFormatError(f"rational {text!r} has a zero denominator") from None


def load_algebra(path: str | Path) -> MetabelianLieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise AlgebraFormatError("invalid JSON: input is nested too deeply") from None
    return MetabelianLieAlgebra.from_dict(data)


def random_metabelian(dim: int, rng: random.Random) -> MetabelianLieAlgebra:
    """Seeded valid metabelian algebras from two stock families, for
    randomized tests and fuzzing."""
    brackets = {}
    if rng.random() < 0.5 and dim >= 2:
        # one outer derivation acting on an abelian ideal spanned by e2..ed
        for j in range(2, dim + 1):
            brackets[(1, j)] = {b: rng.randint(-3, 3) for b in range(2, dim + 1) if rng.random() < 0.6}
    else:
        # two-step nilpotent: brackets of the first block land in the center
        m = dim - 1
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                brackets[(i, j)] = {b: rng.randint(-2, 2) for b in range(m + 1, dim + 1) if rng.random() < 0.8}
    return MetabelianLieAlgebra(dim, brackets=brackets)  # which drops zero values and empty brackets


# ---------------------------------------------------------------------------
# basis splitting


class BasisSplit(NamedTuple):
    """Basis reordered (and, if needed, changed) so the derived subalgebra
    comes first.

    ``algebra`` is the adapted copy: indices ``1..y_count`` span the derived
    subalgebra, the rest are the complement.  ``new_in_old`` holds the
    adapted basis vectors in original coordinates.
    """

    algebra: MetabelianLieAlgebra
    original: MetabelianLieAlgebra
    y_count: int
    new_in_old: tuple[Vec, ...]
    unit_images: tuple[Combination, ...]  # original e_i over the adapted basis

    @property
    def z_indices(self) -> tuple[int, ...]:
        return tuple(range(self.y_count + 1, self.algebra.dim + 1))

    @property
    def changed_basis(self) -> bool:
        """True when some adapted vector is not an original basis vector
        (pure reorderings do not count)."""
        return any(list(row.values()) != [1] for row in self.new_in_old)

    def to_adapted(self, v: Vec) -> Vec:
        """Coordinates of an original-basis vector over the adapted basis."""
        return _combine(self.unit_images, v)


def _combine(images: Sequence[Combination], v: Vec) -> Vec:
    """``sum v_i * images[i - 1]`` in ascending adapted index."""
    out: Vec = {}
    for i, c in v.items():
        if not 1 <= i <= len(images):
            raise ValueError(f"basis index {i} outside 1..{len(images)}")
        accumulate(out, ((r, c * x) for r, x in images[i - 1].items()))
    return dict(sorted(out.items()))


def split_basis(algebra: MetabelianLieAlgebra) -> BasisSplit:
    """Choose the derived-first adapted basis.

    Original basis vectors lying in the derived subalgebra are preferred;
    only when they fail to span it are echelon rows of the bracket span
    adjoined (changing the basis, with fresh ``y<r>`` labels for the
    synthesized vectors).  The original basis vectors then complete it.
    """
    n = algebra.dim
    units = [{i: 1} for i in range(1, n + 1)]
    derived = algebra._derived_span()
    # the r-th accepted vector carries the witness {r: 1}, so the witness of
    # an original unit vector is its image over the adapted basis
    chosen = Span()
    new_rows: list[Vec] = []
    for v in chain([e for e in units if derived.contains(e)], derived.rows, units):
        if chosen.add(v, Combination._of({len(new_rows) + 1: 1})):
            new_rows.append(v)
    images = tuple(chosen.witness_for(e, Combination.zero()) for e in units)

    labels: list[str] = []
    synth = 0
    for row in new_rows:
        if list(row.values()) == [1]:  # the original basis vector e_i
            (i,) = row
            labels.append(algebra.labels[i - 1])
        else:
            synth += 1
            base = f"y{synth}"
            while base in labels or base in algebra.labels:
                base += "_"
            labels.append(base)

    brackets: dict[tuple[int, int], Vec] = {}
    for r, s in algebra._bracket_support(new_rows):
        if w := _combine(images, algebra.bracket(new_rows[r], new_rows[s])):
            brackets[(r + 1, s + 1)] = w
    adapted = MetabelianLieAlgebra(n, labels, brackets)
    return BasisSplit(
        algebra=adapted,
        original=algebra,
        y_count=derived.dim,
        new_in_old=tuple(new_rows),
        unit_images=images,
    )
