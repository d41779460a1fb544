"""Enveloping algebra construction for metabelian Lie algebras.

A metabelian Lie algebra embeds into a perm algebra; the enveloping perm
algebra is realized inside a commutative polynomial ring on two copies of
the basis, one plain and one dotted, restricted to polynomials linear in
the dotted letters.  That ring is the free perm algebra on the basis
letters, with the dot as the head: ``a' t1 ... tm`` is the canonical word
with head ``a`` and sorted tail ``t1 ... tm``, so an element is a
``PermPolynomial`` and the perm commutator ``x_i x_j - x_j x_i`` is
``x_i' x_j - x_j' x_i``.  After splitting the basis into Y (spanning the
derived subalgebra) and Z (a complement, ordered after Y) the defining
relations become a terminating, confluent rewriting system

    y = 0                              (plain derived letters vanish)
    y' z    -> [y,z]'                  (a dotted Y letter absorbs any plain letter)
    z_i' z_j -> z_j' z_i + [z_i,z_j]'  for i > j  (the dot moves to the minimum)

whose normal forms are exactly ``y'`` and ``z_i1' z_i2 ... z_in`` with
``i1 <= ... <= in``.  Both overlap families reduce to zero for every valid
input, which is what certifies the normal forms as a linear basis.

A strategy picks the plain letter the dot absorbs when several rules
apply: the least (``leftmost``) or the greatest (``rightmost``).  One
monomial reduces along a chain, not a tree.  A plain derived letter in
the tail makes it 0.  Otherwise a dotted ``z_a`` takes ``z_a' z_p rest``
to ``z_p' z_a rest + [z_a,z_p]' rest``, with ``p`` picked among the tail
letters below ``a``: one Z monomial with coefficient 1, which goes on,
and a dotted derived vector, which absorbs the letters of ``rest`` one at
a time in pick order.  Leftmost takes one Z step, which is the closed
form ``z_a' w = z_m' (w-m+a) + (ad_{w-m}[z_a,z_m])'`` for ``m = min w``.
Each step applies one rule and reduction is linear, so reducing the
monomials of an element one after another is a reduction sequence of the
paper's system, not a formula beside it.

On an overlap word the two overlapping rules are the two strategies'
first steps (on ``y' z_j z_i``, absorbing ``z_j`` or ``z_i``; on
``z_i' z_k z_j``, ``z_k`` or ``z_j``), so a composition residual is the
rightmost normal form of the word minus its leftmost one.

The counts ``*_count`` and ``gk_estimate`` are closed forms in ``dim`` and
``|Y|`` alone, so they size a job before an ``Envelope`` is built.

The input algebra, its validation and the basis split are in
:mod:`permalg.metabelian`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate as running_totals, combinations, combinations_with_replacement
from math import comb, log
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .metabelian import InvalidLieAlgebra, MetabelianLieAlgebra, Vec, split_basis
from .perm import PermMonomial, PermPolynomial, accumulate, format_linear

__all__ = [
    "CompositionReport",
    "EmbedReport",
    "Envelope",
    "GrowthReport",
    "RewriteRule",
    "StrategyAgreementReport",
    "degree_count",
    "gk_estimate",
    "letter_count",
    "overlap_count",
    "rule_count",
]


# ---------------------------------------------------------------------------
# the rewriting system


def _letter_commutator(i: int, j: int) -> PermPolynomial:
    """The perm commutator ``x_i x_j - x_j x_i`` of two distinct letters,
    built as its two words ``x_i' x_j - x_j' x_i`` with no product."""
    return PermPolynomial._of({PermMonomial(i, (j,)): 1, PermMonomial(j, (i,)): -1})


def env_key(m: PermMonomial, y_count: int) -> tuple:
    """Degree-lexicographic order with dotted derived letters smallest."""
    return (m.degree, 0 if m.head <= y_count else 1, m.head, m.tail)


class RewriteRule(NamedTuple):
    """Length-two redex and its strictly smaller reduct."""

    redex: PermMonomial
    reduct: PermPolynomial


class CompositionEntry(NamedTuple):
    kind: str  # "y-overlap" or "z-overlap"
    letters: tuple[str, ...]
    trivial: bool
    residual: str


class CompositionReport(NamedTuple):
    entries: list[CompositionEntry]

    @property
    def all_trivial(self) -> bool:
        return all(e.trivial for e in self.entries)


class EmbedReport(NamedTuple):
    checked: int
    failures: list[tuple[str, str, str, str]]  # label_i, label_j, got, expected

    @property
    def ok(self) -> bool:
        return not self.failures


class StrategyAgreementReport(NamedTuple):
    seed: int
    words: int
    disagreements: int

    @property
    def ok(self) -> bool:
        return self.disagreements == 0


class GrowthReport(NamedTuple):
    """Basis counts per degree with two slope estimates.

    ``loglog_slope`` is the plain least-squares slope of log cumulative
    count against log degree over the top half of the range; it converges
    slowly, so ``slope`` additionally extrapolates the successive slopes
    against 1/degree (least squares again) and is the headline figure.
    """

    degrees: tuple[int, ...]
    per_degree: tuple[int, ...]
    cumulative: tuple[int, ...]
    window: tuple[int, int]
    loglog_slope: float
    slope: float


def _ls_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least squares ``y = a + b*x`` over at least two distinct ``x``; returns (a, b)."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return my - b * mx, b


def degree_count(dim: int, y: int, n: int) -> int:
    """Basis monomials of degree ``n``: ``dim`` letters ``x'``, then
    ``C(n + |Z| - 1, n)`` words ``z_i1' z_i2 ... z_in``, with ``|Z| = dim - y``."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return dim if n == 1 else comb(n + dim - y - 1, n)


def letter_count(dim: int, y: int, d: int) -> int:
    """Letters in the basis monomials up to degree ``d``: ``k*C(d+k, d-1)``
    for ``k = |Z|``, plus the ``y`` derived letters of degree 1."""
    if d < 1:
        raise ValueError("degree bound must be >= 1")
    k = dim - y
    return k * comb(d + k, d - 1) + y


def rule_count(dim: int, y: int) -> int:
    """The rules :meth:`Envelope.rules` builds: ``|Y|*|Z| + C(|Z|, 2)``."""
    return y * (dim - y) + comb(dim - y, 2)


def overlap_count(dim: int, y: int) -> int:
    """The overlap words :meth:`Envelope.check_compositions` reduces: ``C(|Z|, 2) * |Y| + C(|Z|, 3)``."""
    return comb(dim - y, 2) * y + comb(dim - y, 3)


def gk_estimate(dim: int, y: int, dmax: int) -> GrowthReport:
    """Growth of cumulative basis counts, with slope estimates taken
    over the top half of the degree range."""
    if dmax < 4:
        raise ValueError("need dmax >= 4")
    degrees = tuple(range(1, dmax + 1))
    per_degree = tuple(degree_count(dim, y, n) for n in degrees)
    cumulative = tuple(running_totals(per_degree))
    start = (dmax + 1) // 2
    window = list(range(start, dmax + 1))
    logs = {d: log(cumulative[d - 1]) for d in range(start - 1, dmax + 1)}
    _, raw = _ls_fit([log(d) for d in window], [logs[d] for d in window])
    succ = [(logs[d] - logs[d - 1]) / (log(d) - log(d - 1)) for d in window]
    intercept, _ = _ls_fit([1.0 / d for d in window], succ)
    return GrowthReport(degrees, per_degree, cumulative, (start, dmax), raw, intercept)


class Envelope:
    """The enveloping perm algebra of a validated metabelian Lie algebra."""

    def __init__(self, algebra: MetabelianLieAlgebra):
        if not (report := algebra.validate()).ok:
            raise InvalidLieAlgebra(report)
        self.split = split_basis(algebra)
        self.algebra = self.split.algebra
        self.original = algebra
        self.y_count = self.split.y_count
        self.dim = self.algebra.dim
        self.z_indices = self.split.z_indices

    # -- letters and printing

    def is_y(self, idx: int) -> bool:
        return idx <= self.y_count

    def label(self, idx: int) -> str:
        return self.algebra.labels[idx - 1]

    def monomial_str(self, m: PermMonomial, unicode: bool = False) -> str:
        lbl = self.label(m.head)
        dotted = f"{lbl[0]}̇{lbl[1:]}" if unicode else f"d({lbl})"
        return "*".join([dotted, *map(self.label, m.tail)])

    def element_str(self, e: PermPolynomial, unicode: bool = False) -> str:
        ordered = sorted(e.items(), key=lambda kv: env_key(kv[0], self.y_count), reverse=True)
        return format_linear((c, self.monomial_str(m, unicode)) for m, c in ordered)

    # -- relations

    def dotted(self, v: Vec) -> PermPolynomial:
        """Dotted image of an adapted-coordinates vector."""
        return PermPolynomial._of(accumulate({}, ((PermMonomial(i), c) for i, c in v.items())))

    def rules(self) -> list[RewriteRule]:
        """The length-two rules: every ``y' z``, then ``z_i' z_j`` for
        ``i > j`` with ``z_j`` outer; a length-two redex reduces in one
        step, so each reduct is its chain."""
        zs = self.z_indices
        redexes = [PermMonomial(y, (z,)) for y in range(1, self.y_count + 1) for z in zs]
        redexes += [PermMonomial(i, (j,)) for j in zs for i in zs if i > j]
        return [RewriteRule(m, PermPolynomial._of(self._chain(m, "leftmost"))) for m in redexes]

    def rule_str(self, rule: RewriteRule, unicode: bool = False) -> str:
        return f"{self.monomial_str(rule.redex, unicode)} -> {self.element_str(rule.reduct, unicode)}"

    # -- reduction

    def is_normal(self, m: PermMonomial) -> bool:
        return not m.tail or self.y_count < m.head <= m.tail[0]

    def _chain(self, m: PermMonomial, strategy: str) -> dict[PermMonomial, Fraction]:
        """Normal form of one monomial, one rule application at a time (see
        the module docstring): Z steps while a plain letter is below the
        dot, then each dotted derived vector absorbs its plain letters."""
        if m.tail and self.is_y(m.tail[0]):
            return {}
        pick = min if strategy == "leftmost" else max
        dot, tail = m.head, list(m.tail)
        derived: list[tuple[Vec, list[int]]] = []  # dotted vector, plain letters to absorb
        while not self.is_y(dot) and (below := [t for t in tail if t < dot]):
            p = pick(below)
            tail.remove(p)
            derived.append((self.algebra.bracket_basis(dot, p), list(tail)))
            dot, tail = p, sorted(tail + [dot])
        out: dict[PermMonomial, Fraction] = {}
        if self.is_y(dot):
            derived.append(({dot: 1}, tail))
        else:
            out[PermMonomial(dot, tuple(tail))] = 1
        for vec, letters in derived:
            for t in sorted(letters, reverse=pick is max):
                vec = self.algebra.bracket(vec, {t: 1})
            accumulate(out, self.dotted(vec).items())
        return out

    def normal_form(self, element: PermPolynomial, strategy: str = "leftmost") -> PermPolynomial:
        """Reduction to the basis monomials: the sum of each monomial's chain,
        which terminates as every rule lowers the degree-lexicographic order.
        ``element`` is a ``PermPolynomial`` over the adapted letters
        ``1..dim``; anything else is refused."""
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if not isinstance(element, PermPolynomial):
            raise TypeError(f"expected PermPolynomial, got {type(element).__name__}")
        dim = self.dim
        out: dict[PermMonomial, Fraction] = {}
        for m, c in element.items():
            if m.head > dim or m.tail and m.tail[-1] > dim:
                raise ValueError(f"letter {max(m.word())} is outside the basis 1..{dim}")
            accumulate(out, ((m2, c * c2) for m2, c2 in self._chain(m, strategy).items()))
        return PermPolynomial._of(out)

    def _disagreement(self, word: PermMonomial) -> PermPolynomial:
        """Rightmost normal form of ``word`` minus its leftmost one."""
        element = PermPolynomial._of({word: 1})
        return self.normal_form(element, "rightmost") - self.normal_form(element, "leftmost")

    # -- composition (overlap) checking

    def check_compositions(self) -> CompositionReport:
        """Reduce every one-dot overlap word both ways; all differences must
        vanish for the rules to be a complete rewriting system.  Each entry
        names the dot, then the plain letters from the greatest down."""
        zs = self.z_indices
        ys = range(1, self.y_count + 1)
        words = [("y-overlap", PermMonomial(y, pair)) for y in ys for pair in combinations(zs, 2)]
        words += [("z-overlap", PermMonomial(zi, (zk, zj))) for zk, zj, zi in combinations(zs, 3)]
        entries = []
        for kind, word in words:
            diff = self._disagreement(word)
            letters = tuple(self.label(i) for i in (word.head, *reversed(word.tail)))
            entries.append(CompositionEntry(kind, letters, not diff, self.element_str(diff)))
        return CompositionReport(entries)

    # -- basis

    def basis_degree(self, n: int) -> list[PermMonomial]:
        if n < 1:
            raise ValueError("degree must be >= 1")
        if n == 1:
            return [PermMonomial(i) for i in range(1, self.dim + 1)]
        return [PermMonomial(word[0], word[1:]) for word in combinations_with_replacement(self.z_indices, n)]

    def basis_up_to(self, d: int) -> dict[int, list[PermMonomial]]:
        if d < 1:
            raise ValueError("degree bound must be >= 1")
        return {n: self.basis_degree(n) for n in range(1, d + 1)}

    # -- embedding

    def embed_check(self) -> EmbedReport:
        """Every adapted basis pair must satisfy ``nf(x_i x_j - x_j x_i) =
        [x_i,x_j]'``, the perm commutator of two letters reducing to the
        dotted bracket."""
        failures: list[tuple[str, str, str, str]] = []
        for i, j in combinations(range(1, self.dim + 1), 2):
            got = self.normal_form(_letter_commutator(i, j))
            expected = self.dotted(self.algebra.bracket_basis(i, j))
            if got != expected:
                failures.append((self.label(i), self.label(j), self.element_str(got), self.element_str(expected)))
        return EmbedReport(checked=comb(self.dim, 2), failures=failures)

    # -- randomized strategy agreement

    def strategy_agreement(self, words: int, seed: int, max_degree: int = 6) -> StrategyAgreementReport:
        rng = random.Random(seed)
        disagreements = 0
        for _ in range(words):
            degree = rng.randint(1, max_degree)
            dot = rng.randint(1, self.dim)
            tail = tuple(sorted(rng.randint(1, self.dim) for _ in range(degree - 1)))
            if self._disagreement(PermMonomial(dot, tail)):
                disagreements += 1
        return StrategyAgreementReport(seed=seed, words=words, disagreements=disagreements)

    # -- input in original coordinates

    def element_from_original(self, terms: Iterable[tuple[Fraction, int, Sequence[int]]]) -> PermPolynomial:
        """Build an element from (coefficient, dotted original index, plain
        original indices) triples: each term is its coefficient times the
        perm product of the letters' adapted images, the dotted one first."""

        def image(i: int) -> PermPolynomial:
            return self.dotted(self.split.to_adapted({i: 1}))

        out: dict[PermMonomial, Fraction] = {}
        for coeff, dot, tail in terms:
            accumulate(out, (coeff * reduce(mul, map(image, tail), image(dot))).items())
        return PermPolynomial._of(out)
