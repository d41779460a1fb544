"""Enveloping algebra construction for metabelian Lie algebras.

A metabelian Lie algebra embeds into a perm algebra; the enveloping perm
algebra is realized inside a commutative polynomial ring on two copies of
the basis, one plain and one dotted, restricted to polynomials linear in
the dotted letters.  After splitting the basis into Y (spanning the
derived subalgebra) and Z (a complement, ordered after Y) the defining
relations become a terminating, confluent rewriting system

    y = 0                              (plain derived letters vanish)
    y' z    -> [y,z]'                  (a dotted Y letter absorbs any plain letter)
    z_i' z_j -> z_j' z_i + [z_i,z_j]'  for i > j  (the dot moves to the minimum)

whose normal forms are exactly ``y'`` and ``z_i1' z_i2 ... z_in`` with
``i1 <= ... <= in``.  Both overlap families reduce to zero for every valid
input, which is what certifies the normal forms as a linear basis.

The input algebra, its validation and the basis split are in
:mod:`permalg.metabelian`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate as running_totals, combinations_with_replacement
from math import ceil, comb, log
from typing import Iterable, NamedTuple, Sequence

# the input side lives in its own module; its names stay importable from here
from .metabelian import (
    AlgebraFormatError,
    BasisSplit,
    InvalidLieAlgebra,
    LieValidationReport,
    MetabelianLieAlgebra,
    Vec,
    load_algebra,
    random_metabelian,
    split_basis,
)
from .perm import accumulate, format_linear

__all__ = [
    "AlgebraFormatError",
    "BasisSplit",
    "CompositionReport",
    "EmbedReport",
    "Envelope",
    "EnvelopeMonomial",
    "GrowthReport",
    "InvalidLieAlgebra",
    "LieValidationReport",
    "MetabelianLieAlgebra",
    "RewriteRule",
    "StrategyAgreementReport",
    "load_algebra",
    "split_basis",
]

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the rewriting system


class EnvelopeMonomial(NamedTuple):
    """Commutative word with one dotted letter and a sorted plain tail.

    Indices refer to the adapted basis (derived-subalgebra letters first).
    """

    dot: int
    tail: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return 1 + len(self.tail)


def env_monomial(dot: int, tail: Iterable[int] = ()) -> EnvelopeMonomial:
    return EnvelopeMonomial(dot, tuple(sorted(tail)))


EnvElement = dict[EnvelopeMonomial, Fraction]


def env_key(m: EnvelopeMonomial, y_count: int) -> tuple:
    """Degree-lexicographic order with dotted derived letters smallest."""
    return (m.degree, 0 if m.dot <= y_count else 1, m.dot, m.tail)


@dataclass(frozen=True)
class RewriteRule:
    """Length-two redex and its strictly smaller reduct."""

    redex: EnvelopeMonomial
    reduct: tuple[tuple[EnvelopeMonomial, Fraction], ...]

    def reduct_element(self) -> EnvElement:
        return dict(self.reduct)


@dataclass
class CompositionEntry:
    kind: str  # "y-overlap" or "z-overlap"
    letters: tuple[str, ...]
    trivial: bool
    residual: str


@dataclass
class CompositionReport:
    entries: list[CompositionEntry]

    @property
    def all_trivial(self) -> bool:
        return all(e.trivial for e in self.entries)


@dataclass
class EmbedReport:
    checked: int
    failures: list[tuple[str, str, str, str]]  # label_i, label_j, got, expected

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class StrategyAgreementReport:
    seed: int
    words: int
    disagreements: int

    @property
    def ok(self) -> bool:
        return self.disagreements == 0


@dataclass
class GrowthReport:
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
    """Least squares ``y = a + b*x``; returns (a, b)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return my, 0.0
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    return my - b * mx, b


class Envelope:
    """The enveloping perm algebra of a validated metabelian Lie algebra."""

    def __init__(self, algebra: MetabelianLieAlgebra):
        report = algebra.validate()
        if not report.ok:
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

    def monomial_str(self, m: EnvelopeMonomial, unicode: bool = False) -> str:
        lbl = self.label(m.dot)
        dotted = f"{lbl[0]}̇{lbl[1:]}" if unicode else f"d({lbl})"
        parts = [dotted] + [self.label(i) for i in m.tail]
        return "*".join(parts)

    def element_str(self, e: EnvElement, unicode: bool = False) -> str:
        ordered = sorted(e.items(), key=lambda kv: env_key(kv[0], self.y_count), reverse=True)
        return format_linear((c, self.monomial_str(m, unicode)) for m, c in ordered)

    # -- relations

    def dotted(self, v: Vec) -> EnvElement:
        """Dotted image of an adapted-coordinates vector."""
        return accumulate({}, ((EnvelopeMonomial(i), c) for i, c in sorted(v.items())))

    def rules(self) -> list[RewriteRule]:
        """The length-two rules: every ``y' z``, then ``z_i' z_j`` for
        ``i > j`` with ``z_j`` outer; each reduct is one :meth:`_absorb` step."""
        zs = self.z_indices
        redexes = [EnvelopeMonomial(y, (z,)) for y in range(1, self.y_count + 1) for z in zs]
        redexes += [EnvelopeMonomial(i, (j,)) for j in zs for i in zs if i > j]
        return [RewriteRule(m, tuple(sorted(self._absorb(m, m.tail[0]).items()))) for m in redexes]

    def rule_str(self, rule: RewriteRule, unicode: bool = False) -> str:
        return (
            f"{self.monomial_str(rule.redex, unicode)} -> "
            f"{self.element_str(rule.reduct_element(), unicode)}"
        )

    # -- reduction

    def is_normal(self, m: EnvelopeMonomial) -> bool:
        return self._step(m, "leftmost") is None

    def _absorb(self, m: EnvelopeMonomial, letter: int) -> EnvElement:
        """One step of the length-two rule of the dot and the plain
        ``letter`` of ``m``: a dotted Y letter ``y`` becomes ``[y,letter]'``;
        a dotted Z letter ``z_i`` with ``letter = z_j`` becomes
        ``z_j' z_i + [z_i,z_j]'``.  The other plain letters ride along."""
        i = m.tail.index(letter)
        rest = m.tail[:i] + m.tail[i + 1 :]
        moved = {} if self.is_y(m.dot) else {EnvelopeMonomial(letter, tuple(sorted(rest + (m.dot,)))): _ONE}
        bracket = sorted(self.algebra.bracket_basis(m.dot, letter).items())
        return accumulate(moved, ((EnvelopeMonomial(b, rest), c) for b, c in bracket))

    def _step(self, m: EnvelopeMonomial, strategy: str) -> EnvElement | None:
        """One rewriting step, or None when the monomial is normal."""
        y_tail = [t for t in m.tail if self.is_y(t)]
        if y_tail:
            return {}
        if not m.tail:
            return None
        pick = min if strategy == "leftmost" else max
        if self.is_y(m.dot):
            return self._absorb(m, pick(m.tail))
        smaller = [t for t in m.tail if t < m.dot]
        if not smaller:
            return None
        return self._absorb(m, pick(smaller))

    def normal_form(self, element: EnvElement, strategy: str = "leftmost") -> EnvElement:
        """Confluent reduction to the basis monomials.

        Always rewrites the largest pending monomial; every rule strictly
        decreases the degree-lexicographic order, so this terminates.
        """
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        work = accumulate({}, element.items())
        result: EnvElement = {}
        while work:
            m = max(work, key=lambda mm: env_key(mm, self.y_count))
            c = work.pop(m)
            step = self._step(m, strategy)
            if step is None:
                accumulate(result, ((m, c),))
                continue
            accumulate(work, ((m2, c * c2) for m2, c2 in step.items()))
        return result

    # -- composition (overlap) checking

    def check_compositions(self) -> CompositionReport:
        """Reduce every one-dot overlap word both ways; all differences must
        vanish for the rules to be a complete rewriting system."""
        entries: list[CompositionEntry] = []
        zs = list(self.z_indices)
        for y in range(1, self.y_count + 1):
            for bi in range(len(zs)):
                for bj in range(bi + 1, len(zs)):
                    zj, zi = zs[bi], zs[bj]  # zi > zj
                    word = env_monomial(y, (zi, zj))
                    diff = self._overlap(word, zi, zj)
                    entries.append(
                        CompositionEntry(
                            "y-overlap",
                            (self.label(y), self.label(zi), self.label(zj)),
                            not diff,
                            self.element_str(diff),
                        )
                    )
        for a in range(len(zs)):
            for b in range(a + 1, len(zs)):
                for c in range(b + 1, len(zs)):
                    zk, zj, zi = zs[a], zs[b], zs[c]  # zi > zj > zk
                    word = env_monomial(zi, (zj, zk))
                    diff = self._overlap(word, zj, zk)
                    entries.append(
                        CompositionEntry(
                            "z-overlap",
                            (self.label(zi), self.label(zj), self.label(zk)),
                            not diff,
                            self.element_str(diff),
                        )
                    )
        return CompositionReport(entries)

    def _overlap(self, m: EnvelopeMonomial, first: int, second: int) -> EnvElement:
        """Normal form of ``m`` after the dot absorbs ``first``, minus the
        one after it absorbs ``second``."""
        a = self.normal_form(self._absorb(m, first))
        b = self.normal_form(self._absorb(m, second))
        return accumulate(a, ((mono, -c) for mono, c in b.items()))

    # -- basis and growth

    def basis_degree(self, n: int) -> list[EnvelopeMonomial]:
        if n < 1:
            raise ValueError("degree must be >= 1")
        if n == 1:
            return [EnvelopeMonomial(i) for i in range(1, self.dim + 1)]
        return [
            EnvelopeMonomial(word[0], word[1:])
            for word in combinations_with_replacement(self.z_indices, n)
        ]

    def basis_up_to(self, d: int) -> dict[int, list[EnvelopeMonomial]]:
        if d < 1:
            raise ValueError("degree bound must be >= 1")
        return {n: self.basis_degree(n) for n in range(1, d + 1)}

    def degree_count(self, n: int) -> int:
        if n == 1:
            return self.dim
        nz = len(self.z_indices)
        return comb(n + nz - 1, n)

    def gk_estimate(self, dmax: int) -> GrowthReport:
        """Growth of cumulative basis counts, with slope estimates taken
        over the top half of the degree range."""
        if dmax < 4:
            raise ValueError("need dmax >= 4")
        degrees = tuple(range(1, dmax + 1))
        per_degree = tuple(self.degree_count(n) for n in degrees)
        cumulative = tuple(running_totals(per_degree))
        start = max(2, ceil(dmax / 2))
        window = list(range(start, dmax + 1))
        logs = {d: log(cumulative[d - 1]) for d in range(1, dmax + 1)}
        _, raw = _ls_fit([log(d) for d in window], [logs[d] for d in window])
        succ = [(logs[d] - logs[d - 1]) / (log(d) - log(d - 1)) for d in window]
        intercept, _ = _ls_fit([1.0 / d for d in window], succ)
        return GrowthReport(
            degrees=degrees,
            per_degree=per_degree,
            cumulative=cumulative,
            window=(start, dmax),
            loglog_slope=raw,
            slope=intercept,
        )

    # -- embedding

    def embed_check(self) -> EmbedReport:
        """Every adapted basis pair must satisfy
        ``nf(x_i' x_j - x_j' x_i) = [x_i,x_j]'`` and the dotted letters are
        pairwise distinct normal monomials."""
        failures: list[tuple[str, str, str, str]] = []
        checked = 0
        for i in range(1, self.dim + 1):
            if not self.is_normal(EnvelopeMonomial(i)):
                failures.append((self.label(i), "", "degree-1 letter not normal", ""))
        for i in range(1, self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                got = self.normal_form({EnvelopeMonomial(i, (j,)): _ONE, EnvelopeMonomial(j, (i,)): -_ONE})
                expected = self.dotted(self.algebra.bracket_basis(i, j))
                checked += 1
                if got != expected:
                    failures.append(
                        (
                            self.label(i),
                            self.label(j),
                            self.element_str(got),
                            self.element_str(expected),
                        )
                    )
        return EmbedReport(checked=checked, failures=failures)

    # -- randomized strategy agreement

    def strategy_agreement(
        self, words: int, seed: int, max_degree: int = 6
    ) -> StrategyAgreementReport:
        rng = random.Random(seed)
        disagreements = 0
        for _ in range(words):
            degree = rng.randint(1, max_degree)
            dot = rng.randint(1, self.dim)
            tail = tuple(sorted(rng.randint(1, self.dim) for _ in range(degree - 1)))
            element = {EnvelopeMonomial(dot, tail): Fraction(1)}
            if self.normal_form(element, "leftmost") != self.normal_form(element, "rightmost"):
                disagreements += 1
        return StrategyAgreementReport(seed=seed, words=words, disagreements=disagreements)

    # -- input in original coordinates

    def element_from_original(
        self, terms: Iterable[tuple[Fraction, int, Sequence[int]]]
    ) -> EnvElement:
        """Build an element from (coefficient, dotted original index, plain
        original indices) triples, expanding multilinearly through the
        basis adaptation."""
        out: EnvElement = {}
        for coeff, dot_idx, tail_idxs in terms:
            dot_vec = self.split.to_adapted({dot_idx: Fraction(1)})
            parts: list[tuple[Fraction, int, tuple[int, ...]]] = [
                (coeff * c, i, ()) for i, c in sorted(dot_vec.items())
            ]
            for t in tail_idxs:
                t_vec = sorted(self.split.to_adapted({t: Fraction(1)}).items())
                parts = [
                    (c * tc, dot, tail + (ti,))
                    for c, dot, tail in parts
                    for ti, tc in t_vec
                ]
            accumulate(out, ((env_monomial(dot, tail), c) for c, dot, tail in parts))
        return out
