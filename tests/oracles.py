"""Independent checks of the closed forms in ``permalg.perm``,
``permalg.jordan``, ``permalg.lie`` and ``permalg.envelope``.

The slice closures close lower multidegree slices under the product until
nothing new appears, so they share no law with the closed form they check.
The work grows fast with the degree; keep the inputs small.  ``head`` and
``dynkin`` are the word-by-word projection onto the Lie part, which
``permalg.lie`` replaces with coefficient sums per slice.  The envelope
worklist always rewrites the largest pending monomial of the whole
element, where ``Envelope.normal_form`` runs one chain per monomial.
The word-by-word product multiplies every pair of terms, where
``PermPolynomial.__mul__`` groups the right factor by letter multiset.
``free_metabelian`` builds the free metabelian Lie algebras of bounded
class from the perm side, an independent algebra to hold the envelope to.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from permalg.envelope import Envelope, env_key
from permalg.expr import ExprSum, Leaf
from permalg.jordan import _sj_rows
from permalg.lie import ml_basis
from permalg.linalg import Subspace
from permalg.metabelian import MetabelianLieAlgebra
from permalg.perm import PermMonomial, PermPolynomial, accumulate, enumerate_basis, letters


def word_product_oracle(f: PermPolynomial, g: PermPolynomial) -> PermPolynomial:
    """``f * g`` one pair of words at a time: ``u * v`` keeps ``u``'s head
    and sorts the rest of ``u`` with every letter of ``v``."""
    return PermPolynomial._of(
        accumulate(
            {},
            (
                (PermMonomial(m1.head, tuple(sorted(m1.tail + m2.word()))), c1 * c2)
                for m1, c1 in f.items()
                for m2, c2 in g.items()
            ),
        )
    )


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


def sub_multidegrees(
    multidegree: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of ``multidegree`` into two nonzero exponent vectors, as
    ordered pairs ``(alpha, multidegree - alpha)`` with ``alpha`` running
    through ``itertools.product`` order."""
    md = tuple(multidegree)
    for alpha in product(*(range(e + 1) for e in md)):
        beta = tuple(a - b for a, b in zip(md, alpha))
        if any(alpha) and any(beta):
            yield alpha, beta


def sj_closure_oracle(multidegree: Sequence[int]) -> Subspace:
    """One multidegree slice of the anticommutator subalgebra, by closing
    lower slices under the product: an independent check of
    ``permalg.jordan._sj_rows`` that does not use the ``2^(n-3)`` law.

    A slice stops growing once it has full rank; the closure only adds, so
    nothing it would add later can change it.
    """
    memo: dict[tuple[int, ...], Subspace] = {}

    def close(md: tuple[int, ...]) -> Subspace:
        if md in memo:
            return memo[md]
        space = memo[md] = Subspace(enumerate_basis(len(md), sum(md), md))
        if sum(md) == 1:
            gen = md.index(1) + 1
            space.add(PermPolynomial.generator(gen), ExprSum.of(Leaf(gen)))
            return space
        for alpha, beta in sub_multidegrees(md):
            if alpha > beta:
                continue  # the product is symmetric; one orientation suffices
            left = close(alpha)
            right = close(beta)
            for u, uw in zip(left.basis(), left.expressions):
                for v, vw in zip(right.basis(), right.expressions):
                    space.add(u * v + v * u, uw.anti(vw))
                    if space.dim == len(space.monomials):
                        return space
        return space

    return close(tuple(multidegree))


def ideal_closure_oracle(
    ambient: str,
    generators: Sequence[PermPolynomial],
    multidegree: Sequence[int],
) -> Subspace:
    """One multidegree slice of the ideal generated by ``generators``, by
    closing every lower slice: an independent check of
    ``permalg.jordan.ideal_component`` that does not use the head-vector law.

    ``ambient="perm"`` closes under one-letter products on both sides (the
    two-sided associative ideal); ``ambient="jordan"`` closes under the
    anticommutator with every slice of the anticommutator subalgebra.
    Generators must each be homogeneous in every letter separately.
    """
    if ambient not in ("perm", "jordan"):
        raise ValueError(f"unknown ambient {ambient!r}")
    target = tuple(multidegree)
    k = len(target)
    by_mdeg: dict[tuple[int, ...], list[PermPolynomial]] = {}
    for g in generators:
        if g.is_zero:
            continue
        comps = g.components()
        if len(comps) != 1:
            raise ValueError(f"inhomogeneous generator {g}")
        (content,) = comps
        if content[-1] > k:
            raise ValueError(f"generator {g} mentions x{content[-1]} beyond {k} generators")
        md = tuple(content.count(i) for i in range(1, k + 1))
        by_mdeg.setdefault(md, []).append(g)

    memo: dict[tuple[int, ...], Subspace] = {}
    sj_basis: dict[tuple[int, ...], list[PermPolynomial]] = {}  # anticommutator slices

    def slice_of(md: tuple[int, ...]) -> Subspace:
        if md in memo:
            return memo[md]
        space = Subspace(enumerate_basis(k, sum(md), md))
        memo[md] = space
        for g in by_mdeg.get(md, ()):
            space.add(g)
        if ambient == "perm":
            for i in range(1, k + 1):
                if md[i - 1] == 0:
                    continue
                lower_md = tuple(e - (1 if j == i - 1 else 0) for j, e in enumerate(md))
                if sum(lower_md) == 0:
                    continue
                letter = PermPolynomial.generator(i)
                for p in slice_of(lower_md).basis():
                    space.add(letter * p)
                    space.add(p * letter)
        else:
            for delta, rest in sub_multidegrees(md):
                if delta not in sj_basis:
                    sj_basis[delta] = _sj_rows(letters(delta))
                for p in slice_of(rest).basis():
                    for s in sj_basis[delta]:
                        space.add(p * s + s * p)
        return space

    return slice_of(target)


def _absorb(env: Envelope, m: PermMonomial, letter: int) -> dict[PermMonomial, Fraction]:
    """One step of the length-two rule of the dot and the plain ``letter``
    of ``m``: a dotted Y letter ``y`` becomes ``[y,letter]'``; a dotted Z
    letter ``z_i`` with ``letter = z_j`` becomes ``z_j' z_i + [z_i,z_j]'``.
    The other plain letters ride along."""
    i = m.tail.index(letter)
    rest = m.tail[:i] + m.tail[i + 1 :]
    moved = {} if env.is_y(m.head) else {PermMonomial(letter, tuple(sorted(rest + (m.head,)))): Fraction(1)}
    bracket = sorted(env.algebra.bracket_basis(m.head, letter).items())
    return accumulate(moved, ((PermMonomial(b, rest), c) for b, c in bracket))


def _step(env: Envelope, m: PermMonomial, strategy: str) -> dict[PermMonomial, Fraction] | None:
    """One rewriting step, or None when the monomial is normal."""
    y_tail = [t for t in m.tail if env.is_y(t)]
    if y_tail:
        return {}
    if not m.tail:
        return None
    pick = min if strategy == "leftmost" else max
    if env.is_y(m.head):
        return _absorb(env, m, pick(m.tail))
    smaller = [t for t in m.tail if t < m.head]
    if not smaller:
        return None
    return _absorb(env, m, pick(smaller))


def worklist_normal_form_oracle(env: Envelope, element: PermPolynomial, strategy: str = "leftmost") -> PermPolynomial:
    """Confluent reduction to the basis monomials by a global worklist.

    Always rewrites the largest pending monomial; every rule strictly
    decreases the degree-lexicographic order, so this terminates.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    work = accumulate({}, element.items())
    result: dict[PermMonomial, Fraction] = {}
    while work:
        m = max(work, key=lambda mm: env_key(mm, env.y_count))
        c = work.pop(m)
        step = _step(env, m, strategy)
        if step is None:
            accumulate(result, ((m, c),))
            continue
        accumulate(work, ((m2, c * c2) for m2, c2 in step.items()))
    return PermPolynomial._of(result)


def overlap_oracle(env: Envelope, m: PermMonomial, first: int, second: int) -> PermPolynomial:
    """Worklist normal form of ``m`` after the dot absorbs ``first``, minus
    the one after it absorbs ``second``."""
    a = worklist_normal_form_oracle(env, PermPolynomial(_absorb(env, m, first)))
    b = worklist_normal_form_oracle(env, PermPolynomial(_absorb(env, m, second)))
    return a - b


def free_metabelian(k: int, c: int) -> tuple[MetabelianLieAlgebra, list[PermPolynomial]]:
    """``L(k, c)``, the free metabelian Lie algebra on ``k`` letters with
    brackets above weight ``c`` set to 0, and each basis element's perm
    polynomial.  The basis is the letters, then ``ml_basis(k, n)`` for
    ``2 <= n <= c``.  A bracket is a perm commutator, a Lie element whose
    coordinate on the ``ml_basis`` element with head ``h`` is its
    coefficient on the word ``W(h)``; above weight ``c`` no basis element
    has its letters, so the bracket is 0."""
    polys = [PermPolynomial.generator(i) for i in range(1, k + 1)]
    words = [PermMonomial(i) for i in range(1, k + 1)]
    for n in range(2, c + 1):
        for m in ml_basis(k, n):
            polys.append(m.expand())
            words.append(PermMonomial(m.first, (m.second, *m.rest)))
    index = {w: i for i, w in enumerate(words, start=1)}
    brackets = {}
    for i, j in combinations(range(1, len(words) + 1), 2):
        u, v = polys[i - 1], polys[j - 1]
        brackets[(i, j)] = {index[w]: x for w, x in (u * v - v * u).items() if w in index}
    return MetabelianLieAlgebra(len(words), brackets=brackets), polys
