"""Anticommutator-side analysis of the free perm algebra.

Covers the degree-four laws of the anticommutator product, constructive
expression of word polynomials through anticommutators, ideal slices in
closed form in both the associative and the anticommutator ambient, the
two-generator exceptional-quotient witness in the sense of Cohn, and the
``f``-combination normal form for the abstract anticommutator calculus.

Conventions: ``{a,b} = ab + ba``; the associator is
``<a,b,c> = {{a,b},c} - {a,{b,c}}``; and

    f(a;b,c) = -1/4*((ab)c - 3*(bc)a + (ac)b)

with juxtaposition read as the anticommutator product.

Slices and their words ``W(h)`` are those of the slice law in
:mod:`permalg.perm`.

The ``2^(n-3)`` law.  In a perm algebra a product of words is the word
with the first factor's head and the letters of both factors.  Let ``a``
and ``b`` be letters, ``c`` a combination of the words of one slice with
coefficient sum ``s``, ``W`` the words of the slice of all the letters
of ``a``, ``b``, ``c``, and ``C`` the sum of ``c``'s coefficients times
``W`` of their heads.  Expanding the three anticommutators,

    {{a,b},c} = s*W(a) + s*W(b) + 2*C
    {{b,c},a} = 2*s*W(a) + s*W(b) + C
    {{a,c},b} = s*W(a) + 2*s*W(b) + C

so ``f(a;b,c) = s*W(a)``.  A left-normed anticommutator of ``m`` letters
has coefficient sum ``2^(m-1)``, so the ``f``-element of a degree-``n``
word expands to ``2^(n-3)`` times that word.  Every component of degree
``>= 3`` is thus expressible through anticommutators without linear
algebra, and the ``f``-elements are a basis.

The ideal law.  A slice is ``Q^(its distinct letters)``: a polynomial
there is known by its head vector.  Write ``s(p)`` for the
coefficient sum of ``p`` and ``p^`` for ``p`` with letters appended, which
keeps its head vector.  For a letter ``x`` and homogeneous ``p``, ``t``,

    x*p = s(p)*W(x),    p*x = p^,    {p,t} = s(t)*p^ + s(p)*t^.

Take a generator ``g`` whose content is part of the target's, with
``s = s(g)``, and let ``d`` be the target's remaining letters.  The ideal
is the sum of its generators' ideals, and a generator whose content is
not part of the target's reaches nothing there.

- perm: the two-sided ideal of ``g`` is spanned by ``g``, ``u*g``, ``g*v``
  and ``u*g*v`` over words ``u``, ``v``, and both products with a word
  ``u`` on the left are ``s*W(head u)``.  So the slice gets ``g^`` and,
  when ``s != 0`` and ``|d| >= 1``, ``W(h)`` for every letter ``h`` of ``d``.
- jordan: the product is commutative, so the ideal of ``g`` is spanned by
  the chains ``{..{g,t_1},..,t_r}`` with each ``t_i`` a row of a slice of
  the anticommutator subalgebra.  Scale each row to coefficient sum 1:
  its head vector ``tau_i`` is then a unit ``W(h)``, or ``(W(a)+W(b))/2``
  for the row ``{x_a,x_b}`` of two distinct letters.  Step ``i`` doubles
  the sum, so by induction the chain is

      g^ + s * sum_i 2^(i-1) * tau_i,

  and its ``tau`` part has coefficient sum ``2^r - 1``.  If ``s = 0`` every
  chain is ``g^``.  If ``d`` is one letter ``a``, the one chain is
  ``g^ + s*W(a)``.  If ``|d| >= 2``, the chains of one-letter steps take
  ``d``'s letters in every order, and swapping two adjacent steps ``a``,
  ``b`` changes the chain by a multiple of ``s*(W(a) - W(b))``.  Modulo
  these differences a chain of length 1 (sum 1) and one of length 2
  (sum 3) differ by ``2*s*W(h)``, which separates ``g^`` from the ``W``.
  So the slice gets ``g^`` and ``W(h)`` for every letter ``h`` of ``d``,
  and these already hold every chain.

Slices and witnesses are values computed per call.  ``_sj_rows`` gives
the echelon rows of a slice in closed form (a letter, the anticommutator
of two letters, or from degree 3 on every word).  So from degree 3 on,
``sj_span`` is every word of the degree with its ``f``-element over
``2^(n-3)`` as its witness; it installs those rows as they are
(``Subspace.echelon``), with no row reduction.  The ``f``-element
witnesses of one call come from one node store, :class:`_FWitnesses`:
under the perm law a word is its head plus the multiset of its letters,
so the words of one content use the same leaves and often the same
left-normed chains.  The store builds each letter's leaf once, each chain
prefix once, keyed by the prefix's ``id`` and the next letter, and each
witness tree once.  Within one content a tree's coefficient is summed as
an ``int`` over ``lcm(coefficient denominators) << (n-1)``, and each
distinct tree gets one coefficient, an ``int`` when it is integral.
Nothing is kept between calls.  The slice closures that check both
closed forms, and the word-by-word witness build, live in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .expr import (
    Anti,
    ExprSum,
    IdentityTemplate,
    IdentityVerdict,
    Leaf,
    Node,
    Slot,
    associator,
    check_identity,
    wrap,
)
from .linalg import Subspace
from .perm import PermMonomial, PermPolynomial, enumerate_basis, exact, letters, slice_word

__all__ = [
    "FElement",
    "IdentitySuiteReport",
    "NotJordanElement",
    "CohnWitnessReport",
    "bn_basis",
    "cohn_witness",
    "expand_bn",
    "f_comb",
    "ideal_component",
    "jordan_express",
    "sj_span",
    "to_bn",
    "verify_J_identities",
    "verify_perm_plus_identities",
]

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


# ---------------------------------------------------------------------------
# identity suites


class IdentitySuiteReport(NamedTuple):
    """Outcome of a batch of identity checks plus frozen expansion checks."""

    verdicts: list[tuple[str, IdentityVerdict]]
    expansions: list[tuple[str, bool]]

    @property
    def ok(self) -> bool:
        return all(v.holds for _, v in self.verdicts) and all(ok for _, ok in self.expansions)

    def failures(self) -> list[str]:
        out = [name for name, v in self.verdicts if not v.holds]
        out += [name for name, ok in self.expansions if not ok]
        return out


def verify_perm_plus_identities() -> IdentitySuiteReport:
    """Degree-four laws of the anticommutator product, with the two frozen
    expansions that drive their proofs checked term for term."""
    a, b, c, d = (Slot(i) for i in range(1, 5))
    templates = [
        ("anticommutator symmetry", IdentityTemplate(wrap(a).anti(b), wrap(b).anti(a))),
        (
            "anticommutator interchange",
            IdentityTemplate(wrap(a).anti(b).anti(wrap(c).anti(d)), wrap(a).anti(d).anti(wrap(b).anti(c))),
        ),
        (
            "associator exchange",
            IdentityTemplate(
                2 * associator(wrap(a).anti(b), c, d),
                associator(wrap(a).anti(b), d, c)
                + associator(wrap(a).anti(c), b, d)
                + associator(wrap(b).anti(c), a, d),
            ),
        ),
    ]
    x1, x2, x3, x4 = (Leaf(i) for i in range(1, 5))
    double_anti = wrap(x1).anti(x2).anti(wrap(x3).anti(x4)).expand()
    expected = PermPolynomial(
        [
            (PermMonomial(1, (2, 3, 4)), 2),
            (PermMonomial(2, (1, 3, 4)), 2),
            (PermMonomial(3, (1, 2, 4)), 2),
            (PermMonomial(4, (1, 2, 3)), 2),
        ]
    )
    assoc = associator(wrap(x1).anti(x2), x3, x4).expand()
    expected_assoc = PermPolynomial(
        [
            (PermMonomial(1, (2, 3, 4)), -1),
            (PermMonomial(2, (1, 3, 4)), -1),
            (PermMonomial(4, (1, 2, 3)), 2),
        ]
    )
    return IdentitySuiteReport(
        [(name, check_identity(t)) for name, t in templates],
        [
            ("{{a,b},{c,d}} expansion", double_anti == expected),
            ("<{a,b},c,d> expansion", assoc == expected_assoc),
        ],
    )


def f_comb(a: "ExprSum | Node", b: "ExprSum | Node", c: "ExprSum | Node") -> ExprSum:
    """``f(a;b,c) = -1/4*((ab)c - 3*(bc)a + (ac)b)`` over the anticommutator."""
    a, b, c = wrap(a), wrap(b), wrap(c)
    return (
        (-_QUARTER) * a.anti(b).anti(c)
        + Fraction(3, 4) * b.anti(c).anti(a)
        + (-_QUARTER) * a.anti(c).anti(b)
    )


def verify_J_identities() -> IdentitySuiteReport:
    """Laws of the abstract commutative calculus built on ``f``, verified
    inside the word algebra with juxtaposition read as the anticommutator."""
    a, b, c, d, e = (Slot(i) for i in range(1, 6))
    A, B, C, D, E = (wrap(s) for s in (a, b, c, d, e))
    templates = [
        (
            "degree-4 expansion law",
            IdentityTemplate(
                A.anti(B).anti(C.anti(D)),
                -2 * A.anti(B).anti(C).anti(D)
                + A.anti(B).anti(D).anti(C)
                + A.anti(C).anti(B).anti(D)
                + B.anti(C).anti(A).anti(D),
            ),
        ),
        ("f argument symmetry", IdentityTemplate(f_comb(a, b, c), f_comb(a, c, b))),
        (
            "triple product decomposition",
            IdentityTemplate(
                A.anti(B).anti(C),
                f_comb(a, b, c) + f_comb(b, a, c) + 2 * f_comb(c, a, b),
            ),
        ),
        (
            "argument shift",
            IdentityTemplate(f_comb(A, B, C.anti(D)), f_comb(A, B.anti(C), D)),
        ),
        (
            "append law",
            IdentityTemplate(
                f_comb(a, b, c).anti(D),
                _HALF * f_comb(A, B, C.anti(D)) + _HALF * f_comb(D, A, B.anti(C)),
            ),
        ),
        (
            "third-argument reassociation",
            IdentityTemplate(
                f_comb(A, B, C.anti(D).anti(E)), f_comb(A, B, C.anti(D.anti(E)))
            ),
        ),
    ]
    words = [
        ("f(x1;x2,x3) is the word x1*x2*x3", (1, 2, 3)),
        ("f(x1;x1,x1) is the word x1*x1*x1", (1, 1, 1)),
    ]
    return IdentitySuiteReport(
        [(name, check_identity(t)) for name, t in templates],
        [(name, f_comb(*map(Leaf, w)).expand() == PermPolynomial.from_word(w)) for name, w in words],
    )


# ---------------------------------------------------------------------------
# anticommutator spans and Jordan expressibility


class _FWitnesses:
    """One call's store of ``f``-element witness trees.

    It builds each letter's :class:`Leaf` once, each left-normed chain
    prefix once, keyed by the ``id`` of the prefix before it and the next
    letter (O(1) key work per step, however long the chain), and each
    witness tree ``{{x,y},z}`` once, keyed by the ``id``s of ``x``, ``y``
    and ``z``.  So two leaves, two chains or two witness trees of the store
    are one object exactly when they are equal, and sums over the trees
    merge by identity, with no tree walk.  Each coefficient ``v / den``
    that is not integral is one ``Fraction`` per call.  The store lives as
    long as the call that made it."""

    __slots__ = ("_leaves", "_chains", "_trees", "_fractions")

    def __init__(self) -> None:
        self._leaves: dict[int, Leaf] = {}
        self._chains: dict[tuple[int, int], Anti] = {}
        self._trees: dict[tuple[int, int, int], Anti] = {}
        self._fractions: dict[tuple[int, int], Fraction] = {}

    def leaf(self, i: int) -> Leaf:
        node = self._leaves.get(i)
        if node is None:
            node = self._leaves[i] = Leaf(i)
        return node

    def word(self, head: int, args: Sequence[int]) -> tuple[Anti, Anti, Anti]:
        """The trees ``{{a,b},c}``, ``{{b,c},a}`` and ``{{a,c},b}`` of
        ``f(x_head; x_a1, {..{x_a2, x_a3}, ..})``, with ``a = x_head``,
        ``b = x_a1`` and ``c`` the chain of the other letters.  When
        ``head == a1`` the last two are one tree.  At degree 3 the chain is
        a leaf, so all three trees have the shape ``{{x,y},z}`` of three
        letters, and trees of one word or of two can be equal.  Equal
        trees are one object."""
        leaf, chains, trees = self.leaf, self._chains, self._trees
        c = leaf(args[1])
        for i in args[2:]:
            key = (id(c), i)
            node = chains.get(key)
            if node is None:
                node = chains[key] = Anti(c, leaf(i))
            c = node
        a, b = leaf(head), leaf(args[0])
        out = []
        for x, y, z in ((a, b, c), (b, c, a), (a, c, b)):
            key = (id(x), id(y), id(z))
            tree = trees.get(key)
            if tree is None:
                tree = trees[key] = Anti(Anti(x, y), z)
            out.append(tree)
        return tuple(out)

    def share(self, v: int, den: int) -> Fraction:
        """The call's one ``Fraction(v, den)``: the same object on every call."""
        q = self._fractions.get((v, den))
        if q is None:
            q = self._fractions[v, den] = Fraction(v, den)
        return q

    def unit(self, head: int, args: Sequence[int]) -> dict[Node, Fraction]:
        """The word ``x_head * x_args`` itself through anticommutators, as
        :meth:`content` gives it for that one word with coefficient 1, with
        no sum to take: ``-q``, ``3q`` and ``-q`` on the trees ``t1``,
        ``t2``, ``t3`` of :meth:`word`, ``q = 1/2^(n-1)``.  Trees coincide
        only at one letter repeated: ``t2`` is ``t3`` when ``head == a1``,
        and at degree 3 ``t1`` is ``t3`` when ``a1 == a2``.  None of these
        coefficients is integral, as ``n >= 3``."""
        t1, t2, t3 = self.word(head, args)
        den = 1 << len(args)
        share = self.share
        if t2 is not t3:
            if t1 is t3:
                return {t1: share(-2, den), t2: share(3, den)}
            return {t1: share(-1, den), t2: share(3, den), t3: share(-1, den)}
        if t1 is t2:  # x*x*x
            return {t1: share(1, den)}
        return {t1: share(-1, den), t2: share(2, den)}

    def content(
        self, words: Sequence[tuple[int, Sequence[int], Fraction | int]]
    ) -> dict[Node, Fraction | int]:
        """``sum c * x_head * x_args`` over the ``(head, args, c)`` words of
        one content of degree ``n >= 3``, through anticommutators: by the
        ``2^(n-3)`` law each word is ``q * (-t1 + 3*t2 - t3)`` on the trees
        of :meth:`word`, with ``q = c / 2^(n-1)``.  Each distinct tree sums
        ``int`` units over ``den = lcm(denominators) << (n-1)``, and a
        nonzero sum ``v`` is the coefficient ``v / den``: an ``int`` when
        it is integral, otherwise the call's one ``Fraction`` of it."""
        den = lcm(*[c.denominator for _, _, c in words])
        totals: dict[Node, int] = {}
        get = totals.get
        for head, args, c in words:
            units = c.numerator * (den // c.denominator)
            t1, t2, t3 = self.word(head, args)
            totals[t1] = get(t1, 0) - units
            totals[t2] = get(t2, 0) + 3 * units
            totals[t3] = get(t3, 0) - units
        den <<= len(args)  # 2^(n-1): each word of the content has n - 1 args
        fractions = self._fractions
        out: dict[Node, Fraction | int] = {}
        for tree, v in totals.items():
            if v:
                if v % den:
                    q = fractions.get((v, den))
                    if q is None:
                        q = fractions[v, den] = Fraction(v, den)
                else:
                    q = v // den
                out[tree] = q
        return out


def _sj_rows(content: tuple[int, ...]) -> list[PermPolynomial]:
    """Echelon rows of the slice ``content`` of the anticommutator
    subalgebra, in pivot order: the anticommutator of two distinct letters,
    scaled to lead 1; otherwise the whole slice, one word per row (a
    letter, ``x*x = {x,x}/2``, or from degree 3 on every word).
    :func:`_row_witness` gives a row's witness; ``sj_closure_oracle`` in
    ``tests/oracles.py`` rebuilds the slice by closure."""
    if len(content) == 2 and content[0] != content[1]:
        lo, hi = content
        return [PermPolynomial.from_word((lo, hi)) + PermPolynomial.from_word((hi, lo))]
    return [PermPolynomial._of({slice_word(content, h): 1}) for h in sorted(set(content))]


def _row_witness(store: _FWitnesses, lead: PermMonomial) -> dict[Node, Fraction | int]:
    """The witness, as ``{node: coeff}``, of the :func:`_sj_rows` row with
    lead word ``lead``, built in ``store``: the letter itself, ``{x_b,x_a}``
    for the row led by ``x_a*x_b`` (halved when ``a = b``, as
    ``{x,x} = 2*x*x``), or the word's ``f``-element over ``2^(n-3)``."""
    if not lead.tail:
        return {store.leaf(lead.head): 1}
    if lead.degree == 2:
        (b,) = lead.tail
        return {Anti(store.leaf(b), store.leaf(lead.head)): _HALF if b == lead.head else 1}
    return store.unit(lead.head, lead.tail)


def sj_span(k: int, n: int) -> Subspace:
    """Degree-``n`` slice of the anticommutator subalgebra, with an
    expression witness attached to every basis row.  The rows are known
    reduced, so they are installed with no row reduction: from degree 3 on
    every word, each with its ``f``-element over ``2^(n-3)``, and below
    that the rows of :func:`_sj_rows`."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    words = enumerate_basis(k, n)
    if n >= 3:
        rows = [PermPolynomial._of({m: 1}) for m in words]
    else:
        rows = [row for content in combinations_with_replacement(range(1, k + 1), n) for row in _sj_rows(content)]
    store = _FWitnesses()
    witnesses = [ExprSum._of(_row_witness(store, min(row._terms))) for row in rows]
    return Subspace.echelon(words, rows, witnesses)


class NotJordanElement(ValueError):
    """Raised with the offending component when no anticommutator expression exists."""

    def __init__(self, component: PermPolynomial):
        super().__init__(f"not a Jordan element; offending component {component}")
        self.component = component


def jordan_express(g: PermPolynomial) -> ExprSum:
    """An anticommutator expression whose expansion equals ``g`` exactly.

    Works one slice at a time, with no linear algebra.  A letter is
    itself.  A degree-2 slice is the single row ``{x_a,x_b}`` scaled to
    lead 1, so a degree-2 component must be its coefficient at the row's
    lead word times the row; anything else raises
    :class:`NotJordanElement`, for the first such slice in descending
    content.  From degree 3 on every component succeeds: by the
    ``2^(n-3)`` law of this module a word ``w`` of degree ``n`` is
    ``f(w) / 2^(n-3)``, so ``sum c_w w`` is ``sum c_w / 2^(n-3) * f(w)``.
    """
    store = _FWitnesses()
    # trees of different contents differ, so the contents' terms never merge
    terms: dict[Node, Fraction | int] = {}
    for content, comp in reversed(g.components().items()):
        n = len(content)
        if n == 1:
            terms.update((store.leaf(m.head), c) for m, c in comp.items())
        elif n == 2:
            # the slice is one row; comp must be a multiple of it
            (row,) = _sj_rows(content)
            lead, _ = row.terms()[0]
            c = comp.coefficient(lead)
            if comp != c * row:
                raise NotJordanElement(comp)
            terms.update((node, c * a) for node, a in _row_witness(store, lead).items())
        else:
            terms.update(store.content([(m.head, m.tail, c) for m, c in comp.items()]))
    return ExprSum._of(terms)


# ---------------------------------------------------------------------------
# ideal slices and the exceptional-quotient witness


def ideal_component(
    ambient: str,
    generators: Sequence[PermPolynomial],
    multidegree: Sequence[int],
) -> Subspace:
    """One multidegree slice of the ideal generated by ``generators``.

    ``ambient="perm"`` gives the two-sided associative ideal;
    ``ambient="jordan"`` the ideal of the anticommutator subalgebra, closed
    under the anticommutator with all of it.  Generators must each lie in
    one slice, on the target's generators.  The slice is read off the
    ideal law of the module docstring, one generator at a time, with no
    lower slice and no product: ``O(|generators| * k)`` vectors at any
    degree.
    """
    if ambient not in ("perm", "jordan"):
        raise ValueError(f"unknown ambient {ambient!r}")
    k = len(multidegree)
    space = Subspace(enumerate_basis(k, sum(multidegree), multidegree))
    target = letters(multidegree)
    for g in generators:
        if g.is_zero:
            continue
        comps = g.components()
        if (top := max(key[-1] for key in comps)) > k:
            raise ValueError(f"monomial mentions x{top} beyond {k} generators")
        if len(comps) != 1:
            raise ValueError(f"inhomogeneous generator {g}")
        (content,) = comps
        rest = Counter(target)
        rest.subtract(content)
        if min(rest.values()) < 0:
            continue  # no multiple of g reaches the target
        lifted = PermPolynomial._of({slice_word(target, m.head): c for m, c in g.items()})
        s = sum(c for _, c in g.items())
        heads = [h for h, e in rest.items() if e]  # the letters of d, ascending
        if s and ambient == "jordan" and len(target) - len(content) == 1:
            lifted += PermPolynomial.from_monomial(slice_word(target, heads[0]), s)  # {g, x_a}
        elif s:
            for h in heads:
                space.add(PermPolynomial.from_monomial(slice_word(target, h)))
        space.add(lifted)
    return space


class CohnWitnessReport(NamedTuple):
    """Membership evidence that the two-generator quotient by
    ``({x,y}, x^3, y^2)`` admits no anticommutator realization."""

    witness: PermPolynomial
    ideal_slice_dim: int
    perm_slice_dim: int
    sj_slice_dim: int
    in_ideal_slice: bool
    in_perm_slice: bool
    in_sj_slice: bool
    generator_texts: tuple[str, ...]
    note: str

    @property
    def exceptional(self) -> bool:
        return (not self.in_ideal_slice) and self.in_perm_slice and self.in_sj_slice

    def as_dict(self) -> dict:
        return {
            "witness": str(self.witness),
            "generators": list(self.generator_texts),
            "slice": [2, 1],
            "ideal_slice_dim": self.ideal_slice_dim,
            "perm_slice_dim": self.perm_slice_dim,
            "sj_slice_dim": self.sj_slice_dim,
            "witness_in_ideal_slice": self.in_ideal_slice,
            "witness_in_perm_slice": self.in_perm_slice,
            "witness_in_sj_slice": self.in_sj_slice,
            "exceptional_quotient": self.exceptional,
            "note": self.note,
        }


def cohn_witness() -> CohnWitnessReport:
    """Run the two-generator exceptional-quotient computation.

    The quotient of the anticommutator subalgebra on ``x, y`` by the ideal
    generated by ``{x,y}``, the cube of ``x`` and the square of ``y`` is
    4-dimensional with basis ``x, y, x^2, {x^2,y}``.  The witness
    ``b = {x^2,y}`` lies in the associative ideal slice and in the
    anticommutator subalgebra, but not in the anticommutator ideal slice,
    so no anticommutator realization of the quotient exists.
    """
    x, y = Leaf(1), Leaf(2)
    g_pair = wrap(x).anti(y)
    g_cube = _HALF * wrap(x).anti(wrap(x).anti(x))
    g_square = _HALF * wrap(y).anti(y)
    gens = [g_pair.expand(), g_cube.expand(), g_square.expand()]
    target = (2, 1)
    ideal_slice = ideal_component("jordan", gens, target)
    perm_slice = ideal_component("perm", gens, target)
    sj_slice = Subspace.echelon(enumerate_basis(2, 3, target), _sj_rows(letters(target)))
    b = (wrap(x).prod(x)).anti(y).expand()  # x*x*y + y*x*x
    return CohnWitnessReport(
        witness=b,
        ideal_slice_dim=ideal_slice.dim,
        perm_slice_dim=perm_slice.dim,
        sj_slice_dim=sj_slice.dim,
        in_ideal_slice=ideal_slice.contains(b),
        in_perm_slice=perm_slice.contains(b),
        in_sj_slice=sj_slice.contains(b),
        generator_texts=(str(g_pair), str(g_cube), str(g_square)),
        note=(
            "the cube generator is the anticommutator cube 1/2*{x,{x,x}}, "
            "whose expansion 2*x*x*x spans the same ideal as the word cube"
        ),
    )


# ---------------------------------------------------------------------------
# the f-element basis and the rewriting map into it


class FElement(NamedTuple):
    """Basis element ``f(x_head; x_a1, x_a2 * ... * x_am)`` with sorted args."""

    head: int
    args: tuple[int, ...]

    @property
    def degree(self) -> int:
        return 1 + len(self.args)

    def expr(self) -> ExprSum:
        return ExprSum._of(_FWitnesses().content((self._word(1),)))

    def _word(self, coeff: Fraction | int) -> tuple[int, tuple[int, ...], Fraction | int]:
        """``coeff`` times this element as a word of :meth:`_FWitnesses.content`:
        the element is ``2^(n-3)`` times its word."""
        if len(self.args) < 2:
            raise ValueError("f-elements have degree >= 3")
        return self.head, self.args, coeff * (1 << (len(self.args) - 2))

    def expand(self) -> PermPolynomial:
        return self.expr().expand()

    def __str__(self) -> str:
        rest = "*".join(f"x{i}" for i in self.args[1:])
        return f"f(x{self.head};x{self.args[0]},{rest})"


def bn_basis(k: int, n: int) -> list[FElement]:
    """All degree-``n`` ``f``-elements on ``k`` generators; the index set is
    the same head-plus-sorted-multiset scheme as the word basis, so the
    count equals ``dimension(k, n)``."""
    if n < 3:
        raise ValueError("f-element basis starts at degree 3")
    if k < 1:
        raise ValueError("need k >= 1")
    return [FElement(m.head, m.tail) for m in enumerate_basis(k, n)]


def to_bn(word: Sequence[int]) -> list[tuple[Fraction, FElement]]:
    """Rewrite a left-normed product word into ``f``-elements.

    Read as a left-normed anticommutator, ``a1 a2 ... an`` expands to
    ``W(a1) + W(a2) + sum_{j>=3} 2^(j-2) W(aj)``, where ``W(h)`` is the word
    with head ``h`` and all the letters of the input: the product of the
    first ``j-1`` letters has coefficient sum ``2^(j-2)``, and a letter
    multiplied on the left of it becomes the head.  By the ``2^(n-3)`` law
    of this module ``W(h) = f(h; rest) / 2^(n-3)``, with ``rest`` the other
    letters, so the combination follows in one pass that sums the weights
    per distinct head; each ``f``-element is then built once.  It is the
    unique ``f``-element combination that expands to the anticommutator
    reading of the word.
    """
    w = tuple(word)
    if len(w) < 3:
        raise ValueError("word must have length >= 3")
    if any(i < 1 for i in w):
        raise ValueError("generator indices are 1-based")
    weights: dict[int, int] = {}
    for j, h in enumerate(w):
        weights[h] = weights.get(h, 0) + (1 << max(j - 1, 0))
    den = 1 << (len(w) - 3)
    content = tuple(sorted(w))
    return [(Fraction(weights[h], den), FElement(*slice_word(content, h))) for h in sorted(weights)]


def expand_bn(combination: Iterable[tuple[Fraction, FElement]]) -> PermPolynomial:
    """The word polynomial of an ``f``-element combination: its elements
    grouped by content, each content's witness trees built and summed once."""
    contents: dict[tuple[int, ...], list] = {}
    for coeff, fe in combination:
        word = fe._word(exact(coeff))
        contents.setdefault(tuple(sorted((fe.head, *fe.args))), []).append(word)
    store = _FWitnesses()
    terms: dict[Node, Fraction | int] = {}
    for words in contents.values():
        terms.update(store.content(words))
    return ExprSum._of(terms).expand()
