"""Seeded input generators for the permalg benchmark.

Everything here is plain Python with no import of ``permalg``: inputs are
built as text, word dictionaries or structure-constant tables, and the
expected answers come from a small reference implementation of perm
arithmetic kept in this file (a canonical word is its first letter followed
by the sorted remaining letters).  The library under test only ever sees
the generated inputs.

Trees are tuples: ``("x", i)`` is a generator (or slot ``i`` in a
template), ``("*", a, b)`` the associative product, ``("[", a, b)`` the
commutator, ``("{", a, b)`` the anticommutator and ``("<", a, b, c)`` the
associator ``{{a,b},c} - {a,{b,c}}``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

Word = tuple[int, tuple[int, ...]]  # (head, sorted tail)
Poly = dict[Word, Fraction]

# ---------------------------------------------------------------------------
# reference perm arithmetic


def _put(acc: dict, key, c: Fraction) -> None:
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def ref_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (h1, t1), c1 in p.items():
        for (h2, t2), c2 in q.items():
            _put(out, (h1, tuple(sorted(t1 + (h2,) + t2))), c1 * c2)
    return out


def ref_lin(*parts: tuple[Fraction | int, Poly]) -> Poly:
    out: Poly = {}
    for c, p in parts:
        for w, v in p.items():
            _put(out, w, c * v)
    return out


def ref_expand(tree) -> Poly:
    """Expand a tree into canonical words."""
    kind = tree[0]
    if kind == "x":
        return {(tree[1], ()): Fraction(1)}
    if kind == "<":
        a, b, c = tree[1:]
        return ref_lin((1, ref_expand(("{", ("{", a, b), c))), (-1, ref_expand(("{", a, ("{", b, c)))))
    left = ref_expand(tree[1])
    right = ref_expand(tree[2])
    if kind == "*":
        return ref_mul(left, right)
    sign = -1 if kind == "[" else 1
    return ref_lin((1, ref_mul(left, right)), (sign, ref_mul(right, left)))


def ref_sum(terms) -> Poly:
    """Expand a list of ``(coefficient, tree)`` pairs."""
    return ref_lin(*((c, ref_expand(t)) for c, t in terms))


# ---------------------------------------------------------------------------
# rendering in the permalg expression grammar


def _slot_name(i: int) -> str:
    return "abcdef"[i - 1]


def tree_text(tree, slots: bool = False) -> str:
    kind = tree[0]
    if kind == "x":
        return _slot_name(tree[1]) if slots else f"x{tree[1]}"
    parts = [tree_text(t, slots) for t in tree[1:]]
    if kind == "*":
        return f"({parts[0]})*({parts[1]})"
    if kind == "[":
        return f"[{parts[0]},{parts[1]}]"
    if kind == "{":
        return f"{{{parts[0]},{parts[1]}}}"
    return f"<{parts[0]},{parts[1]},{parts[2]}>"


def sum_text(terms: list[tuple[Fraction, str]]) -> str:
    """Signed sum of ``coefficient*body`` terms.

    The grammar reads a leading minus as negating the whole sum, so a
    positive term goes first, or the whole sum is negated.
    """
    if not terms:
        return "0"
    terms = sorted(terms, key=lambda t: t[0] < 0)
    if terms[0][0] < 0:
        return "-" + sum_text([(-c, b) for c, b in terms])
    out = []
    for i, (c, body) in enumerate(terms):
        mag = abs(c)
        text = body if mag == 1 else f"{mag}*{body}"
        out.append(text if i == 0 else f"{'-' if c < 0 else '+'} {text}")
    return " ".join(out)


def word_text(w: Word) -> str:
    return "*".join(f"x{i}" for i in (w[0], *w[1]))


def poly_text(p: Poly) -> str:
    return sum_text([(c, word_text(w)) for w, c in sorted(p.items())])


# ---------------------------------------------------------------------------
# random polynomials


_COEFFICIENTS = [
    s * Fraction(p, q) for p in (1, 1, 1, 2, 3, 5) for q in (1, 1, 1, 2, 3) for s in (1, 1, 1, -1, -1)
]


def coefficient(rng: random.Random) -> Fraction:
    """Small nonzero rational, mostly integral, 60% positive."""
    return rng.choice(_COEFFICIENTS)


def component_words(md: tuple[int, ...]) -> list[Word]:
    """Canonical words with exponent vector ``md`` (one per distinct head)."""
    letters = [i for i, e in enumerate(md, start=1) for _ in range(e)]
    out = []
    for head in sorted(set(letters)):
        rest = list(letters)
        rest.remove(head)
        out.append((head, tuple(rest)))
    return out


def permuted(rng: random.Random, shape: tuple[int, ...]) -> tuple[int, ...]:
    md = list(shape)
    rng.shuffle(md)
    return tuple(md)


def poly_on_components(rng: random.Random, mds, density: float = 0.7) -> Poly:
    """Random polynomial supported on the given multidegree components,
    each component nonzero."""
    out: Poly = {}
    for md in mds:
        words = component_words(md)
        chosen = [w for w in words if rng.random() < density] or [rng.choice(words)]
        for w in chosen:
            out[w] = coefficient(rng)
    return out


@lru_cache(maxsize=None)
def _word_pool(k: int, n: int, head_above: bool) -> tuple[Word, ...]:
    return tuple(
        (h, t)
        for h in range(1, k + 1)
        for t in combinations_with_replacement(range(1, k + 1), n - 1)
        if not head_above or h > t[0]
    )


def dense_poly(rng: random.Random, k: int, n: int, terms: int, head_above: bool) -> Poly:
    """``terms`` distinct degree-``n`` words on ``k`` letters; with
    ``head_above`` only words whose head exceeds the first tail letter."""
    pool = _word_pool(k, n, head_above)
    return {w: coefficient(rng) for w in rng.sample(pool, min(terms, len(pool)))}


def dynkin_image(p: Poly) -> Poly:
    """Left-normed bracketing ``[x_h, x_t1] x_t2 ... x_tm`` of every word:
    a commutator expression, so a Lie element by construction."""
    out: Poly = {}
    for (h, t), c in p.items():
        _put(out, (h, t), c)
        _put(out, (t[0], tuple(sorted((h,) + t[1:]))), -c)
    return out


# ---------------------------------------------------------------------------
# identity templates


def _a(x, y):
    return ("{", x, y)


def _leaf(i: int):
    return ("x", i)


_A, _B, _C, _D = (_leaf(i) for i in range(1, 5))

# (lhs terms, rhs terms) of laws from the identity catalogue, slots 1..4
_TRUE_LAWS = [
    # anticommutator interchange
    ([(1, _a(_a(_A, _B), _a(_C, _D)))], [(1, _a(_a(_A, _D), _a(_B, _C)))]),
    # associator exchange
    (
        [(2, ("<", _a(_A, _B), _C, _D))],
        [
            (1, ("<", _a(_A, _B), _D, _C)),
            (1, ("<", _a(_A, _C), _B, _D)),
            (1, ("<", _a(_B, _C), _A, _D)),
        ],
    ),
    # degree-4 expansion law of the f-calculus, juxtaposition read as {,}
    (
        [(1, _a(_a(_A, _B), _a(_C, _D)))],
        [
            (-2, _a(_a(_a(_A, _B), _C), _D)),
            (1, _a(_a(_a(_A, _B), _D), _C)),
            (1, _a(_a(_a(_A, _C), _B), _D)),
            (1, _a(_a(_a(_B, _C), _A), _D)),
        ],
    ),
    # right commutativity
    ([(1, ("*", ("*", _A, _B), _C))], [(1, ("*", ("*", _A, _C), _B))]),
    # metabelian law (zero right-hand side, so it is never perturbed)
    ([(1, ("[", ("[", _A, _B), ("[", _C, _D)))], []),
]


def _substitute(tree, slot: int, repl):
    if tree[0] == "x":
        return repl if tree[1] == slot else tree
    return (tree[0], *(_substitute(t, slot, repl) for t in tree[1:]))


def _max_slot(tree) -> int:
    if tree[0] == "x":
        return tree[1]
    return max(_max_slot(t) for t in tree[1:])


def _replace_occurrence(tree, target: int, new: int, counter: list[int]):
    """Replace the ``counter[0]``-th leaf (in order) equal to ``target``."""
    if tree[0] == "x":
        if tree[1] == target:
            counter[0] -= 1
            if counter[0] == -1:
                return ("x", new)
        return tree
    return (tree[0], *(_replace_occurrence(t, target, new, counter) for t in tree[1:]))


def _side_text(terms) -> str:
    return sum_text([(Fraction(c), tree_text(t, slots=True)) for c, t in terms])


def _leaf_count(tree, slot: int) -> int:
    if tree[0] == "x":
        return int(tree[1] == slot)
    return sum(_leaf_count(t, slot) for t in tree[1:])


LAW_COUNT = len(_TRUE_LAWS)
PERTURBABLE = 4  # laws 0..3 have a nonzero right-hand side


def random_template(rng: random.Random, law: int, arity: int, holds: bool) -> str:
    """Template text built from catalogue law ``law`` with ``arity`` slots
    (4..6) that holds exactly when ``holds`` does.

    True laws come from the catalogue, widened to more slots by
    substituting a product or anticommutator of a random slot and a fresh
    slot (a substitution instance of a law is a law).  Failing templates replace
    one slot occurrence on the right-hand side by another slot; the
    reference expansion confirms the verdict either way.
    """
    while True:
        lhs, rhs = _TRUE_LAWS[law]
        top = max(_max_slot(t) for _, t in lhs)
        while top < arity:
            s = rng.randint(1, top)
            top += 1
            fresh = ("x", top)
            # the kind of widening is fixed by the slot count, so that a
            # template's cost does not depend on the seed
            repl = [("*", ("x", s), fresh), ("{", ("x", s), fresh), ("*", fresh, ("x", s))][top % 3]
            lhs = [(c, _substitute(t, s, repl)) for c, t in lhs]
            rhs = [(c, _substitute(t, s, repl)) for c, t in rhs]
        if not holds:
            i = rng.randrange(len(rhs))
            c, t = rhs[i]
            target = rng.randint(1, top)
            occurrences = _leaf_count(t, target)
            if not occurrences:
                continue
            new = rng.choice([s for s in range(1, top + 1) if s != target])
            t = _replace_occurrence(t, target, new, [rng.randrange(occurrences)])
            rhs = rhs[:i] + [(c, t)] + rhs[i + 1 :]
        residual = ref_lin((1, ref_sum(lhs)), (-1, ref_sum(rhs)))
        if (not residual) == holds:
            rhs_text = _side_text(rhs) if rhs else "0"
            return f"{_side_text(lhs)} = {rhs_text}"
