"""Expression trees over generators and their expansion into the word basis.

Trees have five node kinds: generator leaves, template slots, associative
products, commutators ``[a,b] = ab - ba`` and anticommutators
``{a,b} = ab + ba``.  Sums and scalar multiples are not tree nodes; they
live in :class:`ExprSum`, a formal rational combination of trees whose
terms are ordered only when printed, and all product helpers expand
bilinearly over it.  Identity checking substitutes generators for slots
and expands: because the tree operations are defined in every perm
algebra, an identity holds in all of them exactly when the
distinct-generator substitution expands to zero.

Expansion is a closed form.  By the perm law a product of two words is
the word with the first factor's head and the letters of both, so every
node of a tree expands to words on the tree's letters and is known by its
head vector, a map from head letter to integer coefficient.  With ``s(t)``
the coefficient sum of ``t``,

    Prod(l, r) = s(r)*l,   Comm(l, r) = s(r)*l - s(l)*r,
    Anti(l, r) = s(r)*l + s(l)*r,

and a leaf ``x_i`` is ``{i: 1}``.  One post-order pass over an explicit
stack evaluates every node in integers, so a tree of any depth expands;
the root's head ``h`` stands for the word with head ``h`` and the other
letters sorted.  Multiplying the words out one product at a time gives
the same answer and survives only as a test oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .perm import Combination, PermMonomial, PermPolynomial, accumulate, exact

__all__ = [
    "Anti",
    "Comm",
    "ExprSum",
    "IdentityTemplate",
    "IdentityVerdict",
    "Leaf",
    "Node",
    "Prod",
    "Slot",
    "UnboundSlotError",
    "associator",
    "check_identity",
    "expand_node",
    "left_normed",
    "node_slots",
    "node_str",
    "set_partition_patterns",
]


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Slot:
    index: int


@dataclass(frozen=True)
class _Binary:
    """A node with two children.  Its hash is computed once, from its kind
    and its children's hashes, so hashing never walks the tree."""

    left: "Node"
    right: "Node"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((_TAGS[type(self)], self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash


class Prod(_Binary):
    pass


class Comm(_Binary):
    pass


class Anti(_Binary):
    pass


Node = Union[Leaf, Slot, Prod, Comm, Anti]
_TAGS = {Prod: 2, Comm: 3, Anti: 4}

_ONE = Fraction(1)


class UnboundSlotError(ValueError):
    pass


def _head_vector(root: Node, slots: Sequence[int] | None) -> tuple[dict[int, int], list[int]]:
    """The root's head vector (zeros allowed) and the tree's letters, from
    one post-order pass.  A slot ``i`` is the letter ``slots[i - 1]``.

    The stack holds nodes still to visit and, below a binary node's
    children, the node's class as a marker that both children's values are
    on ``values`` and can be combined.  A value is ``(vector, sum)``, and
    each vector belongs to one value only, so a node updates its left
    child's in place."""
    letters: list[int] = []
    values: list[tuple[dict[int, int], int]] = []
    todo: list = [root]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is Leaf:
            i = item.index
        elif kind is Slot:
            if slots is None or not 1 <= item.index <= len(slots):
                raise UnboundSlotError(f"unbound template slot {_slot_name(item.index)}")
            i = slots[item.index - 1]
        elif kind is type:
            rv, rs = values.pop()
            vec, ls = values.pop()
            if rs != 1:
                for h in vec:
                    vec[h] *= rs
            b = 0 if item is Prod else -ls if item is Comm else ls
            if b:
                for h, c in rv.items():
                    vec[h] = vec.get(h, 0) + b * c
            # the node's sum: ls*rs for Prod, 0 for Comm, 2*ls*rs for Anti
            values.append((vec, (ls + b) * rs))
            continue
        else:
            todo += (kind, item.right, item.left)
            continue
        letters.append(i)
        values.append(({i: 1}, 1))
    return values[0][0], letters


def _expand(
    terms: Iterable[tuple[Node, Fraction]], slots: Sequence[int] | None = None
) -> PermPolynomial:
    """``sum coeff * node`` in the word basis, accumulated into one dict:
    each root head ``h`` with value ``c`` is the word ``h`` followed by the
    other letters sorted, with coefficient ``coeff * c`` (``accumulate``
    drops the zeros)."""
    out: dict[PermMonomial, Fraction] = {}
    for node, coeff in terms:
        vec, found = _head_vector(node, slots)
        word = sorted(found)
        words = []
        for h, c in vec.items():
            i = bisect_left(word, h)
            words.append((PermMonomial(h, tuple(word[:i] + word[i + 1 :])), coeff * c))
        accumulate(out, words)
    return PermPolynomial._of(out)


def expand_node(e: Node) -> PermPolynomial:
    """The tree in the canonical word basis, by its head vector."""
    return _expand(((e, _ONE),))


def node_slots(e: Node) -> frozenset[int]:
    if isinstance(e, Leaf):
        return frozenset()
    if isinstance(e, Slot):
        return frozenset((e.index,))
    return node_slots(e.left) | node_slots(e.right)


def substitute_node(e: Node, mapping: Mapping[int, Node]) -> Node:
    if isinstance(e, Leaf):
        return e
    if isinstance(e, Slot):
        try:
            return mapping[e.index]
        except KeyError:
            raise UnboundSlotError(f"no substitution for slot {_slot_name(e.index)}") from None
    return type(e)(substitute_node(e.left, mapping), substitute_node(e.right, mapping))


def node_key(e: Node):
    """Deterministic structural sort key (size first, then shape); a key's
    first entry is the tree's leaf count."""
    if isinstance(e, Leaf):
        return (1, 0, e.index)
    if isinstance(e, Slot):
        return (1, 1, e.index)
    left, right = node_key(e.left), node_key(e.right)
    return (left[0] + right[0], _TAGS[type(e)], left, right)


def _slot_name(i: int) -> str:
    return chr(ord("a") + i - 1) if 1 <= i <= 26 else f"s{i}"


def node_str(e: Node) -> str:
    if isinstance(e, Leaf):
        return f"x{e.index}"
    if isinstance(e, Slot):
        return _slot_name(e.index)
    if isinstance(e, Comm):
        return f"[{node_str(e.left)},{node_str(e.right)}]"
    if isinstance(e, Anti):
        return f"{{{node_str(e.left)},{node_str(e.right)}}}"
    # associative product: keep left-normed chains flat
    left = node_str(e.left)
    right = node_str(e.right)
    if isinstance(e.right, Prod):
        right = f"({right})"
    return f"{left}*{right}"


class ExprSum(Combination):
    """Formal rational combination of expression trees; its terms are
    ordered by :func:`node_key` when printed or read through ``terms()``."""

    __slots__ = ()

    _key = staticmethod(node_key)
    _text = staticmethod(node_str)

    def __init__(self, terms: Iterable[tuple[Fraction | int, Node]] = ()):
        self._terms = accumulate({}, ((node, exact(coeff)) for coeff, node in terms))

    @classmethod
    def of(cls, node: Node) -> "ExprSum":
        return cls._of({node: _ONE})

    def _combine(self, other: "ExprSum", ctor) -> "ExprSum":
        return ExprSum._of(
            accumulate(
                {},
                (
                    (ctor(na, nb), ca * cb)
                    for na, ca in self._terms.items()
                    for nb, cb in other._terms.items()
                ),
            )
        )

    def prod(self, other: "ExprSum") -> "ExprSum":
        return self._combine(wrap(other), Prod)

    def comm(self, other: "ExprSum") -> "ExprSum":
        return self._combine(wrap(other), Comm)

    def anti(self, other: "ExprSum") -> "ExprSum":
        return self._combine(wrap(other), Anti)

    def substitute(self, mapping: Mapping[int, Node]) -> "ExprSum":
        return ExprSum._of(
            accumulate({}, ((substitute_node(n, mapping), c) for n, c in self._terms.items()))
        )

    def slots(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for n in self._terms:
            out |= node_slots(n)
        return out

    def expand(self) -> PermPolynomial:
        return _expand(self._terms.items())


def wrap(x: "ExprSum | Node") -> ExprSum:
    return x if isinstance(x, ExprSum) else ExprSum.of(x)


def associator(a: "ExprSum | Node", b: "ExprSum | Node", c: "ExprSum | Node") -> ExprSum:
    """``<a,b,c> = {{a,b},c} - {a,{b,c}}``, the anticommutator associator."""
    a, b, c = wrap(a), wrap(b), wrap(c)
    return a.anti(b).anti(c) - a.anti(b.anti(c))


def left_normed(kind: type, leaves: Sequence[Node | int]) -> Node:
    """Fold letters into a left-normed chain of the given binary node kind."""
    nodes = [Leaf(x) if isinstance(x, int) else x for x in leaves]
    if not nodes:
        raise ValueError("need at least one letter")
    acc = nodes[0]
    for n in nodes[1:]:
        acc = kind(acc, n)
    return acc


class IdentityTemplate:
    """A candidate law ``lhs = rhs`` over slot variables."""

    def __init__(self, lhs: "ExprSum | Node", rhs: "ExprSum | Node"):
        self.lhs = wrap(lhs)
        self.rhs = wrap(rhs)
        used = self.lhs.slots() | self.rhs.slots()
        if not used:
            raise ValueError("template has no slots")
        self.arity = max(used)
        if used != frozenset(range(1, self.arity + 1)):
            raise ValueError("slots must be contiguous starting at 1")
        if not self.rhs.slots() <= self.lhs.slots():
            raise ValueError("rhs uses slots absent from lhs")

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass
class IdentityVerdict:
    holds: bool
    mode: str
    counterexample: tuple[int, ...] | None = None
    residual: PermPolynomial | None = None

    def __bool__(self) -> bool:
        return self.holds


def set_partition_patterns(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length ``n``: one generator pattern per
    way of identifying slot variables."""

    def rec(prefix: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, top + 2):
            yield from rec(prefix + [v], max(top, v))

    yield from rec([1], 1) if n else iter(())


def check_identity(template: IdentityTemplate, mode: str = "multilinear") -> IdentityVerdict:
    """Decide whether the template is a law of perm algebras.

    ``multilinear`` substitutes one tuple of distinct generators, which is
    already universal for tree templates.  ``polarized`` additionally runs
    every identification pattern of the slots (sound in characteristic 0),
    reporting the first failing substitution.
    """
    if template.arity > 6:
        raise ValueError("templates with more than 6 slots are not supported")
    if mode not in ("multilinear", "polarized"):
        raise ValueError(f"unknown mode {mode!r}")
    diff = template.lhs - template.rhs
    patterns: list[tuple[int, ...]] = [tuple(range(1, template.arity + 1))]
    if mode == "polarized":
        patterns += [p for p in set_partition_patterns(template.arity) if p != patterns[0]]
    for pattern in patterns:
        residual = _expand(diff.items(), pattern)
        if residual:
            return IdentityVerdict(False, mode, pattern, residual)
    return IdentityVerdict(True, mode)
