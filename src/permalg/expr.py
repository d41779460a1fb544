"""Expression trees over generators and their expansion into the word basis.

Trees have five node kinds: generator leaves, template slots, associative
products, commutators ``[a,b] = ab - ba`` and anticommutators
``{a,b} = ab + ba``.  Sums and scalar multiples are not tree nodes; they
live in :class:`ExprSum`, a formal rational combination of trees whose
terms are ordered only when printed, and all product helpers expand
bilinearly over it.  Identity checking is one substitution: distinct
generators above the template's fixed letters go in for the slots, and
the difference of the sides expands.  Because the tree operations are
defined in every perm algebra, and every substitution is an image of
that one under an endomorphism, an identity holds in all of them exactly
when it expands to zero.

Expansion is a closed form.  By the perm law a product of two words is
the word with the first factor's head and the letters of both, so every
node of a tree expands into the slice of the tree's letters, where the
word ``W(h)`` of each head ``h`` is defined (:mod:`permalg.perm`), and is
known by its head vector, a map from head letter to integer coefficient.
With ``s(t)`` the coefficient sum of ``t``,

    Prod(l, r) = s(r)*l,   Comm(l, r) = s(r)*l - s(l)*r,
    Anti(l, r) = s(r)*l + s(l)*r,

and a leaf ``x_i`` is ``{i: 1}``.  Each node's sum is fixed when it is
built: ``s(l)*s(r)`` times 1 for ``Prod``, 0 for ``Comm`` and 2 for
``Anti``.  The law is linear in each child's vector, so it unrolls into
weights: the root has weight 1, a node of weight ``w`` gives its left
child ``w*s(r)`` and its right child 0, ``-w*s(l)`` or ``w*s(l)``, and
the head vector is the sum over the leaves of their weights at their
letters.  One top-down walk computes it in integers, and a head ``h``
stands for ``W(h)``.  A sum of trees stays in integers too: the terms of
one content are scaled to a common denominator, the lcm of their
coefficients' denominators, and each output word divides once, so it
stores an ``int`` when its coefficient is integral and builds one
``Fraction`` when it is not.  Multiplying the words out one product at a
time gives the same answer and survives only as a test oracle.

Expansion keeps a stack of ``(node, weight)`` pairs, :func:`fold` (one
post-order pass over an explicit stack) walks a tree for every other
value, and the sort key and ``==`` keep stacks of their own; nothing
recurses, so trees of any depth expand, print, substitute and compare.
Nodes are ``__slots__`` classes, immutable in use: a node's hash, leaf
count and coefficient sum are fixed when it is built.  A leaf equals only
a leaf and a slot only a slot, so ``Leaf(1)`` and ``Slot(1)`` are two
terms of a sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .perm import Combination, PermMonomial, PermPolynomial, accumulate, exact, slice_word

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
    "fold",
    "left_normed",
    "node_slots",
    "node_str",
]


class _Atom:
    """A leaf or a slot: equal to a node of its own kind with its index.
    It expands to one letter, so its coefficient sum is 1."""

    __slots__ = ("index", "_hash")
    _size = 1  # leaf count, as a binary node has it
    _sum = 1

    def __init__(self, index: int) -> None:
        self.index = index
        self._hash = hash((self._tag, index))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(index={self.index!r})"


class Leaf(_Atom):
    __slots__ = ()
    _tag = 0  # the node's kind


class Slot(_Atom):
    __slots__ = ()
    _tag = 1


class _Binary:
    """A node with two children.  Its hash, leaf count and coefficient sum
    ``_sum`` are computed once, from its kind and its children's, so none
    of them walks the tree.  The sum is ``_factor * s(l) * s(r)``: ``l*r``
    for ``Prod``, ``0`` for ``Comm`` and ``2*l*r`` for ``Anti``."""

    __slots__ = ("left", "right", "_hash", "_size", "_sum")

    def __init__(self, left: "Node", right: "Node") -> None:
        self.left, self.right = left, right
        self._hash = hash((self._tag, left._hash, right._hash))
        self._size = left._size + right._size
        self._sum = self._factor * left._sum * right._sum

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Walks both trees in pairs on a stack: a pair of one node twice is
        equal, and one of different kinds or hashes is not."""
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Binary):
                if a._hash != b._hash:
                    return False
                todo += ((a.right, b.right), (a.left, b.left))
            elif a.index != b.index:
                return False
        return True

    def __repr__(self) -> str:
        return fold(self, repr, lambda n, l, r: f"{type(n).__name__}(left={l}, right={r})")


class Prod(_Binary):
    __slots__ = ()
    _tag = 2
    _factor = 1


class Comm(_Binary):
    __slots__ = ()
    _tag = 3
    _factor = 0


class Anti(_Binary):
    __slots__ = ()
    _tag = 4
    _factor = 2


Node = Union[Leaf, Slot, Prod, Comm, Anti]


class UnboundSlotError(ValueError):
    pass


def fold(root: Node, leaf: Callable, binary: Callable):
    """The tree's value, bottom-up: ``leaf(node)`` at each leaf and slot,
    ``binary(node, left, right)`` at each binary node.  The stack holds the
    nodes still to visit and, below a node's children, the node under a
    ``None`` marker: both children's values are then on top of ``values``."""
    values: list = []
    todo: list = [root]
    while todo:
        node = todo.pop()
        if node is None:
            right = values.pop()
            values[-1] = binary(todo.pop(), values[-1], right)
        elif isinstance(node, _Binary):
            todo += (node, None, node.right, node.left)
        else:
            values.append(leaf(node))
    return values[0]


def _expand(
    terms: Iterable[tuple[Node, Fraction | int]], slots: Sequence[int] | None = None
) -> PermPolynomial:
    """``sum coeff * node`` in the word basis, in integers.  Each tree is
    walked once, top-down, on an explicit stack of ``(node, weight)``
    pairs; the root has weight 1.  A binary node of weight ``w`` gives its
    left child ``w * s(r)`` and its right child ``(_factor - 1) * w * s(l)``
    (0, ``-w * s(l)`` or ``w * s(l)``), and a leaf adds its weight to its
    letter's head coefficient; a slot ``i`` is the letter
    ``slots[i - 1]``.  Every leaf, of weight 0 too, gives its letter to
    the content.  The trees group by content, and a content's terms share
    one denominator ``den``, the lcm of their coefficients'
    denominators: a head ``h`` with coefficient ``c`` adds the ``int``
    ``coeff * den * c`` to ``h``'s total.  Each nonzero total ``v`` is
    then the slice word ``W(h)`` with coefficient ``v / den``, an ``int``
    when it is integral and otherwise the word's one ``Fraction``.  A
    content's own denominator keeps the numbers small when many contents
    carry unrelated denominators."""
    groups: dict[tuple[int, ...], list[tuple[Fraction | int, dict[int, int]]]] = {}
    for node, coeff in terms:
        vec: dict[int, int] = {}
        letters: list[int] = []
        todo = [(node, 1)]
        pop = todo.pop
        while todo:
            n, w = pop()
            kind = type(n)
            if kind is Leaf:
                i = n.index
            elif kind is Slot:
                i = n.index
                if slots is None or not 1 <= i <= len(slots):
                    raise UnboundSlotError(f"unbound template slot {_slot_name(i)}")
                i = slots[i - 1]
            else:
                left, right = n.left, n.right
                # the left child goes on top, so slots are met left to right
                todo += ((right, (n._factor - 1) * w * left._sum), (left, w * right._sum))
                continue
            letters.append(i)
            if w:
                vec[i] = vec.get(i, 0) + w
        groups.setdefault(tuple(sorted(letters)), []).append((coeff, vec))
    out: dict[PermMonomial, Fraction | int] = {}
    for content, group in groups.items():
        den = lcm(*(coeff.denominator for coeff, _ in group))
        acc: dict[int, int] = {}
        for coeff, vec in group:
            scale = coeff.numerator * (den // coeff.denominator)
            for h, c in vec.items():
                acc[h] = acc.get(h, 0) + scale * c
        for h, v in acc.items():
            if v:
                q, r = divmod(v, den)
                out[slice_word(content, h)] = Fraction(v, den) if r else q
    return PermPolynomial._of(out)


def expand_node(e: Node) -> PermPolynomial:
    """The tree in the canonical word basis, by its head vector."""
    return _expand(((e, 1),))


def node_slots(e: Node) -> frozenset[int]:
    return fold(
        e, lambda n: frozenset((n.index,) if type(n) is Slot else ()), lambda n, l, r: l | r
    )


def _top_letter(e: Node) -> int:
    """The largest letter of a leaf in ``e``, or 0 when it has none."""
    return fold(e, lambda n: n.index if type(n) is Leaf else 0, lambda n, l, r: max(l, r))


def substitute_node(e: Node, mapping: Mapping[int, Node]) -> Node:
    def leaf(n: Leaf | Slot) -> Node:
        if type(n) is Leaf:
            return n
        try:
            return mapping[n.index]
        except KeyError:
            raise UnboundSlotError(f"no substitution for slot {_slot_name(n.index)}") from None

    return fold(e, leaf, lambda n, left, right: type(n)(left, right))


def node_key(e: Node) -> tuple[int, ...]:
    """Deterministic structural sort key, size first: the tree in pre-order
    as one flat tuple, ``(leaf count, kind)`` at each binary node and
    ``(1, kind, index)`` at each leaf.  Keys of different trees differ
    before either ends, so they order as nested keys would."""
    key: list[int] = []
    todo = [e]
    while todo:
        n = todo.pop()
        if isinstance(n, _Binary):
            key += (n._size, n._tag)
            todo += (n.right, n.left)
        else:
            key += (1, n._tag, n.index)
    return tuple(key)


def _slot_name(i: int) -> str:
    return chr(ord("a") + i - 1) if 1 <= i <= 26 else f"s{i}"


def _node_text(n: Node, left: str, right: str) -> str:
    if type(n) is Comm:
        return f"[{left},{right}]"
    if type(n) is Anti:
        return f"{{{left},{right}}}"
    # associative product: keep left-normed chains flat
    return f"{left}*({right})" if type(n.right) is Prod else f"{left}*{right}"


def node_str(e: Node) -> str:
    return fold(e, lambda n: f"x{n.index}" if type(n) is Leaf else _slot_name(n.index), _node_text)


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
        return cls._of({node: 1})

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
        return frozenset().union(*map(node_slots, self._terms))

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
    if not leaves:
        raise ValueError("need at least one letter")
    return reduce(kind, (Leaf(x) if isinstance(x, int) else x for x in leaves))


class IdentityTemplate:
    """A candidate law ``lhs = rhs`` over slot variables.  ``names`` are the
    slots' names in slot order, as :func:`~permalg.parser.parse_template`
    bound them; by default slot ``i`` is named ``a``, ``b``, ... in turn."""

    def __init__(self, lhs: "ExprSum | Node", rhs: "ExprSum | Node", names: Sequence[str] = ()):
        self.lhs = wrap(lhs)
        self.rhs = wrap(rhs)
        used = self.lhs.slots() | self.rhs.slots()
        if not used:
            raise ValueError("template has no slots")
        self.arity = max(used)
        self.names = tuple(names or map(_slot_name, range(1, self.arity + 1)))[: self.arity]
        if gone := set(range(1, self.arity + 1)) - used:
            name = self.names[min(gone) - 1]
            raise ValueError(f"slots must be contiguous starting at 1: {name} has no term left once like terms are combined")

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


class IdentityVerdict(NamedTuple):
    holds: bool
    counterexample: tuple[int, ...] | None = None
    residual: PermPolynomial | None = None

    def __bool__(self) -> bool:
        return self.holds


def check_identity(template: IdentityTemplate) -> IdentityVerdict:
    """Decide whether the template is a law of perm algebras, by one
    substitution of distinct generators.

    Slot ``i`` becomes ``x_{m+i}``, above the template's fixed letters
    ``x_1 .. x_m``, so no slot takes the letter of a fixed leaf.  When that
    substitution expands to 0, every substitution does: any other tuple of
    elements is its image under an endomorphism fixing ``x_1 .. x_m``.  On
    failure the counterexample lists the generators substituted, and the
    residual is what ``lhs - rhs`` expands to.
    """
    diff = template.lhs - template.rhs
    fixed = max((_top_letter(n) for n, _ in diff.items()), default=0)
    letters = tuple(range(fixed + 1, fixed + template.arity + 1))
    residual = _expand(diff.items(), letters)
    return IdentityVerdict(False, letters, residual) if residual else IdentityVerdict(True)
