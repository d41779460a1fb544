from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from permalg.linalg import Span, Subspace, span_solve
from permalg.perm import PermPolynomial, enumerate_basis

F = Fraction


def vec(*entries):
    """Dense entries as the vector ``{column: entry}``, zeros kept."""
    return dict(enumerate(entries))


def dense(row, width):
    return [row.get(j, F(0)) for j in range(width)]


def test_rref_basic():
    span = Span()
    for row in [vec(F(2), F(4)), vec(F(1), F(2)), vec(F(0), F(1))]:
        span.add(row)
    assert span.pivots == [0, 1]
    assert span.rows == [{0: F(1)}, {1: F(1)}]


def test_solve_coordinates():
    # the two words x1*x2 and x2*x1 of the component (1, 1) are the axes
    x = PermPolynomial.from_word
    cols = [x((1, 2)), x((1, 2)) + x((2, 1))]
    assert span_solve(cols, x((1, 2), 3) + x((2, 1))) == [F(2), F(1)]
    assert span_solve([x((1, 2)) + x((2, 1))], x((1, 2)) + x((2, 1), 2)) is None


def test_span_solve_examples():
    x = PermPolynomial.from_word
    assert span_solve([x((1, 2))], x((1, 2), 3)) == [F(3)]
    assert span_solve([x((1, 2)) - x((2, 1))], x((1, 2))) is None
    vec = x((1, 1, 2), 3) + x((2, 1, 1))
    target = x((1, 1, 2)) + x((2, 1, 1))
    assert span_solve([vec], target) is None


def test_span_solve_rejects_mixed_components():
    x = PermPolynomial.from_word
    with pytest.raises(ValueError, match="mixed"):
        span_solve([x((1,))], x((1, 2)))
    with pytest.raises(ValueError, match="mixed"):
        span_solve([x((1, 1))], x((1, 2)))


@given(
    st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=1, max_size=4),
)
def test_span_solve_exactness(vec_rows, coeff_list):
    """Coordinates come back iff the combination reproduces the target exactly."""
    basis = enumerate_basis(3, 2, (1, 1, 0))  # a 2-dim component
    vectors = [
        PermPolynomial((m, c) for m, c in zip(basis, row[: len(basis)]))
        for row in vec_rows
    ]
    target = PermPolynomial.zero()
    for v, c in zip(vectors, coeff_list):
        target = target + v.scale(c)
    coords = span_solve(vectors, target)
    assert coords is not None
    rebuilt = PermPolynomial.zero()
    for v, c in zip(vectors, coords):
        rebuilt = rebuilt + v.scale(c)
    assert rebuilt == target


def test_span_incremental_rref():
    span = Span()
    assert span.add(vec(F(0), F(2), F(0)))
    assert span.add(vec(F(1), F(1), F(0)))
    assert not span.add(vec(F(1), F(3), F(0)))
    assert span.pivots == [0, 1]
    rows = [dense(row, 3) for row in span.rows]
    for row, p in zip(rows, span.pivots):
        assert row[p] == 1
        for other, q in zip(rows, span.pivots):
            if q != p:
                assert other[p] == 0
    assert span.contains(vec(F(5), F(-1), F(0)))
    assert not span.contains(vec(F(0), F(0), F(1)))


def test_span_witness_combination():
    # witnesses live in a toy vector space: tuples with + and scalar *
    class W(tuple):
        def __add__(self, other):
            return W(a + b for a, b in zip(self, other))

        def __sub__(self, other):
            return W(a - b for a, b in zip(self, other))

        def __rmul__(self, c):
            return W(c * a for a in self)

    span = Span()
    span.add(vec(F(2), F(0)), W((F(1), F(0))))
    span.add(vec(F(1), F(1)), W((F(0), F(1))))
    combo = span.witness_for(vec(F(3), F(1)), W((F(0), F(0))))
    # combo should rebuild [3,1] from the original vectors
    rebuilt = [
        combo[0] * F(2) + combo[1] * F(1),
        combo[0] * F(0) + combo[1] * F(1),
    ]
    assert rebuilt == [F(3), F(1)]
    assert span.witness_for(vec(F(0), F(1)), W((F(0), F(0)))) is not None


def test_subspace_pivots_increasing():
    basis = enumerate_basis(2, 2)
    sub = Subspace(basis)
    sub.add(PermPolynomial.from_word((2, 1)) + PermPolynomial.from_word((1, 2)))
    sub.add(PermPolynomial.from_word((1, 1)))
    sub.add(PermPolynomial.from_word((2, 2), 5))
    assert sub.dim == 3
    pivots = sub._span.pivots
    assert pivots == sorted(pivots)
    rebuilt = sub.basis()
    for p in rebuilt:
        assert sub.contains(p)


def test_subspace_refuses_words_outside_its_component():
    x = PermPolynomial.from_word
    sub = Subspace(enumerate_basis(2, 2, (1, 1)))  # the words x1*x2 and x2*x1
    assert sub.add(x((1, 2)) + x((2, 1)), F(1))
    outside = x((1, 2)) + x((1, 1))
    with pytest.raises(ValueError, match=r"x1\*x1 outside"):
        sub.add(outside, F(1))
    with pytest.raises(ValueError, match=r"x1\*x1 outside"):
        sub.witness_for(outside, F(0))
    assert not sub.contains(outside)
    assert not sub.contains(x((1, 1)))
    assert sub.contains(x((1, 2), 3) + x((2, 1), 3))
    assert sub.witness_for(x((1, 2), 3) + x((2, 1), 3), F(0)) == 3
    assert sub.dim == 1
    with pytest.raises(ValueError, match="duplicate"):
        Subspace(enumerate_basis(2, 2, (1, 1))[:1] * 2)


def test_span_rejects_float_entries():
    """A float is not the number it was written as; every entry point that
    takes a vector refuses one, zero included."""
    span = Span()
    with pytest.raises(TypeError):
        span.add(vec(0.1, 0))
    with pytest.raises(TypeError):
        span.add({0: 0.25})
    assert span.add(vec(F(1), 0))
    with pytest.raises(TypeError):
        span.contains(vec(0.5, 0))
    witnessed = Span()
    witnessed.add(vec(F(1), 0), F(1))
    with pytest.raises(TypeError):
        witnessed.witness_for({0: F(1), 1: 0.0}, F(0))
    with pytest.raises(TypeError):
        Span().add(vec(0.5, 1))
    # the unchecked constructor lets a float through; span_solve refuses it
    word = enumerate_basis(1, 1)[0]
    with pytest.raises(TypeError):
        span_solve([PermPolynomial._of({word: 0.1})], PermPolynomial._of({word: 0.2}))
    with pytest.raises(TypeError):
        span_solve([PermPolynomial.generator(1)], PermPolynomial._of({word: 0.2}))
    assert span.dim == 1


def test_span_stores_integral_quotients_as_ints():
    """Dividing a row by its lead keeps each integral quotient an ``int``;
    only a quotient that is not integral is a ``Fraction``."""
    span = Span()
    assert span.add({1: 2, 2: 4, 3: 6})
    assert [[type(c) for c in row.values()] for row in span.rows] == [[int, int, int]]
    assert span.add({2: 3, 3: 1})
    assert span.rows == [{1: 1, 3: F(7, 3)}, {2: 1, 3: F(1, 3)}]
    assert [type(c) for c in span.rows[1].values()] == [int, F]


def test_span_rejects_vectors_off_its_axis():
    """Columns are keys that compare with each other; a vector with a
    column that does not compare with the span's is refused before the
    span changes."""
    span = Span()
    assert span.add({1: 3})
    with pytest.raises(TypeError):
        span.add({"x1": F(1)})
    with pytest.raises(TypeError):
        span.add({0: F(1), "x1": F(1)})
    assert span.rows == [{1: F(1)}]
    assert span.pivots == [1]


def test_span_witnesses_on_every_row_or_none():
    plain = Span()
    plain.add(vec(F(1), F(0)))
    with pytest.raises(ValueError, match="every row or on none"):
        plain.add(vec(F(0), F(1)), F(1))
    with pytest.raises(ValueError, match="no witnesses"):
        plain.witness_for(vec(F(1), F(0)), F(0))
    witnessed = Span()
    witnessed.add(vec(F(2), F(0)), F(1))
    with pytest.raises(ValueError, match="every row or on none"):
        witnessed.add(vec(F(0), F(1)))
    assert witnessed.witness_for(vec(F(1), F(0)), F(0)) == F(1, 2)
    assert (plain.dim, witnessed.dim) == (1, 1)


class Combo(dict):
    """Formal combination ``{index of an added vector: coefficient}``."""

    def __add__(self, other):
        out = Combo(self)
        for i, c in other.items():
            out[i] = out.get(i, 0) + c
        return Combo({i: c for i, c in out.items() if c})

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        return Combo({i: c * v for i, v in self.items() if c * v})


WIDTH = 4
small = st.one_of(
    st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)
vectors = st.lists(small, min_size=WIDTH, max_size=WIDTH)


class SpanMachine(RuleBasedStateMachine):
    """Random adds and lookups keep ``Span`` a reduced row echelon form
    whose witnesses rebuild its rows from the vectors that were added."""

    def __init__(self):
        super().__init__()
        self.span = Span()
        self.added: list[list[Fraction]] = []

    def rebuild(self, combo):
        out = [F(0)] * WIDTH
        for i, c in combo.items():
            out = [a + c * b for a, b in zip(out, self.added[i])]
        return out

    @rule(entries=vectors)
    def add(self, entries):
        vector = vec(*entries)
        before, inside = self.span.dim, self.span.contains(vector)
        self.added.append(entries)
        grew = self.span.add(vector, Combo({len(self.added) - 1: F(1)}))
        assert grew is not inside
        assert self.span.dim == before + grew
        assert self.span.contains(vector)

    @precondition(lambda self: self.added)
    @rule(entries=vectors)
    def witness(self, entries):
        combo = self.span.witness_for(vec(*entries), Combo())
        if self.span.contains(vec(*entries)):
            assert self.rebuild(combo) == entries
        else:
            assert combo is None

    @invariant()
    def reduced_echelon(self):
        rows = [dense(row, WIDTH) for row in self.span.rows]
        pivots = self.span.pivots
        assert len(rows) == len(pivots) == self.span.dim
        assert all(all(row.values()) for row in self.span.rows)  # no stored zeros
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for row, p in zip(rows, pivots):
            assert not any(row[:p])
            assert [row[q] for q in pivots] == [F(q == p) for q in pivots]

    @invariant()
    def witnesses_map_to_rows(self):
        if self.added:
            for row, combo in zip(self.span.rows, self.span.witnesses, strict=True):
                assert self.rebuild(combo) == dense(row, WIDTH)


SpanMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None)
TestSpanMachine = SpanMachine.TestCase
