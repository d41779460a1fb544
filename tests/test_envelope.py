from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import mul
from pathlib import Path

import pytest

from permalg.envelope import Envelope, degree_count, gk_estimate, letter_count
from permalg.linalg import Span, Subspace
from permalg.metabelian import (
    AlgebraFormatError,
    InvalidLieAlgebra,
    MetabelianLieAlgebra,
    load_algebra,
    random_metabelian,
    split_basis,
)
from permalg.parser import parse_envelope_expr
from permalg.perm import PermMonomial, PermPolynomial, dimension, enumerate_basis

from oracles import free_metabelian, overlap_oracle, worklist_normal_form_oracle

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"

HEISENBERG = {
    "dim": 3,
    "basis": ["e1", "e2", "e3"],
    "brackets": [{"i": 1, "j": 2, "value": [[3, "1"]]}],
}
SL2 = {
    "dim": 3,
    "basis": ["e1", "e2", "e3"],
    "brackets": [
        {"i": 1, "j": 2, "value": [[3, "1"]]},
        {"i": 1, "j": 3, "value": [[1, "-2"]]},
        {"i": 2, "j": 3, "value": [[2, "2"]]},
    ],
}


def heisenberg():
    return MetabelianLieAlgebra.from_dict(HEISENBERG)


def abelian(dim):
    return MetabelianLieAlgebra(dim)


def test_validate_examples():
    assert heisenberg().validate().ok
    assert abelian(3).validate().ok
    report = MetabelianLieAlgebra.from_dict(SL2).validate()
    assert not report.ok
    assert not report.jacobi_violations  # sl2 is a Lie algebra
    assert report.metabelian_violations


def validate_all_pairs_oracle(algebra):
    """``validate`` over every basis triple and every pair of basis pairs:
    the independent check of the version that visits only the brackets
    that can be nonzero."""
    one = Fraction(1)
    jacobi, metabelian = [], []
    n = algebra.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                r = {}
                for p, q, t in ((i, j, k), (j, k, i), (k, i, j)):
                    for b, c in algebra.bracket(algebra.bracket_basis(p, q), {t: one}).items():
                        r[b] = r.get(b, 0) + c
                r = {b: c for b, c in r.items() if c}
                if r:
                    jacobi.append(((i, j, k), r))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for x, (a, b) in enumerate(pairs):
        for c, d in pairs[x:]:
            r = algebra.bracket(algebra.bracket_basis(a, b), algebra.bracket_basis(c, d))
            if r:
                metabelian.append(((a, b, c, d), r))
    return jacobi, metabelian


def random_brackets(dim, rng):
    """Seeded structure constants with no law imposed, so most fail."""
    brackets = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            if rng.random() < 0.3:
                brackets[(i, j)] = {rng.randint(1, dim): rng.randint(-2, 2) for _ in range(2)}
    return MetabelianLieAlgebra(dim, brackets=brackets)


def relabelled(algebra, dim, rng):
    """``algebra`` with its letters sent to distinct random letters of
    ``1..dim``; the letters hit by none are free: they have no pair."""
    image = dict(zip(range(1, algebra.dim + 1), rng.sample(range(1, dim + 1), algebra.dim)))
    brackets = {}
    for (i, j), value in algebra.table.items():
        sign = 1 if image[i] < image[j] else -1
        brackets[tuple(sorted((image[i], image[j])))] = {image[b]: sign * c for b, c in value.items()}
    return MetabelianLieAlgebra(dim, brackets=brackets)


def value_letters(dim, rng):
    """Random brackets among the first few letters whose values may land on
    the others, which then occur only as bracket values."""
    m = rng.randint(2, dim - 1)
    brackets = {
        (i, j): {rng.randint(1, dim): rng.randint(-2, 2) for _ in range(2)}
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
        if rng.random() < 0.5
    }
    return MetabelianLieAlgebra(dim, brackets=brackets)


def upper_triangular():
    """The upper-triangular 3x3 matrices, ``h1 h2 h3 x y z`` for ``E11 E22
    E33 E12 E23 E13``: a Lie algebra, so Jacobi holds, but not metabelian,
    as ``[[h1,x],[h2,y]] = [x,y] = z`` brackets two values with no letter in
    common."""
    return MetabelianLieAlgebra(
        6,
        ["h1", "h2", "h3", "x", "y", "z"],
        {
            (1, 4): {4: 1},
            (1, 6): {6: 1},
            (2, 4): {4: -1},
            (2, 5): {5: 1},
            (3, 5): {5: -1},
            (3, 6): {6: -1},
            (4, 5): {6: 1},
        },
    )


def test_validate_matches_all_pairs_oracle(rng):
    def valid(algebra):
        report = algebra.validate()
        jacobi, metabelian = validate_all_pairs_oracle(algebra)
        assert report.jacobi_violations == jacobi
        assert report.metabelian_violations == metabelian
        return report.ok

    algebras = [load_algebra(p) for p in sorted(ALGEBRAS.glob("*.json"))]
    algebras += [MetabelianLieAlgebra.from_dict(SL2), abelian(5), free_metabelian(3, 3)[0]]
    triangular = upper_triangular()
    # [x, y] = z is the one nonzero bracket of two values: each [h, x] = ±x with each [h', y] = ±y
    metabelian = [((1, 4, 2, 5), {6: 1}), ((1, 4, 3, 5), {6: -1}), ((2, 4, 2, 5), {6: -1}), ((2, 4, 3, 5), {6: 1})]
    assert triangular.validate() == ([], metabelian)
    algebras.append(triangular)
    algebras += [random_metabelian(d, rng) for d in range(1, 8) for _ in range(6)]
    # free letters between the bracketed ones, and letters that are only values
    algebras += [relabelled(random_metabelian(d, rng), rng.randint(d, 12), rng) for d in range(2, 8)]
    algebras += [relabelled(random_brackets(d, rng), rng.randint(d, 12), rng) for d in range(2, 8)]
    algebras += [value_letters(d, rng) for d in range(3, 13) for _ in range(2)]
    # [[e1,e2],e4] = [e3,e4] = e3: Jacobi fails on (1, 2, 4), where e4 has a
    # pair with the value letter e3 and none with e1 or e2; e5 is free
    through_value = MetabelianLieAlgebra(5, brackets={(1, 2): {3: 1}, (3, 4): {3: 1}})
    assert through_value.validate() == ([((1, 2, 4), {3: 1})], [])
    algebras.append(through_value)
    invalid = sum(not valid(a) for a in algebras)
    # rounds of 60 random-bracket algebras until 30 of all are invalid, at
    # any seed; the cap only stops a draw that would never get there
    for _ in range(10):
        invalid += sum(not valid(random_brackets(d, rng)) for d in range(2, 7) for _ in range(12))
        if invalid >= 30:
            break
    assert invalid >= 30


def test_validate_skips_zero_brackets(monkeypatch):
    """An abelian algebra has no nonzero bracket, so validating it brackets
    nothing, whatever its dimension."""
    calls = 0
    bracket = MetabelianLieAlgebra.bracket

    def counting(self, u, v):
        nonlocal calls
        calls += 1
        return bracket(self, u, v)

    monkeypatch.setattr(MetabelianLieAlgebra, "bracket", counting)
    assert MetabelianLieAlgebra(60).validate().ok
    assert calls == 0
    assert heisenberg().validate().ok
    # one pair, whose value e3 has no pair: no triple can fail Jacobi, and
    # no two values can bracket to nonzero
    assert calls == 0


def test_validate_brackets_no_pair_of_derived_values(monkeypatch):
    """In ``L(4, 4)`` every value lies in the derived letters, and no two
    of them form a pair, so the metabelian law makes no bracket call."""
    algebra, _ = free_metabelian(4, 4)
    values = {id(v) for v in algebra.table.values()}
    calls = 0
    bracket = MetabelianLieAlgebra.bracket

    def counting(self, u, v):
        nonlocal calls
        calls += id(u) in values and id(v) in values
        return bracket(self, u, v)

    monkeypatch.setattr(MetabelianLieAlgebra, "bracket", counting)
    assert algebra.validate().ok
    assert calls == 0


def test_derived_span_is_built_once(monkeypatch):
    """``derived_dim`` and ``split_basis`` read one derived span, built on
    first use: sizing a job and then building its ``Envelope`` adds each
    bracket value to a span once."""
    algebra, _ = free_metabelian(3, 3)
    values = {id(v) for v in algebra.table.values()}
    adds = 0
    add = Span.add

    def counting(self, vec, witness=None):
        nonlocal adds
        adds += id(vec) in values
        return add(self, vec, witness)

    monkeypatch.setattr(Span, "add", counting)
    y = algebra.derived_dim()
    assert Envelope(algebra).y_count == y
    assert adds == len(algebra.table)


def bracket_entry(**changes):
    return {"i": 1, "j": 2, "value": [[3, "1"]], **changes}


# numbers that are not integers and labels that are not distinct non-empty
# strings are refused, never truncated or split
MALFORMED = [
    ({**HEISENBERG, "dim": 3.7}, "'dim'"),
    ({**HEISENBERG, "dim": "3"}, "'dim'"),
    ({**HEISENBERG, "dim": True}, "'dim'"),
    ({**HEISENBERG, "brackets": [bracket_entry(i=1.9)]}, "bad bracket entry"),
    ({**HEISENBERG, "brackets": [bracket_entry(i=True)]}, "bad bracket entry"),
    ({**HEISENBERG, "brackets": [bracket_entry(j=2.0)]}, "bad bracket entry"),
    ({**HEISENBERG, "brackets": [bracket_entry(value=5)]}, "bad bracket entry"),
    ({**HEISENBERG, "brackets": [bracket_entry(value=[[3.2, "1"]])]}, "bad bracket value item"),
    ({**HEISENBERG, "brackets": [bracket_entry(value=[[True, "1"]])]}, "bad bracket value item"),
    ({**HEISENBERG, "brackets": [bracket_entry(value=[[3, True]])]}, "rational"),
    ({**HEISENBERG, "basis": "xyz"}, "'basis' must be a list"),
    ({**HEISENBERG, "basis": [1, 2, 3]}, "non-empty strings"),
    ({**HEISENBERG, "basis": ["x", "y", ""]}, "non-empty strings"),
    ({**HEISENBERG, "basis": [["x"], ["y"], ["z"]]}, "non-empty strings"),
    ({**HEISENBERG, "basis": ["x", "y", "y"]}, "unique"),
]


def test_from_dict_validation_errors():
    for data, message in MALFORMED:
        with pytest.raises(AlgebraFormatError, match=message):
            MetabelianLieAlgebra.from_dict(data)
    with pytest.raises(AlgebraFormatError, match="i < j"):
        MetabelianLieAlgebra.from_dict(
            {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 2, "j": 1, "value": []}]}
        )
    with pytest.raises(AlgebraFormatError, match="duplicate"):
        MetabelianLieAlgebra.from_dict(
            {
                "dim": 2,
                "basis": ["a", "b"],
                "brackets": [
                    {"i": 1, "j": 2, "value": [[1, "1"]]},
                    {"i": 1, "j": 2, "value": [[2, "1"]]},
                ],
            }
        )
    with pytest.raises(AlgebraFormatError, match="rational"):
        MetabelianLieAlgebra.from_dict(
            {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 1, "j": 2, "value": [[1, "1.5"]]}]}
        )
    with pytest.raises(AlgebraFormatError, match="unique"):
        MetabelianLieAlgebra(2, labels=["a", "a"])
    with pytest.raises(TypeError, match="int or Fraction"):
        MetabelianLieAlgebra(2, brackets={(1, 2): {2: 0.5}})


def test_constructor_rejects_bools():
    # a bool is an int to Python; as a dimension, index or coefficient it is a mistake
    with pytest.raises(AlgebraFormatError, match="dimension must be an integer"):
        MetabelianLieAlgebra(True)
    with pytest.raises(AlgebraFormatError, match="dimension must be an integer"):
        MetabelianLieAlgebra(3.0)
    for brackets in ({(True, 2): {2: 1}}, {(1, True): {1: 1}}, {(1, 2): {True: 1}}):
        with pytest.raises(AlgebraFormatError, match="integer indices"):
            MetabelianLieAlgebra(2, brackets=brackets)
    with pytest.raises(TypeError, match="int or Fraction"):
        MetabelianLieAlgebra(2, brackets={(1, 2): {2: True}})


def test_envelope_rejects_invalid():
    with pytest.raises(InvalidLieAlgebra):
        Envelope(MetabelianLieAlgebra.from_dict(SL2))


def test_split_basis_examples():
    split = split_basis(heisenberg())
    assert split.algebra.labels == ("e3", "e1", "e2")
    assert split.y_count == 1
    assert not split.changed_basis  # reordering only
    split_ab = split_basis(abelian(3))
    assert split_ab.y_count == 0
    affine = MetabelianLieAlgebra(2, ["e1", "e2"], {(1, 2): {2: 1}})
    split_aff = split_basis(affine)
    assert split_aff.algebra.labels == ("e2", "e1")
    assert split_aff.y_count == 1


def test_to_adapted_inverts_new_in_old(rng):
    """Each adapted basis vector, written in original coordinates, maps
    back to its own unit vector."""
    stock = [load_algebra(p) for p in sorted(ALGEBRAS.glob("*.json"))]
    assert len(stock) == 6
    seeded = [random_metabelian(d, rng) for d in (1, 2, 3, 4, 5, 6) for _ in range(3)]
    for algebra in stock + seeded:
        split = split_basis(algebra)
        for r, row in enumerate(split.new_in_old, start=1):
            assert split.to_adapted(row) == {r: 1}
        for outside in (0, algebra.dim + 1):
            with pytest.raises(ValueError, match="outside"):
                split.to_adapted({outside: Fraction(1)})


def test_split_basis_change_when_needed():
    skew = MetabelianLieAlgebra(2, ["e1", "e2"], {(1, 2): {1: 1, 2: 1}})
    split = split_basis(skew)
    assert split.changed_basis
    assert split.y_count == 1
    assert split.algebra.labels[0] == "y1"
    # the adapted algebra is still a valid metabelian Lie algebra
    assert split.algebra.validate().ok


def _all_pairs_table(split):
    """The adapted table from the bracket of every pair of adapted rows."""
    rows = split.new_in_old
    table = {}
    for r in range(1, len(rows) + 1):
        for s in range(r + 1, len(rows) + 1):
            w = split.to_adapted(split.original.bracket(rows[r - 1], rows[s - 1]))
            if w:
                table[(r, s)] = w
    return table


def test_split_basis_table_matches_all_pairs(rng):
    """Bracketing only the rows that hold both sides of a ``table`` pair
    gives the all-pairs table, in the same order."""
    stock = [load_algebra(p) for p in sorted(ALGEBRAS.glob("*.json"))]
    assert split_basis(load_algebra(ALGEBRAS / "skew2.json")).changed_basis
    seeded = [random_metabelian(rng.randint(1, 8), rng) for _ in range(200)]
    for algebra in stock + seeded:
        split = split_basis(algebra)
        assert list(split.algebra.table.items()) == list(_all_pairs_table(split).items())


def test_split_basis_brackets_no_zero_pair(monkeypatch):
    calls = 0
    bracket = MetabelianLieAlgebra.bracket

    def counting(self, u, v):
        nonlocal calls
        calls += 1
        return bracket(self, u, v)

    monkeypatch.setattr(MetabelianLieAlgebra, "bracket", counting)
    split_basis(MetabelianLieAlgebra(500))
    assert calls == 0
    split_basis(heisenberg())
    assert calls == 1


def test_relations_heisenberg():
    env = Envelope(heisenberg())
    rendered = [env.rule_str(r) for r in env.rules()]
    assert rendered == [
        "d(e3)*e1 -> 0",
        "d(e3)*e2 -> 0",
        "d(e2)*e1 -> d(e1)*e2 - d(e3)",
    ]


def test_relations_abelian():
    env = Envelope(abelian(3))
    rendered = [env.rule_str(r) for r in env.rules()]
    assert rendered == [
        "d(e2)*e1 -> d(e1)*e2",
        "d(e3)*e1 -> d(e1)*e3",
        "d(e3)*e2 -> d(e2)*e3",
    ]


def test_relations_affine_sign():
    # [e2,e1] = -e2 goes into the rule verbatim, so the reduct is -d(e2)
    env = Envelope(MetabelianLieAlgebra(2, ["e1", "e2"], {(1, 2): {2: 1}}))
    rendered = [env.rule_str(r) for r in env.rules()]
    assert rendered == ["d(e2)*e1 -> -d(e2)"]


def test_normal_form_examples():
    env = Envelope(heisenberg())
    element = env.element_from_original(parse_envelope_expr("d(e2)*e1", ("e1", "e2", "e3")))
    nf = env.normal_form(element)
    assert env.element_str(nf) == "d(e1)*e2 - d(e3)"
    element = env.element_from_original(parse_envelope_expr("d(e2)*e1*e1", ("e1", "e2", "e3")))
    assert env.element_str(env.normal_form(element)) == "d(e1)*e1*e2"
    normal = PermPolynomial.from_monomial(PermMonomial(2, (2, 3)))
    assert env.normal_form(normal) == normal


def test_normal_form_refuses_inexact_and_outside_input():
    """Only a ``PermPolynomial`` over the letters ``1..dim`` is reduced: a
    dict or a float coefficient raises ``TypeError``, and a letter past
    ``dim`` a ``ValueError`` that names it."""
    env = Envelope(load_algebra(ALGEBRAS / "heisenberg.json"))
    with pytest.raises(TypeError, match="expected PermPolynomial, got dict"):
        env.normal_form({PermMonomial(3, (2,)): 0.1})
    with pytest.raises(TypeError, match="int or Fraction, got float"):
        env.normal_form(PermPolynomial({PermMonomial(3, (2,)): 0.1}))
    for m in (PermMonomial(9), PermMonomial(1, (2, 9)), PermMonomial(9, (1,))):
        with pytest.raises(ValueError, match=r"letter 9 is outside the basis 1\.\.3"):
            env.normal_form(PermPolynomial.from_monomial(m))


def test_normal_form_strategies_agree_on_corpus(rng):
    algebras = [heisenberg(), abelian(3)] + [random_metabelian(d, rng) for d in (2, 3, 4, 5)]
    for algebra in algebras:
        env = Envelope(algebra)
        for _ in range(40):
            degree = rng.randint(1, 6)
            dot = rng.randint(1, env.dim)
            tail = tuple(sorted(rng.randint(1, env.dim) for _ in range(degree - 1)))
            element = PermPolynomial.from_monomial(PermMonomial(dot, tail))
            left = env.normal_form(element, "leftmost")
            right = env.normal_form(element, "rightmost")
            assert left == right
            for m in left.support():
                assert env.is_normal(m)


def test_normal_form_terminates_at_degree_ten(rng):
    env = Envelope(random_metabelian(4, rng))
    for _ in range(20):
        dot = rng.randint(1, env.dim)
        tail = tuple(sorted(rng.randint(1, env.dim) for _ in range(9)))
        nf = env.normal_form(PermPolynomial.from_monomial(PermMonomial(dot, tail)))
        for m in nf.support():
            assert env.is_normal(m)


def test_check_compositions():
    assert Envelope(heisenberg()).check_compositions().all_trivial
    assert Envelope(abelian(3)).check_compositions().all_trivial


def test_compositions_trivial_on_random_corpus(rng):
    for d in (2, 3, 4, 5):
        env = Envelope(random_metabelian(d, rng))
        assert env.check_compositions().all_trivial


def test_basis_up_to_heisenberg():
    env = Envelope(heisenberg())
    basis = env.basis_up_to(8)
    assert {env.monomial_str(m) for m in basis[1]} == {"d(e1)", "d(e2)", "d(e3)"}
    for n in range(2, 9):
        assert len(basis[n]) == n + 1
        for m in basis[n]:
            lbl = env.label(m.head)
            tail_lbls = [env.label(i) for i in m.tail]
            assert lbl in ("e1", "e2")
            if lbl == "e2":
                assert all(t == "e2" for t in tail_lbls)
            else:
                assert all(t in ("e1", "e2") for t in tail_lbls)
    counts = [degree_count(3, 1, n) for n in range(1, 9)]
    assert counts == [3, 3, 4, 5, 6, 7, 8, 9]


def test_basis_abelian_counts():
    env = Envelope(abelian(3))
    for d in range(1, 7):
        expected = (d + 1) * (d + 2) // 2 if d >= 2 else 3
        assert len(env.basis_degree(d)) == expected
        assert degree_count(3, 0, d) == expected


def test_degree_count_matches_enumeration(rng):
    for d in (2, 3, 4, 5):
        algebra = random_metabelian(d, rng)
        y, env = algebra.derived_dim(), Envelope(algebra)
        for n in range(1, 7):
            assert degree_count(d, y, n) == len(env.basis_degree(n))
            assert letter_count(d, y, n) == sum(m.degree for monos in env.basis_up_to(n).values() for m in monos)


def test_degree_count_refuses_degree_below_one():
    env = Envelope(heisenberg())
    for n in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            degree_count(3, 1, n)
        with pytest.raises(ValueError, match="degree must be >= 1"):
            env.basis_degree(n)
        with pytest.raises(ValueError, match="degree bound must be >= 1"):
            letter_count(3, 1, n)


def test_gk_estimates():
    g = gk_estimate(3, heisenberg().derived_dim(), 12)
    assert abs(g.slope - 2) <= 0.25
    assert abs(gk_estimate(3, abelian(3).derived_dim(), 12).slope - 3) <= 0.25
    assert abs(gk_estimate(1, 0, 12).slope - 1) <= 0.25
    assert g.cumulative[-1] == sum(g.per_degree)
    with pytest.raises(ValueError):
        gk_estimate(3, 1, 3)


def test_is_normal_is_basis_membership():
    """A monomial is normal exactly when ``basis_degree`` lists it, on every
    monomial of degree at most 4 of each valid stock algebra."""
    checked = 0
    for path in sorted(ALGEBRAS.glob("*.json")):
        algebra = load_algebra(path)
        if not algebra.validate().ok:
            continue
        env = Envelope(algebra)
        letters = range(1, env.dim + 1)
        for n in range(1, 5):
            basis = set(env.basis_degree(n))
            for dot in letters:
                for tail in combinations_with_replacement(letters, n - 1):
                    m = PermMonomial(dot, tail)
                    assert env.is_normal(m) == (m in basis), (path.name, m)
                    checked += 1
    assert checked == 164  # 5 valid stock algebras, of dimension 1, 2, 2, 3 and 3


def test_embed_check_examples():
    assert Envelope(heisenberg()).embed_check().ok
    assert Envelope(abelian(3)).embed_check().ok
    affine = Envelope(MetabelianLieAlgebra(2, ["e1", "e2"], {(1, 2): {2: 1}}))
    assert affine.embed_check().ok


def test_embed_pair_reduction():
    env = Envelope(heisenberg())
    idx = {lbl: i + 1 for i, lbl in enumerate(env.algebra.labels)}
    lhs = PermPolynomial(
        {
            PermMonomial(idx["e1"], (idx["e2"],)): Fraction(1),
            PermMonomial(idx["e2"], (idx["e1"],)): Fraction(-1),
        }
    )
    nf = env.normal_form(lhs)
    assert nf == PermPolynomial({PermMonomial(idx["e3"]): Fraction(1)})


def test_embed_check_on_random_corpus(rng):
    for d in (2, 3, 4, 5):
        env = Envelope(random_metabelian(d, rng))
        assert env.embed_check().ok


def test_element_from_original_with_changed_basis():
    skew = MetabelianLieAlgebra(2, ["e1", "e2"], {(1, 2): {1: 1, 2: 1}})
    env = Envelope(skew)
    element = env.element_from_original(parse_envelope_expr("d(e1)*e2", ("e1", "e2")))
    nf = env.normal_form(element)
    # embedding consistency: nf(d(e1)*e2 - d(e2)*e1) must be the dotted bracket
    other = env.element_from_original(parse_envelope_expr("d(e2)*e1", ("e1", "e2")))
    diff = nf - env.normal_form(other)
    expected = env.normal_form(
        env.element_from_original([(Fraction(1), 1, ()), (Fraction(1), 2, ())])
    )
    assert diff == expected  # [e1,e2] = e1 + e2


def test_load_algebra(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text('{"dim": 2, "basis": ["a", "b"], "brackets": []}')
    algebra = load_algebra(path)
    assert algebra.dim == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(AlgebraFormatError):
        load_algebra(bad)


def differential_corpus(rng):
    """Every valid stock algebra, then two seeded algebras of each
    dimension from 2 to 7."""
    stock = [load_algebra(p) for p in sorted(ALGEBRAS.glob("*.json"))]
    seeded = [random_metabelian(d, rng) for d in (2, 3, 4, 5, 6, 7) for _ in range(2)]
    return [Envelope(a) for a in stock + seeded if a.validate().ok]


def test_normal_form_matches_worklist_on_every_monomial(rng):
    """Both strategies on every monomial of degree at most 5: one chain
    per monomial against the global worklist that always rewrites the
    largest pending monomial.  A monomial is normal exactly when the
    worklist leaves it alone.  The corpus adds ``L(2,3)`` and ``L(3,3)``
    from ``free_metabelian``."""
    checked = 0
    free = [Envelope(free_metabelian(k, 3)[0]) for k in (2, 3)]
    for env in differential_corpus(rng) + free:
        letters = range(1, env.dim + 1)
        for n in range(1, 6):
            for dot in letters:
                for tail in combinations_with_replacement(letters, n - 1):
                    m = PermMonomial(dot, tail)
                    element = PermPolynomial.from_monomial(m)
                    for strategy in ("leftmost", "rightmost"):
                        expected = worklist_normal_form_oracle(env, element, strategy)
                        assert env.normal_form(element, strategy) == expected, (env.algebra.labels, m, strategy)
                    assert env.is_normal(m) == (expected == element)
                    checked += 1
    assert checked > 5000


def test_normal_form_matches_worklist_on_cancelling_elements(rng):
    """Seeded multi-term elements with cancelling coefficients: a random
    combination plus a multiple of an embedding relation
    ``x_i' x_j - x_j' x_i - [x_i,x_j]'``, which reduces to 0."""
    coefficients = [Fraction(c) for c in (1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-2, 3)]
    emptied = 0
    for env in differential_corpus(rng):
        for _ in range(15):
            relation = {}
            if env.dim > 1:
                i, j = rng.sample(range(1, env.dim + 1), 2)
                relation = {PermMonomial(i, (j,)): Fraction(1), PermMonomial(j, (i,)): Fraction(-1)}
                relation.update((PermMonomial(b), -c) for b, c in env.algebra.bracket_basis(i, j).items())
            scale = rng.choice(coefficients)
            element = {m: scale * c for m, c in relation.items()}
            for _ in range(rng.randint(0, 6)):
                tail = [rng.randint(1, env.dim) for _ in range(rng.randint(0, 5))]
                m = PermMonomial(rng.randint(1, env.dim), tuple(sorted(tail)))
                element[m] = element.get(m, 0) + rng.choice(coefficients)
            relation, element = PermPolynomial(relation), PermPolynomial(element)
            for strategy in ("leftmost", "rightmost"):
                assert env.normal_form(relation, strategy).is_zero
                nf = env.normal_form(element, strategy)
                assert nf == worklist_normal_form_oracle(env, element, strategy)
                emptied += not nf
    assert emptied > 0


def test_composition_residuals_match_worklist_overlaps(rng):
    """Each residual of ``check_compositions`` against the worklist's
    reduction of the overlap word both ways, the first letter absorbed
    being the greater one."""
    overlaps = 0
    for env in differential_corpus(rng):
        report = env.check_compositions()
        zs, ys = env.z_indices, range(1, env.y_count + 1)
        words = [(PermMonomial(y, (zj, zi)), zi, zj) for y in ys for zj in zs for zi in zs if zi > zj]
        words += [(PermMonomial(zi, (zk, zj)), zj, zk) for zk in zs for zj in zs for zi in zs if zi > zj > zk]
        assert len(report.entries) == len(words)
        for entry, (word, first, second) in zip(report.entries, words):
            diff = overlap_oracle(env, word, first, second)
            labels = tuple(env.label(i) for i in (word.head, first, second))
            assert (entry.letters, entry.trivial, entry.residual) == (labels, not diff, env.element_str(diff))
            overlaps += 1
    assert overlaps >= 2  # heisenberg's y-overlap and abelian3's z-overlap at least


@pytest.mark.parametrize("k, c, checks", [(2, 3, 38), (3, 3, 118), (2, 5, 208), (3, 4, 412)])
def test_envelope_of_free_metabelian_is_free_perm(k, c, checks):
    """On ``L(k, c)`` the envelope is the free perm algebra ``Perm(k)`` up
    to weight ``c``.  ``phi`` maps each adapted letter to its perm
    polynomial ``b`` and a monomial to the perm product of its letters'
    images, the dot first; a plain derived letter goes to 0, since
    ``u*[v,w] = 0`` in a perm algebra.  Both strategies keep ``phi`` on
    every monomial of weight at most ``c``, and the normal monomials of
    weight ``n`` map to a basis of degree ``n`` of ``Perm(k)``."""
    algebra, polys = free_metabelian(k, c)
    env = Envelope(algebra)
    b = [sum((x * polys[i - 1] for i, x in row.items()), PermPolynomial.zero()) for row in env.split.new_in_old]
    weight = [next(iter(p.support())).degree for p in b]

    def phi(e):
        products = (x * reduce(mul, (b[t - 1] for t in m.tail), b[m.head - 1]) for m, x in e.items())
        return sum(products, PermPolynomial.zero())

    letters = range(1, env.dim + 1)
    normal = {n: [] for n in range(1, c + 1)}
    checked = 0
    for size in range(c):
        for tail in combinations_with_replacement(letters, size):
            rest = sum(weight[t - 1] for t in tail)
            for dot in letters:
                if weight[dot - 1] + rest > c:
                    continue
                e = PermPolynomial.from_monomial(PermMonomial(dot, tail))
                for strategy in ("leftmost", "rightmost"):
                    assert phi(env.normal_form(e, strategy)) == phi(e), (k, c, e, strategy)
                    checked += 1
                if env.is_normal(PermMonomial(dot, tail)):
                    normal[weight[dot - 1] + rest].append(phi(e))
    assert checked == checks
    for n, images in normal.items():
        assert len(images) == dimension(k, n)
        assert Subspace(enumerate_basis(k, n), images).dim == dimension(k, n)
