import ast
import random
import re
from fractions import Fraction
from importlib import resources
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import rdpinv.poly
from rdpinv.poly import (
    AbsentVariableError,
    InconsistentSystemError,
    LinearSystem,
    NonLinearError,
    ParseError,
    Polynomial,
    VarTable,
    WeightConflictError,
    exact_div,
    parse,
    univar_divmod,
)
from rdpinv.poly import _read_serialized, _walk

T = VarTable(["U", "t1", "t2", "s1", "s2", "lam2", "psi1", "phib1", "x", "y", "z"],
             [1, 1, 1, 1, 2, 2, 1, 1, 1, 3, 0])


def V(name):
    return T.var(name)


def test_product_power_case():
    s1 = V("s1")
    assert (s1 * s1).serialize() == "s1^2"


def test_symmetric_expansion():
    U, t1, t2 = V("U"), V("t1"), V("t2")
    prod = (U + t1) * (U + t2)
    assert prod == U ** 2 + (t1 + t2) * U + t1 * t2


def test_cancellation():
    x, y, z = V("x"), V("y"), V("z")
    assert (x ** 3 - y * z ** 2) - x ** 3 == -(y * z ** 2)


def test_substitute_square():
    s1, t1, t2 = V("s1"), V("t1"), V("t2")
    out = (s1 ** 2).substitute({"s1": t1 + t2})
    assert out == t1 ** 2 + 2 * t1 * t2 + t2 ** 2


def test_substitute_restricted_family():
    U = V("U")
    f = U ** 2 + V("s1") * U + V("s2")
    out = f.substitute({"s1": 0, "s2": V("lam2")})
    assert out == U ** 2 + V("lam2")


def test_substitute_sign_flip():
    t1, t2 = V("t1"), V("t2")
    assert (t1 * t2).substitute({"t1": -t2}) == -(t2 ** 2)


def test_substitution_is_simultaneous():
    t1, t2 = V("t1"), V("t2")
    out = (t1 + t2).substitute({"t1": t2, "t2": t1})
    assert out == t1 + t2


def test_coeff_of():
    x, y, z, psi1 = V("x"), V("y"), V("z"), V("psi1")
    p = 3 * psi1 * y ** 2 * z + y ** 3
    split = p.coefficients_over("xyz")
    assert split[0, 2, 1] == 3 * psi1 and (5, 0, 0) not in split
    assert p.coefficient({"psi1": 1, "y": 2, "z": 1}) == 3 and p.coefficient({"x": 5}) == 0


def test_homogeneous_weight():
    s1, s2 = V("s1"), V("s2")
    assert (-2 * s1 ** 2 + 3 * s2).homogeneous_weight() == 2
    assert (s1 + s2).homogeneous_weight() is None
    zero = T.zero()
    assert zero.homogeneous_weight() is None and zero.is_zero


def test_solve_linear():
    psi1, phib1 = V("psi1"), V("phib1")
    assert (3 * psi1 + phib1).solve_linear("psi1") == phib1 * Fraction(-1, 3)
    assert (16 * psi1 + 16 * phib1).solve_linear("psi1") == -phib1
    with pytest.raises(NonLinearError):
        (V("s1") * psi1 + 1).solve_linear("psi1")
    with pytest.raises(NonLinearError):
        (psi1 ** 2 + phib1).solve_linear("psi1")
    with pytest.raises(AbsentVariableError):
        phib1.solve_linear("psi1")


def test_serialize_example():
    assert (-2 * V("s1") ** 2 + 3 * V("s2")).serialize() == "-2*s1^2 + 3*s2"
    assert T.zero().serialize() == "0"
    assert (V("s1") * Fraction(1, 2)).serialize() == "1/2*s1"


def test_parse_round_trip_fixed():
    for text in ["-2*s1^2 + 3*s2", "s1", "-s1 + 1/3", "7", "0",
                 "2/3*t1*t2^4 - s2 + x*y*z"]:
        p = parse(text, T)
        assert parse(p.serialize(), T) == p


def test_parse_appendix_line():
    table = VarTable([f"s{i}" for i in range(1, 6)], list(range(1, 6)))
    p = parse("4*s1^5 - 15*s1^3*s2 + 27*s1^2*s3 - 27*s1*s4 + 81*s5", table)
    assert p.term_count() == 5
    assert p.homogeneous_weight() == 5


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        parse("s1 + ", T)
    assert err.value.position >= 3
    with pytest.raises(ParseError):
        parse("nope", T)
    with pytest.raises(ParseError):
        parse("s1 s2", T)


def test_weight_conflict():
    other = VarTable(["s1"], [3])
    with pytest.raises(WeightConflictError):
        T.merged(other)


@pytest.mark.parametrize("names, weights", [(["x"], [2.5]), (["x"], [2.0]), (["x"], [True]),
                                            (["x"], ["3"]), (["x"], [-1]), ([1], [1]),
                                            (["x", b"y"], [1, 1]), (["x", None], [1, 1])])
def test_var_table_rejects_a_name_or_weight_of_another_type(names, weights):
    # each would otherwise be coerced, 2.5 to 2, or kept as a name
    with pytest.raises(ValueError):
        VarTable(names, weights)
    assert VarTable(["x"], [2]).weights == (2,) and VarTable([], []).names == ()


def test_cross_table_arithmetic():
    a = VarTable(["a"], [1]).var("a")
    b = VarTable(["b"], [2]).var("b")
    assert (a + b).serialize() == "b + a"


coeffs = st.integers(min_value=-9, max_value=9)


def small_poly(draw):
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3) for _ in range(3)]), coeffs),
        max_size=5))
    p = T.zero()
    for (e1, e2, e3), c in terms:
        p = p + c * V("t1") ** e1 * V("t2") ** e2 * V("s1") ** e3
    return p


polys = st.builds(lambda: None).flatmap(lambda _: st.composite(small_poly)())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    gen = st.composite(small_poly)()
    a, b, c = data.draw(gen), data.draw(gen), data.draw(gen)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_substitute_is_ring_homomorphism(data):
    gen = st.composite(small_poly)()
    a, b = data.draw(gen), data.draw(gen)
    rules = {"t1": data.draw(gen), "t2": data.draw(gen)}
    assert (a * b).substitute(rules) == a.substitute(rules) * b.substitute(rules)
    assert (a + b).substitute(rules) == a.substitute(rules) + b.substitute(rules)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_serialize_parse_round_trip(data):
    p = data.draw(st.composite(small_poly)())
    assert parse(p.serialize(), T) == p
    # read by the string splits, not by the grammar walk
    assert _read_serialized(p.serialize(), T) == p


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(*[st.sampled_from([0, 1, 2, 127, 128, 255, 256])] * 3),
                       st.one_of(coeffs, st.builds(Fraction, coeffs, st.integers(1, 12))),
                       max_size=5),
       st.lists(st.sampled_from(T.names), min_size=3, max_size=3, unique=True))
def test_the_layout_reader_reads_serialize_back(terms, names):
    # exponents on either side of the 8-bit field's guard bit, Fraction
    # coefficients, any three of the table's variables
    p = sum((c * V(names[0]) ** a * V(names[1]) ** b * V(names[2]) ** e
             for (a, b, e), c in terms.items()), T.zero())
    text = p.serialize()
    read = _read_serialized(text, T)
    assert read == p and _store(read) == _store(_walk(text, T)), text


def test_homogeneous_substitution_preserves_weight():
    s2, t1, t2 = V("s2"), V("t1"), V("t2")
    p = s2 ** 3
    out = p.substitute({"s2": t1 * t2})  # rule is homogeneous of weight 2
    assert out.homogeneous_weight() == p.homogeneous_weight()


def test_univar_division():
    U, s1, s2 = V("U"), V("s1"), V("s2")
    num = (U + s1) * (U ** 2 + s2) + 5 * s2
    quo, rem = univar_divmod(num, U + s1, "U")
    assert quo == U ** 2 + s2
    assert rem == 5 * s2
    assert exact_div((U + s1) * (U - s1), U + s1, "U") == U - s1
    with pytest.raises(ValueError):
        exact_div(U ** 2 + s2, U + s1, "U")


# -- the store as JSON integers ----------------------------------------------------

R = VarTable(["x", "y", "z"], [1, 2, 0])
#: x, y and z again, after two new names, so a move repacks every key
R_MERGED = VarTable(["w", "v"], [3, 1]).merged(R)


def _assert_rows_round_trip(p):
    den, shift, flat = p.to_rows()
    assert all(type(x) is int for x in (den, shift, *flat))
    q = Polynomial.from_rows(p.table, den, shift, flat)
    assert q == p and q.serialize() == p.serialize()
    assert (q.den, q.shift, q.terms) == (p.den, p.shift, p.terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 127, 128, 1 << 15, 1 << 17]).flatmap(lambda top: st.dictionaries(
           st.tuples(*[st.integers(0, top)] * 3),
           st.fractions(-5, 5, max_denominator=12), max_size=6)),
       st.booleans())
def test_rows_round_trip(items, moved):
    # exponents up to 127 fit 8-bit fields, 128 needs 16 bits and 2^15 needs 32
    p = Polynomial.from_items(R, items)
    _assert_rows_round_trip(p.to_table(R_MERGED) if moved else p)


@pytest.mark.parametrize("p", [R.zero(), R.const(Fraction(-3, 4)), R.const(5),
                               R.var("y", 1 << 15).to_table(R_MERGED) / 7],
                         ids=["zero", "fraction", "integer", "wide-moved"])
def test_rows_round_trip_examples(p):
    _assert_rows_round_trip(p)


# -- the packed grouped read and its writer ---------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 127, 128, 1 << 15]).flatmap(lambda top: st.dictionaries(
           st.tuples(*[st.integers(0, top)] * 3),
           st.fractions(-5, 5, max_denominator=12), max_size=6)),
       st.booleans(), st.permutations(R.names + ("q",)), st.integers(0, 4))
def test_numerators_match_the_term_view(items, moved, order, k):
    p = Polynomial.from_items(R, items)
    p = p.to_table(R_MERGED) if moved else p
    names = order[:k]  # q is in no table: it reads exponent 0
    den, groups = p.numerators_over(names)
    want: dict = {}
    for exps, c in p.items():
        e = [dict(zip(p.table.names, exps)).get(v, 0) for v in names]
        want.setdefault(tuple(e), []).append(c * den)
    assert {e: sorted(ns) for e, ns in groups.items()} == {e: sorted(ns) for e, ns in want.items()}
    assert all(type(n) is int and n for ns in groups.values() for n in ns)
    assert den == lcm(1, *[Fraction(c).denominator for _, c in p.items()])
    # over every variable each group is one term, and the writer inverts the read
    full = [v for v in order if v in p.table.names] + [v for v in p.table.names if v not in R.names]
    den, groups = p.numerators_over(full)
    q = Polynomial.from_numerators(p.table, full, {e: n for e, (n,) in groups.items()}, den)
    assert q == p and q.serialize() == p.serialize()


def test_the_kernel_is_a_leaf():
    # the kernel imports nothing from the package and keeps no orbit-sum store
    tree = ast.parse(resources.files("rdpinv").joinpath("poly.py").read_text())
    assert [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level] == []
    assert not hasattr(rdpinv.poly, "OrbitSums")


@pytest.mark.parametrize("numerators, den", [({(1, 0): Fraction(1, 2)}, 1), ({(1, 0): 1.0}, 1),
                                              ({(1,): 1}, 1), ({(1, 0): 1}, 0), ({(1, 0): 1}, 2.0)])
def test_from_numerators_rejects_bad_input(numerators, den):
    with pytest.raises(ValueError):
        Polynomial.from_numerators(R, ["x", "y"], numerators, den)


def test_truncated_multiplication():
    x, y = V("x"), V("z")
    p = (1 + x + y) ** 3
    low = p.truncate(2)
    assert p.mul_truncated(p, 2) == low * low - (low * low - (p * p).truncate(2))
    assert p.mul_truncated(p, 2) == (p * p).truncate(2)


def test_compact_drops_unused_variables():
    p = V("s1") + V("t1")
    assert set(p.compact().table.names) == {"s1", "t1"}
    assert p.compact() == p


#: the names of the moved tables, each with one weight
MOVE_NAMES = {"m0": 0, "m1": 1, "m2": 2, "m3": 1, "m4": 0, "m5": 3, "m6": 1}


@st.composite
def move_tables(draw, min_size=0):
    """A table of some of the move names, in a drawn order."""
    names = draw(st.permutations(sorted(MOVE_NAMES)))[:draw(st.integers(min_size, len(MOVE_NAMES)))]
    return VarTable(names, [MOVE_NAMES[v] for v in names])


def by_name(p):
    """The terms of ``p`` keyed by their nonzero (name, exponent) pairs."""
    return {tuple(sorted((v, e) for v, e in zip(p.table.names, exps) if e)): c
            for exps, c in p.items()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_moves_keep_every_term(data):
    # a table in any order, the polynomial using only some of its names (the
    # gaps), exponents up to 2**15 - 1 for 16-bit fields; moved by compact()
    # and onto another table in any order, runs of fields moving together
    table = data.draw(move_tables(min_size=1))
    exps = st.one_of(st.integers(0, 3), st.sampled_from([127, 128, 2**15 - 1]))
    used = data.draw(st.lists(st.sampled_from(table.names), unique=True))
    items = {}
    for _ in range(data.draw(st.integers(0, 5))):
        exp = tuple(data.draw(exps) if v in used else 0 for v in table.names)
        items[exp] = data.draw(sub_q)
    p = Polynomial.from_items(table, items)
    compact = p.compact()
    assert compact.table.names == tuple(v for v in table.names if v in p.variables())
    target = data.draw(move_tables())
    moved = p.to_table(target)
    assert moved.table is target.merged(table)
    for q in (compact, moved):
        assert by_name(q) == by_name(p) and q.shift == p.shift
        assert Polynomial.from_rows(q.table, *q.to_rows()) == q == p


# -- substitution against a term-by-term oracle ----------------------------------

S = VarTable(["a", "b", "c", "d"], [1, 1, 2, 0])
#: a foreign table: shares the ruled name "a" (same weight) and adds "f"
F = VarTable(["f", "a"], [3, 1])
sub_q = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3))


def naive_substitute(p, rules, bound):
    """Each term as the product of its rule powers; truncated only at the end."""
    out = p.table.zero()
    for m, c in p.items():
        term = p.table.const(c)
        for name, e in zip(p.table.names, m):
            if not e:
                continue
            value = rules.get(name, p.table.var(name))
            if not isinstance(value, Polynomial):
                value = p.table.const(value)
            term = term * value ** e
        out = out + term
    return out if bound is None else out.truncate(bound)


@st.composite
def sub_poly(draw, table, max_terms=6, max_exp=3):
    out = table.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = table.const(draw(sub_q))
        for name in table.names:
            term = term * table.var(name, draw(st.integers(0, max_exp)))
        out = out + term
    return out


@st.composite
def sub_rules(draw):
    a, b, c = S.var("a"), S.var("b"), S.var("c")
    shaped = {
        "swap": {"a": b, "b": a},
        "shear": {"a": a + 2 * b ** 2 - c},
        "reflection": {v: S.var(v) - Fraction(2, 3) * (a + b + c) for v in "abc"},
    }
    kind = draw(st.sampled_from(["swap", "shear", "reflection", "drawn"]))
    rules = dict(shaped.get(kind, {}))
    for name in draw(st.lists(st.sampled_from(["a", "b", "c", "zz"]), unique=True)):
        rules[name] = draw(st.one_of(
            st.just(0), st.just(S.zero()), sub_q,                      # zero, constant
            sub_poly(S, 1, 2), sub_poly(S, 3, 2),                      # monomial, polynomial
            sub_poly(F, 3, 2),                                         # foreign table
            sub_poly(S, 2, 2).map(lambda p: p + 1),                    # constant term
        ))
    return rules


#: nonzero coefficients of the affine draws, over the denominators 1 to 3
affine_q = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
#: multi-term rule values, on this table or on the foreign one
multi_term = st.one_of(*(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(t)), affine_q,
                    min_size=2, max_size=4).map(lambda items, t=t: Polynomial.from_items(t, items))
    for t in (S, F)))


@st.composite
def affine_draws(draw):
    """``(p, rules, bound)`` with p affine in two or three variables ruled
    to multi-term values: each term carries at most one of them, to the
    first power, so the image is one sum of products.  d, when ruled, goes
    to one term over a denominator up to 12, next to the multi-term values;
    the variables kept take exponents up to 127, so a product can cross the
    guard bit of an 8-bit field."""
    ruled = draw(st.lists(st.sampled_from("abc"), min_size=2, max_size=3, unique=True))
    exps = st.one_of(st.integers(0, 2), st.sampled_from([100, 126, 127]))
    items = {}
    for _ in range(draw(st.integers(1, 6))):
        unit = draw(st.sampled_from([None, *ruled]))
        items[tuple(int(v == unit) if v in ruled else draw(exps) for v in S.names)] = draw(affine_q)
    p = Polynomial.from_items(S, items)
    rules = {name: draw(multi_term) for name in ruled}
    if draw(st.booleans()):
        rules["d"] = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 12))) \
            * S.var(draw(st.sampled_from("abc")), draw(st.integers(0, 2)))
    return p, rules, draw(st.one_of(st.none(), st.integers(0, 6), st.just(130)))


#: the classifier's table: three variables of weight 1
J = VarTable(["x", "y", "z"], [1, 1, 1])


@st.composite
def jet_draws(draw):
    """``(p, rules, bound)`` of the classifier's shape: a dense jet in x, y, z
    (every monomial up to its degree, no coefficient zero), one variable ruled
    to zero, to one term or to several terms, and a bound below the degree."""
    degree = draw(st.integers(2, 5))
    monos = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1 - i)
             for k in range(degree + 1 - i - j)]
    p = Polynomial.from_items(J, {m: draw(affine_q) for m in monos})
    value = draw(st.one_of(
        st.just(0), st.just(J.zero()), sub_poly(J, 1, 2),
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), affine_q, min_size=2, max_size=5)
        .map(lambda items: Polynomial.from_items(J, items))))
    return p, {draw(st.sampled_from(J.names)): value}, draw(st.integers(0, degree - 1))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.tuples(sub_poly(S), sub_rules(), st.one_of(st.none(), st.integers(0, 6))),
                 affine_draws(), jet_draws()))
def test_substitute_matches_term_by_term_oracle(case):
    p, rules, bound = case
    out = p.substitute(rules, max_total_degree=bound)
    table = p.table
    for name, value in rules.items():
        if name in p.table and isinstance(value, Polynomial):
            table = table.merged(value.table)
    assert out.table is table
    want = naive_substitute(p, rules, bound).to_table(table)
    assert dict(out.items()) == dict(want.items())
    assert out.serialize() == want.serialize()
    assert all(c and (type(c) is int or c.denominator != 1) for _, c in out.items())
    # every exponent kept below the guard bit of its field, as the rows require
    assert Polynomial.from_rows(out.table, *out.to_rows()) == out


@st.composite
def wide_draws(draw):
    """``(p, rules, bound)`` for the choices a substitution makes once per
    call: a term with an exponent of a from 100 to 300, so that a one-term
    value of a or a Horner step through b's value must double the field
    width, even from 8 bits to past 2**8; two multi-term values, so that the
    recursion is two deep; multi-term and one-term values with denominators;
    bounds at which the degree reader changes from ``k % m`` to decoding."""
    a, b, c, d = (S.var(v) for v in "abcd")
    # as often below 2**7 as above it, where the input's fields are already wider
    big = (a ** draw(st.one_of(st.integers(100, 127), st.integers(128, 300)))
           * b ** draw(st.one_of(st.integers(0, 30), st.integers(64, 127)))
           * c ** draw(st.integers(0, 2)) * d ** draw(st.integers(0, 2)))
    p = draw(sub_poly(S, 3, 2)) + draw(sub_q.filter(bool)) * big
    rules = {"b": draw(st.sampled_from([a ** 2 + b, (a + 1) / 2, b + Fraction(1, 3) * d])),
             "c": draw(st.sampled_from([(b - d) / 3, b * d + 1, a - 2 * c]))}
    for name, values in (("a", [None, Fraction(2, 3) * b ** 3, Fraction(1, 2), 0]),
                         ("d", [None, None, Fraction(3, 2) * c, Fraction(-1, 4)])):
        value = draw(st.sampled_from(values))
        if value is not None:
            rules[name] = value
    return p, rules, draw(st.sampled_from([None, 127, 254, 255]))


@settings(max_examples=150, deadline=None)
@given(wide_draws())
def test_substitute_matches_the_oracle_on_wide_draws(case):
    test_substitute_matches_term_by_term_oracle.hypothesis.inner_test(case)


@pytest.mark.parametrize("text, value, bound", [
    # a block of field sum 255 = 2**8 - 1, which k % 255 would read as 0, and
    # which a reader sized by the bound instead of the keys would misread
    ("a^100*b*c^100*d^55", "b + 1", 254),
    # the ruled b is absent and past the input's top field
    ("a^3 + 2*a", "a + d", 2),
    # b occurs to the powers 1 and 2 only, so the OR of the keys reads 3
    ("a*b + b^2 + c", "a + d", 3),
    # a Horner step reaches field sum 255, and the next one must read it
    ("a^100*b^2*c^100*d^54", "d + 1", 255),
    # the steps widen the fields past 8 bits before the narrower block of d joins
    ("a^120*b^10 + d", "a^2 + b", None),
])
def test_substitute_at_the_edges_of_an_8_bit_field(text, value, bound):
    test_substitute_matches_term_by_term_oracle.hypothesis.inner_test(
        (parse(text, S), {"b": parse(value, S)}, bound))


def test_substitute_without_live_rules_returns_self():
    p = S.var("a") * S.var("b") ** 2 + 1
    assert p.substitute({"zz": S.var("a")}) is p
    assert p.substitute({"zz": 1}, max_total_degree=2) == S.const(1)


# -- the term view ---------------------------------------------------------------


def _monomial(table, powers):
    return Polynomial.from_items(table, {tuple(powers.get(v, 0) for v in table.names): 1})


@settings(max_examples=300, deadline=None)
@given(sub_poly(S), st.permutations(S.names), st.integers(0, 4))
def test_term_view_round_trips_and_splits(p, order, k):
    names = order[:k]
    items = dict(p.items())
    assert all(len(m) == len(S) and c for m, c in items.items())
    back = Polynomial.from_items(S, items)
    assert back.table is p.table and dict(back.items()) == items
    assert back.serialize() == p.serialize()
    # the split over ``names`` reassembles p, keyed by exponents in that order
    split = p.coefficients_over(names)
    total = S.zero()
    for key, cof in split.items():
        assert len(key) == len(names) and cof and not cof.variables() & set(names)
        assert cof.table is S
        total = total + cof * _monomial(S, dict(zip(names, key)))
    assert total == p
    # coefficient and order read the same terms, one key or degree at a time
    assert all(p.coefficient(dict(zip(S.names, m))) == c for m, c in items.items())
    assert p.order() == min((sum(m) for m in items), default=None)
    if names:  # sub_poly draws exponents up to 3
        assert p.coefficient({v: 9 for v in names}) == 0
    # coeffs_in reads the same split
    for name in names:
        by_exp = {key[0]: cof for key, cof in p.coefficients_over([name]).items()}
        assert p.coeffs_in(name) == by_exp


# -- the shared exact linear solver ----------------------------------------------

small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_system(draw):
    """Rows over unknowns 0..n-1 that a hidden rational point satisfies."""
    n = draw(st.integers(1, 5))
    point = [draw(small_q) for _ in range(n)]
    entry = st.one_of(st.just(Fraction(0)), small_q)
    rows = [{u: c for u, c in enumerate(draw(st.lists(entry, min_size=n, max_size=n))) if c}
            for _ in range(draw(st.integers(0, 7)))]
    rows = [(row, sum(c * point[u] for u, c in row.items())) for row in rows]
    weights = draw(st.lists(small_q, min_size=len(rows), max_size=len(rows)))
    return n, rows, weights


def _combine(rows, weights):
    row, rhs = {}, Fraction(0)
    for (r, b), w in zip(rows, weights):
        for u, c in r.items():
            row[u] = row.get(u, 0) + w * c
        rhs += w * b
    return row, rhs


def _dense_rank(rows, n):
    # Fractions throughout: int / int would divide to a float and lose exactness
    mat = [[Fraction(row.get(u, 0)) for u in range(n)] for row, _ in rows]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(sparse_system())
def test_linear_system_solution_satisfies_every_row(case):
    n, rows, _ = case
    system = LinearSystem()
    for row, rhs in rows:
        system.add(row, rhs)
    sol = system.solution()
    for row, rhs in rows:
        assert sum(c * sol.get(u, 0) for u, c in row.items()) == rhs


@settings(max_examples=60, deadline=None)
@given(sparse_system())
def test_linear_system_rank_counts_independent_rows(case):
    n, rows, weights = case
    system = LinearSystem()
    independent = sum(system.add(row, rhs) for row, rhs in rows)
    assert system.rank == independent == _dense_rank(rows, n)
    # a combination of earlier rows adds nothing
    assert system.add(*_combine(rows, weights)) is False
    assert system.rank == independent


@settings(max_examples=60, deadline=None)
@given(sparse_system())
def test_linear_system_perturbed_rhs_is_inconsistent(case):
    n, rows, weights = case
    system = LinearSystem()
    for row, rhs in rows:
        system.add(row, rhs)
    row, rhs = _combine(rows, weights)
    with pytest.raises(InconsistentSystemError):
        system.add(row, rhs + 1)


def test_linear_system_unique_solution():
    system = LinearSystem()
    assert system.add({"a": 1, "b": 1}, 3)
    assert system.add({"a": 1, "b": -1}, Fraction(1, 2))
    assert not system.add({"a": 2}, Fraction(7, 2))
    assert system.rank == 2
    assert system.solution() == {"a": Fraction(7, 4), "b": Fraction(5, 4)}


def _check_reduced_and_indexed(system):
    """Pivot rows mention no pivot, integral entries are ints, and the
    occurrence index is exactly the one the rows imply."""
    implied = {}
    for pv, (row, rhs) in system._pivots.items():
        assert not row.keys() & system._pivots.keys()
        for u, c in row.items():
            assert c and (type(c) is int or c.denominator != 1)
            implied.setdefault(u, set()).add(pv)
        assert type(rhs) is int or rhs.denominator != 1
    assert system._uses == implied


@settings(max_examples=80, deadline=None)
@given(sparse_system())
def test_linear_system_rows_stay_reduced_and_indexed(case):
    _, rows, _ = case
    system = LinearSystem()
    for row, rhs in rows:
        system.add(row, rhs)
        _check_reduced_and_indexed(system)
    assert all(type(v) is Fraction for v in system.solution().values())


big_q = st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(10**9, 10**15))


@st.composite
def mixed_system(draw):
    """Rows of ints and large-denominator Fractions that a hidden point satisfies."""
    n = draw(st.integers(1, 6))
    point = [draw(st.one_of(st.integers(-4, 4), big_q)) for _ in range(n)]
    entry = st.one_of(st.just(0), st.integers(-5, 5), big_q)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = {u: c for u, c in enumerate(draw(st.lists(entry, min_size=n, max_size=n))) if c}
        rows.append((row, sum(c * point[u] for u, c in row.items())))
    return n, rows


@settings(max_examples=80, deadline=None)
@given(mixed_system())
def test_linear_system_mixed_rows_match_dense_rank(case):
    n, rows = case
    system = LinearSystem()
    for row, rhs in rows:
        system.add(row, rhs)
        _check_reduced_and_indexed(system)
    assert system.rank == _dense_rank(rows, n)
    sol = system.solution()
    assert all(type(v) is Fraction for v in sol.values())
    for row, rhs in rows:
        assert sum(c * sol.get(u, 0) for u, c in row.items()) == rhs


def test_linear_system_cancelled_entry_leaves_the_index():
    system = LinearSystem()
    system.add({"a": 1, "c": 1, "d": 1})
    assert system._uses == {"c": {"a"}, "d": {"a"}}
    # the new pivot c rewrites a's row {c: 1, d: 1} to {d: 1 - 1}: d cancels
    system.add({"c": 2, "d": 2}, 4)
    assert system._pivots == {"a": ({}, -2), "c": ({"d": 1}, 2)}
    assert system._uses == {"d": {"c"}}
    assert all(type(v) is int for _, v in system._pivots.values())
    assert system.solution() == {"a": Fraction(-2), "c": Fraction(2)}


# -- the kernel boundary: exact coefficients only ---------------------------------


def test_const_rejects_non_rational():
    table = VarTable(["x", "y"], [1, 1])
    for bad in (0.1, 1.0, "1", None):
        with pytest.raises(TypeError):
            table.const(bad)


def test_from_items_rejects_non_rational():
    table = VarTable(["x", "y"], [1, 1])
    with pytest.raises(TypeError):
        Polynomial.from_items(table, {(1, 0): 0.5})


def test_from_items_packs_the_nonzero_exponents_of_a_wide_table():
    # 400 fields, nearly every exponent zero; a zero coefficient is no term,
    # so even at an exponent past the guard bit it widens no field
    def e(**at):
        return tuple(at.get(v, 0) for v in WIDE.names)
    p = Polynomial.from_items(WIDE, {e(v0=2, v399=1): Fraction(1, 2), e(v7=127): -3,
                                     e(): 0, e(v5=300): Fraction(0)})
    assert (p.shift, p.den) == (8, 2)
    assert dict(p.items()) == {e(v0=2, v399=1): Fraction(1, 2), e(v7=127): -3}
    assert p == WIDE.var("v0", 2) * WIDE.var("v399") / 2 - 3 * WIDE.var("v7", 127)


def test_substitute_rejects_non_rational_rule_value():
    table = VarTable(["x", "y"], [1, 1])
    p = table.var("x") * table.var("y")
    with pytest.raises(TypeError):
        p.substitute({"x": 0.5})
    with pytest.raises(TypeError):
        p.substitute({"unused": 0.5})


def test_derivative_along_rejects_bad_input():
    p = VarTable(["x", "y"], [1, 1]).var("x") ** 2
    for c in (0.5, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            p.derivative_along({"x": c})


# -- the product kernel against a dense reference ----------------------------------


class Dense:
    """Reference polynomial: exponent tuples aligned with ``names`` -> Fraction."""

    def __init__(self, names, terms):
        self.names = tuple(names)
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def on(self, names):
        where = [names.index(v) for v in self.names]
        out = {}
        for m, c in self.terms.items():
            exps = [0] * len(names)
            for k, e in zip(where, m):
                exps[k] = e
            out[tuple(exps)] = c
        return Dense(names, out)

    def merged(self, other):
        """The names of ``VarTable.merged``: these first, then the other's new ones."""
        return self.names + tuple(v for v in other.names if v not in self.names)

    def plus(self, other, sign=1):
        names = self.merged(other)
        out = dict(self.on(names).terms)
        for m, c in other.on(names).terms.items():
            out[m] = out.get(m, 0) + sign * c
        return Dense(names, out)

    def times(self, other, bound=None):
        names = self.merged(other)
        out = {}
        for ma, ca in self.on(names).terms.items():
            for mb, cb in other.on(names).terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                if bound is None or sum(m) <= bound:
                    out[m] = out.get(m, 0) + ca * cb
        return Dense(names, out)

    def derivative(self, name):
        i = self.names.index(name)
        return Dense(self.names, {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                                  for m, c in self.terms.items() if m[i]})

    def compact(self):
        used = [k for k in range(len(self.names)) if any(m[k] for m in self.terms)]
        return Dense([self.names[k] for k in used],
                     {tuple(m[k] for k in used): c for m, c in self.terms.items()})


SMALL = VarTable(["x", "y", "z"], [1, 2, 0])
FOREIGN = VarTable(["w", "x"], [3, 1])  # shares x with SMALL
WIDE = VarTable([f"v{i}" for i in range(400)], [i % 4 for i in range(400)])
#: large exponents, each set drawn alongside small ones: just below the guard bit
#: of an 8-bit field (a product of two crosses it), across it, just below the
#: guard bit of a 16-bit field, and across that
LARGE = [(126, 127), (128, 255, 300), (2**15 - 2, 2**15 - 1), (2**15,)]
#: numerators over mixed denominators, so the shared denominator needs reducing
QS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def dense_polys(draw, table, exps, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = [0] * len(table)
        for k in draw(st.lists(st.integers(0, len(table) - 1), max_size=3)):
            m[k] = draw(exps)
        terms[tuple(m)] = terms.get(tuple(m), 0) + draw(QS)
    return Dense(table.names, terms)


def _kernel(ref):
    return Polynomial.from_items(VarTable(ref.names, [_WEIGHT[v] for v in ref.names]), ref.terms)


_WEIGHT = {n: w for t in (SMALL, FOREIGN, WIDE) for n, w in zip(t.names, t.weights)}


def _check(p, ref):
    """``p`` equals the reference term by term, in the canonical store."""
    assert p.table.names == ref.names
    items = dict(p.items())
    assert items == ref.terms
    assert all((type(c) is int) == (c.denominator == 1) for c in items.values())
    assert p == _kernel(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_dense_reference(data):
    ta, tb = data.draw(st.sampled_from([(SMALL, SMALL), (SMALL, FOREIGN), (FOREIGN, SMALL),
                                        (WIDE, WIDE), (SMALL, WIDE), (WIDE, SMALL)]))
    exps = st.one_of(st.integers(0, 3), st.sampled_from(data.draw(st.sampled_from(LARGE))))
    ra = data.draw(dense_polys(ta, exps))
    rb = data.draw(dense_polys(tb, exps))
    if ta is tb and data.draw(st.booleans()):
        # b shares a's monomials, negated, so sums cancel
        scale = data.draw(st.sampled_from([-1, Fraction(-1, 3), 2]))
        rb = rb.plus(Dense(ra.names, {m: scale * c for m, c in ra.terms.items()}))
    a, b = _kernel(ra), _kernel(rb)
    _check(a, ra)
    ab, rab = a * b, ra.times(rb)
    _check(ab, rab)
    bound = data.draw(st.integers(-2, 8))  # a negative bound keeps no term
    _check(a.mul_truncated(b, bound), ra.times(rb, bound))
    _check(ab * ab, rab.times(rab))  # an exponent that reached a guard bit, doubled
    _check(a + b, ra.plus(rb))
    _check(a - b, ra.plus(rb, -1))
    _check(a - a, Dense(ra.names, {}))
    _check(b.to_table(ta), rb.on(Dense(ta.names, {}).merged(rb)))
    _check((a * b).compact(), ra.times(rb).compact())
    name = data.draw(st.sampled_from(ta.names))
    _check(a.derivative_along({name: 1}), ra.derivative(name))
    # a directional derivative, against the sum of partials
    direction = {v: data.draw(st.integers(-6, 6)) for v in data.draw(
        st.lists(st.sampled_from(ta.names), max_size=3, unique=True))}
    expect = Dense(ra.names, {})
    for v, c in direction.items():
        expect = expect.plus(ra.derivative(v), c)
    _check(a.derivative_along(direction), expect)
    if len(ta) > 2:
        # (c_v u - c_u v)^k times a power of a third variable is constant
        # along (c_u, c_v): every partial sum cancels
        u, v, w = ta.names[:3]
        cu, cv = (data.draw(st.integers(-6, 6).filter(bool)) for _ in "uv")
        flat = (cv * ta.var(u) - cu * ta.var(v)) ** data.draw(st.integers(1, 3)) \
            * ta.var(w, data.draw(exps))
        _check(flat.derivative_along({u: cu, v: cv}), Dense(ta.names, {}))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_image_coefficients_are_the_substituted_coefficients(data):
    """image_coefficients against the whole image split by coefficients_over:
    cell variables at any place in the merged table, ruled ones among them,
    Fraction coefficients over mixed denominators, zero and one-term rule
    values, rules on absent variables, and exponents in 16-bit fields, in
    the input, in a value, or only in a monomial that no term reaches."""
    ta, tb = data.draw(st.sampled_from([(SMALL, SMALL), (SMALL, FOREIGN), (FOREIGN, SMALL),
                                        (WIDE, WIDE), (SMALL, WIDE)]))
    exps = st.one_of(st.integers(0, 3), st.sampled_from(data.draw(st.sampled_from(LARGE))))
    p = _kernel(data.draw(dense_polys(ta, exps)))
    # a ruled variable occurs, to a small power: its value is raised to it
    tops = [max(m[i] for m, _ in p.items()) for i in range(len(ta))] if p else []
    small = [v for v, e in zip(ta.names, tops) if 0 < e <= 3]
    ruled = data.draw(st.lists(st.sampled_from(small), min_size=1, max_size=3, unique=True)
                      if small else st.just([]))
    rules = {v: _kernel(data.draw(dense_polys(tb, exps, max_terms=3))) for v in ruled + ["q"]}
    image = p.substitute(rules)
    table = image.table
    some = sorted(image.variables() | set(ruled) | set(table.names[:2]))
    names = data.draw(st.lists(st.sampled_from(some), max_size=3, unique=True))
    split = image.coefficients_over(names)
    cell = st.tuples(*[exps] * len(names))
    cells = data.draw(st.lists(st.sampled_from(list(split)) | cell if split else cell, max_size=4))
    monos = [dict(zip(names, c)) for c in cells] + [{"q": 1}]  # q is off names: zero
    got = p.image_coefficients(rules, names, monos)
    assert len(got) == len(monos)
    for mono, c in zip(monos, got):
        want = split.get(tuple(mono.get(v, 0) for v in names), table.zero()) \
            if set(mono) <= set(names) else table.zero()
        assert c.table is table
        assert c == want and c.den == want.den
        assert dict(c.items()) == dict(want.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degree_part_is_the_difference_of_two_truncations(data):
    exps = st.one_of(st.integers(0, 3), st.sampled_from(data.draw(st.sampled_from(LARGE))))
    p = _kernel(data.draw(dense_polys(data.draw(st.sampled_from([SMALL, FOREIGN, WIDE])), exps)))
    degrees = [sum(m) for m, _ in p.items()]
    d = data.draw(st.integers(-1, 8) | st.sampled_from(degrees) if degrees else st.integers(-1, 8))
    part = p.degree_part(d)
    want = p.truncate(d) - p.truncate(d - 1)
    assert part.table is want.table and part == want and part.shift == p.shift
    assert dict(part.items()) == {m: c for m, c in p.items() if sum(m) == d}


def test_powers_cross_the_guard_bit():
    x = SMALL.var("x")
    for e in (127, 128, 255, 256, 300, 2**15, 2**16 + 1):
        assert dict((x ** e).items()) == {(e, 0, 0): 1}
        assert dict((x ** (e - 1) * x).items()) == {(e, 0, 0): 1}
    assert (x ** 300).serialize() == "x^300"
    assert dict((Polynomial.from_items(SMALL, {(255, 0, 0): 1}) * x).items()) == {(256, 0, 0): 1}
    # a direct rule that fills a field up to its guard bit, then a product
    y = SMALL.var("y")
    image = (x * y ** 127).substitute({"x": y ** 127})
    assert dict((image * y ** 2).items()) == {(0, 256, 0): 1}
    assert parse("x^300*y - 1/2", SMALL) == x ** 300 * SMALL.var("y") - Fraction(1, 2)
    # two direct rules feeding one field next to a kept exponent near the guard bit
    term = Polynomial.from_items(SMALL, {(1, 127, 1): 1})
    image = term.substitute({"x": SMALL.var("y", 127), "z": SMALL.var("y", 127)})
    assert dict(image.items()) == {(0, 381, 0): 1}
    # a Horner rule into a term whose kept exponent is near the guard bit
    assert (x ** 126 * y).substitute({"y": x + 1}) == x ** 127 + x ** 126
    # a monomial past every field is never reached; packed, it would read as y
    assert y.image_coefficients({}, ("x", "y"), [{"x": 256}])[0].is_zero
    # a rule that fills a field past its guard bit widens the fields first
    got = y.image_coefficients({"y": x ** 255 * y}, ("x", "y"), [{"x": 256}, {"x": 255, "y": 1}])
    assert got == [SMALL.zero(), SMALL.const(1)]


def test_degree_reads_exact_when_the_field_sum_reaches_the_modulus():
    """A key is its field sum mod 2**s - 1.  On 8-bit fields a^127*b^127*c
    has degree 255, which reads as 0 mod 255: each degree read decodes it."""
    table = VarTable(["a", "b", "c", "z", "w"], [1] * 5)
    p = parse("a^127*b^127*c + a", table)
    a = table.var("a")
    assert p.shift == 8
    assert p.truncate(3) == a
    assert p.degree_part(0).is_zero
    assert p.mul_truncated(table.const(1), 2) == a
    # a one-term value raises the block keys' field sum past the input's:
    # 240 kept, plus 15 from w^15 at the top exponent of z
    q = parse("a^80*b^80*c^80*z + a", table)
    assert q.substitute({"z": table.var("w", 15)}, max_total_degree=5) == a


def test_coeff_of_an_exponent_no_field_holds_is_zero():
    table = VarTable(["x", "y", "z"], [1, 1, 1])
    p = parse("y^127 + x*y + y + 3", table)
    assert p.shift == 8
    # packed on 8-bit fields, x^256 is y and y^-129*z is y^127
    for mono in ({"x": 256}, {"y": -1}, {"y": -129, "z": 1}):
        assert p.coefficient(mono) == 0
    assert p.coefficient({"y": 1, "z": 0}) == 1
    # a name not in the table: to the power 0 it is left out, to a positive power
    # no term holds it
    assert p.coefficient({"y": 1, "w": 0}) == 1 and p.coefficient({"w": 0}) == 3
    assert p.coefficient({"y": 1, "w": 2}) == 0 == p.coefficient({"w": 1})
    got = p.coeffs_in("y")[1]
    assert got == table.var("x") + 1 and got.table is table


def _dense_substitute(ref, rules, bound):
    """``ref`` with each ruled variable replaced by its one-term value."""
    names = ref.names
    for v, r in rules.items():
        names = Dense(names, {}).merged(r)
    rules = {v: r.on(names) for v, r in rules.items()}
    out = {}
    for m, c in ref.on(names).terms.items():
        exps = [0 if v in rules else e for v, e in zip(names, m)]
        for v, e in zip(names, m):
            if v in rules and e:
                if not rules[v].terms:
                    c = 0
                    break
                ((rm, rc),) = rules[v].terms.items()
                exps = [x + e * y for x, y in zip(exps, rm)]
                c *= rc ** e
        if c and (bound is None or sum(exps) <= bound):
            out[tuple(exps)] = out.get(tuple(exps), 0) + c
    return Dense(names, out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_term_rules_match_dense_reference(data):
    """Zero and scaled-monomial rule values, several of them feeding one
    variable, with exponents at and across guard bits."""
    exps = st.one_of(st.integers(0, 3), st.sampled_from(data.draw(st.sampled_from(LARGE))))
    ref = Dense(SMALL.names, data.draw(st.dictionaries(st.tuples(exps, exps, exps), QS,
                                                       min_size=1, max_size=2)))
    target = data.draw(st.sampled_from(SMALL.names))  # a field every value may feed
    # the width of the input's fields, of which a value may fill all but the guard bit
    width = next(w for w in (8, 16, 32) if all(e >> (w - 1) == 0 for m in ref.terms for e in m))
    rules = {}
    for name in data.draw(st.lists(st.sampled_from(SMALL.names), min_size=2, unique=True)):
        table = data.draw(st.sampled_from([SMALL, FOREIGN]))
        mono = dict(zip(table.names, data.draw(st.tuples(*[st.integers(0, 3)] * len(table)))))
        if data.draw(st.integers(0, 3)):
            # as much of the target as one term's image can carry
            e = max([m[SMALL.index_of(name)] for m in ref.terms] + [1])
            mono[target] = max(mono.get(target, 0), (2 ** (width - 1) - 1) // e)
        rules[name] = Dense(mono, {tuple(mono.values()): data.draw(QS)})
    bound = data.draw(st.one_of(st.none(), st.integers(0, 8)))
    out = _kernel(ref).substitute({v: _kernel(r) for v, r in rules.items()},
                                  max_total_degree=bound)
    _check(out, _dense_substitute(ref, rules, bound))


# -- the parser against the token-walking parser it replaced -----------------------

_OLD_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))")


def _old_tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _OLD_TOKEN.match(text, pos)
        if m is None or m.lastgroup is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:pos+1]!r}", pos)
        out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return out


def _old_parse(text, table):
    """The tokenizer and token walk that ``parse`` used before, as the oracle."""
    tokens = _old_tokenize(text)
    n = len(tokens)
    if n == 0:
        raise ParseError("empty input", 0)
    terms, i, first = [], 0, True
    while i < n:
        sign = 1
        kind, val, pos = tokens[i]
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        elif not first:
            raise ParseError(f"expected '+' or '-', got {val!r}", pos)
        first = False
        if i >= n:
            raise ParseError("dangling sign", pos)
        num, den, mono = sign, 1, {}
        while True:
            kind, val, pos = tokens[i]
            if kind == "num":
                num *= int(val)
                if i + 2 < n and tokens[i + 1][:2] == ("op", "/") and tokens[i + 2][0] == "num":
                    d = int(tokens[i + 2][1])
                    if d == 0:
                        raise ParseError("zero denominator", tokens[i + 2][2])
                    den *= d
                    i += 2
                i += 1
            elif kind == "name":
                if val not in table:
                    raise ParseError(f"unknown variable {val!r}", pos)
                exp = 1
                if i + 2 < n and tokens[i + 1][:2] == ("op", "^") and tokens[i + 2][0] == "num":
                    exp = int(tokens[i + 2][1])
                    i += 2
                elif i + 1 < n and tokens[i + 1][:2] == ("op", "^"):
                    raise ParseError("expected integer exponent after '^'", tokens[i + 1][2])
                mono[val] = mono.get(val, 0) + exp
                i += 1
            else:
                raise ParseError(f"expected coefficient or variable, got {val!r}", pos)
            if i < n and tokens[i][:2] == ("op", "*"):
                i += 1
                if i >= n:
                    raise ParseError("dangling '*'", tokens[i - 1][2])
                continue
            break
        terms.append((mono, num if den == 1 else Fraction(num, den)))
        if i < n and tokens[i][0] != "op":
            raise ParseError(f"expected operator, got {tokens[i][1]!r}", tokens[i][2])
    return Polynomial.from_items(table, _summed(table, terms))


def _summed(table, terms):
    out = {}
    for mono, c in terms:
        exps = tuple(mono.get(v, 0) for v in table.names)
        out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c}


def _store(p):
    """The private store of ``p``, term order and numerator types included."""
    return [(k, n, type(n)) for k, n in p.terms.items()], p.den, p.shift


def _agree(text, table):
    """Both parsers accept ``text`` with equal results, or both refuse it;
    and where the string-split reader takes ``text``, the grammar walk takes
    it too and builds the same store."""
    try:
        want = _old_parse(text, table)
    except ParseError:
        want = None
    try:
        got = parse(text, table)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text), (text, exc.position)
        got = None
    assert (got is None) == (want is None), (text, got, want)
    assert got == want, text
    assert got is None or all(type(n) is int for n in got.terms.values()), text
    read = _read_serialized(text, table)
    if read is not None:
        assert _store(read) == _store(_walk(text, table)), text


_PIECES = st.sampled_from(
    # names, some unknown
    ["x", "y", "z", "s1", "s2", "lam2", "q", "x1", "S1", "_", "xy"]
    # digits, an Arabic-Indic three among them
    + ["0", "1", "2", "7", "10", "003", "\u0663"]
    + ["+", "-", "*", "/", "^"] * 3
    # whitespace, a no-break space and a separator control among it
    + [" ", "  ", "\t", "\n", "\u00a0", "\x1c"]
    # stray characters: a zero-width space and a superscript two among them
    + ["$", "(", ")", ".", ",", "=", "\u00e9", "\x00", "\u200b", "\u00b2"])


_SPACE = st.sampled_from(["", "", " ", "\t\n", "\u00a0"])


@st.composite
def _shaped_factor(draw):
    """p, p/q, name or name^e, with random whitespace around '/' and '^'."""
    if draw(st.booleans()):
        head, op, tails = draw(st.sampled_from(["0", "2", "10", "\u0663"])), "/", ["3", "0", "7"]
    else:
        head, op, tails = draw(st.sampled_from(["x", "s1", "lam2", "q"])), "^", ["2", "0", "12"]
    if draw(st.booleans()):
        return head
    return head + draw(_SPACE) + op + draw(_SPACE) + draw(st.sampled_from(tails))


@st.composite
def _shaped(draw):
    """Text in the grammar, up to an unknown name or a zero denominator,
    or with one of its pieces replaced by a random one."""
    parts = []
    for k in range(draw(st.integers(1, 4))):
        parts += [draw(_SPACE), draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-"]))]
        for i, factor in enumerate(draw(st.lists(_shaped_factor(), min_size=1, max_size=3))):
            parts += [draw(_SPACE), "*", draw(_SPACE), factor] if i else [draw(_SPACE), factor]
    parts.append(draw(_SPACE))
    if draw(st.booleans()):
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_PIECES)
    return "".join(parts)


#: factors of the layout serialize() writes, and ones it never writes: an
#: unknown name, a zero denominator, a whole p/q, exponents 0 and 1, a leading
#: zero, an Arabic-Indic digit, exponents on either side of the 8-bit guard bit
_LAID_FACTOR = st.sampled_from(
    ["2", "10", "003", "0", "\u0663", "1/3", "2/4", "4/2", "7/0", "3/\u0660", "q"]
    + [name + e for name in ("x", "s1", "lam2", "U") for e in ("", "^2", "^0", "^1", "^03")]
    + ["y^\u0663", "x^127", "t1^127", "t2^128", "z^255", "s2^256"])


@st.composite
def _laid_out(draw):
    """Text with ' + ' and ' - ' between terms and '*' between factors, and a
    '-' before the first term now and then; now and then one of its pieces
    is replaced by a random one."""
    parts = [draw(st.sampled_from(["", "-"]))]
    for k in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(_LAID_FACTOR, min_size=1, max_size=3))
        if k:
            parts.append(draw(st.sampled_from([" + ", " - "])))
        parts.append("*".join(factors))
    if not draw(st.integers(0, 3)):
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_PIECES)
    return "".join(parts)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.lists(_PIECES, max_size=14).map("".join), _shaped(), _laid_out()))
# a variable twice in a term, a width set by a term that cancels, a sign alone
@example("x*x^2 - x^3 + y^0*y")
@example("0*x^200 + 2*y - 2*y")
@example("x + -y")
def test_parse_agrees_with_the_token_walk(text):
    _agree(text, T)


#: spellings outside serialize()'s layout that the grammar walk reads
_WALK_READS = ["+x", "x  + y", "x +y", "2 * x", " x\t- y\n"]


@pytest.mark.parametrize("text", _WALK_READS + [
    "a b", "\u00e9^2", "x + -y", "3/0*x", "x^", "x^-1", "x^2^3", "1/2/3", "--x", "x - - y",
    "", "-", "x + ", "2x", "x*", "*x", "x**2"])
def test_the_layout_reader_leaves_other_spellings_to_the_walk(text):
    # a name outside the grammar that the table holds, a sign or a space out
    # of place, a zero denominator, a dangling or doubled operator
    table = VarTable(["x", "y", "a b", "\u00e9"], [1, 1, 1, 1])
    assert _read_serialized(text, table) is None
    if text in _WALK_READS:
        assert _walk(text, table)
    else:
        with pytest.raises(ParseError):
            _walk(text, table)


def test_a_digit_run_past_ints_limit_is_left_to_the_walk():
    for text in ("9" * 5000 + "*x", "x^" + "9" * 5000, "y - 1/" + "7" * 5000):
        try:
            want = _walk(text, T)
        except ValueError:  # past the interpreter's limit on the digits int reads
            assert _read_serialized(text, T) is None
        else:
            assert _store(_read_serialized(text, T)) == _store(want)


@pytest.mark.parametrize("name,n", [("appendix0", 8), ("appendix1", 6), ("appendix2", 7)])
def test_parse_agrees_with_the_token_walk_on_golden_bodies(name, n):
    from rdpinv.envres import pipeline_table

    text = resources.files("rdpinv").joinpath(f"golden/{name}.txt").read_text()
    bodies = [line.split(":=", 1)[1] for line in text.splitlines()
              if ":=" in line and not line.startswith("#")]
    assert len(bodies) == {8: 3, 6: 6, 7: 7}[n]
    for body in bodies:
        _agree(body, pipeline_table(n))
        assert _read_serialized(body, pipeline_table(n))


def test_parse_agrees_with_the_token_walk_on_a_classifier_battery():
    table = VarTable(["X", "Y", "Z"], [1, 1, 1])
    X, Y, Z = (table.var(v) for v in "XYZ")
    rng = random.Random(11)
    for form in ("-X*Y + Z^5", "-X^2 - Y^2*Z + Z^4", "-X^2 + Y^3 - Z^5", "-X^2 - X*Z^2 + Y^3"):
        f = parse(form, table)
        for _ in range(4):
            change = {v: sum((Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) * w
                              for w in (X, Y, Z, X * Y, Z ** 2)), table.zero())
                      for v in "XYZ"}
            text = f.substitute(change, max_total_degree=10).serialize()
            _agree(text, table)
            assert _read_serialized(text, table) is not None
            _agree(text.replace(" ", ""), table)
