import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rdpinv.classify import (
    COLUMNS,
    VERSAL_MONOMIALS,
    NotRDPError,
    RdpType,
    SectionBound,
    UndecidableError,
    ValuationProfile,
    _binary_cubic_shape,
    _rank,
    _root,
    _split_off_square,
    _square_to_split,
    length_type,
    rdp_type,
    section_type,
)
from rdpinv.congruence import KEY_CASES
from rdpinv.envres import versal_template
from rdpinv.poly import Polynomial, VarTable, parse

T = VarTable(["X", "Y", "Z"], [1, 1, 1])


def P(text):
    return parse(text, T)


NORMAL_FORMS = [
    ("-X*Y + Z^2", "A1"), ("-X*Y + Z^3", "A2"), ("-X*Y + Z^4", "A3"),
    ("-X*Y + Z^5", "A4"), ("-X*Y + Z^7", "A6"), ("-X*Y + Z^9", "A8"),
    ("-X^2 - Y^2*Z + Z^2", "A3"),  # the smallest D-shape falls in the A series
    ("-X^2 - Y^2*Z + Z^3", "D4"), ("-X^2 - Y^2*Z + Z^4", "D5"),
    ("-X^2 - Y^2*Z + Z^5", "D6"), ("-X^2 - Y^2*Z + Z^6", "D7"),
    ("-X^2 - Y^2*Z + Z^7", "D8"),
    ("-X*Y + Z^5", "A4"),                 # the E4 representative
    ("-X^2 - Y^2*Z + Z^4", "D5"),         # the E5 representative
    ("-X^2 - X*Z^2 + Y^3", "E6"),
    ("-X^2 - Y^3 + 16*Y*Z^3", "E7"),
    ("-X^2 + Y^3 - Z^5", "E8"),
    ("X*Y + Y*Z + Z*X", "A1"),            # quadratic parts with no square term
    ("-X*Y - Y*Z + Z^5", "A4"),
]


def random_linear_rules(rng):
    while True:
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        if det != 0:
            break
    return {v: sum((M[i][j] * T.var(w) for j, w in enumerate("XYZ")), T.zero())
            for i, v in enumerate("XYZ")}


@pytest.mark.parametrize("text,want", NORMAL_FORMS)
def test_normal_forms(text, want):
    assert rdp_type(P(text), jet_order=10).name == want


@pytest.mark.parametrize("text,want", NORMAL_FORMS)
def test_random_linear_changes(text, want):
    rng = random.Random(f"linear {text} {want}")
    base = P(text)
    for _ in range(5):
        moved = base.substitute(random_linear_rules(rng), max_total_degree=10)
        assert rdp_type(moved, jet_order=10).name == want


def random_triangular_rules(rng):
    """X -> X + a(Y, Z), Y -> Y + b(Z), with a and b of degrees 2 and 3."""
    X, Y, Z = (T.var(v) for v in "XYZ")
    a = sum((rng.randint(-2, 2) * m for m in (Y**2, Y*Z, Z**2, Y**3, Y**2*Z, Y*Z**2, Z**3)),
            T.zero())
    b = sum((rng.randint(-2, 2) * m for m in (Z**2, Z**3)), T.zero())
    return {"X": X + a, "Y": Y + b}


@pytest.mark.parametrize("text,want", NORMAL_FORMS)
def test_random_triangular_changes(text, want):
    rng = random.Random(f"triangular {text} {want}")
    base = P(text)
    for _ in range(3):
        moved = base.substitute(random_triangular_rules(rng), max_total_degree=10)
        moved = moved.substitute(random_linear_rules(rng), max_total_degree=10)
        assert rdp_type(moved, jet_order=10).name == want


@pytest.mark.parametrize("text,want", NORMAL_FORMS)
def test_short_jets_give_the_type_or_undecidable(text, want):
    # a jet too short to show the type must say so, never name another type
    rng = random.Random(f"jets {text} {want}")
    base = P(text)
    for f in (base, base.substitute(random_linear_rules(rng), max_total_degree=10)):
        for order in range(11):
            try:
                got = rdp_type(f, jet_order=order).name
            except UndecidableError:
                continue
            assert got == want, (order, f.serialize())


def linear_forms():
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.tuples(coeff, coeff).filter(lambda l: any(l))


def proportional(l, m):
    return l[0] * m[1] == l[1] * m[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["distinct", "double", "triple"]), linear_forms(), linear_forms(),
       linear_forms())
def test_binary_cubic_shape_of_products(shape, l1, l2, l3):
    Y, Z = T.var("Y"), T.var("Z")
    form = lambda l: l[0] * Y + l[1] * Z
    if shape == "distinct":
        assume(not (proportional(l1, l2) or proportional(l1, l3) or proportional(l2, l3)))
        cubic = form(l1) * form(l2) * form(l3)
    elif shape == "double":
        assume(not proportional(l1, l2))
        cubic = form(l1) ** 2 * form(l2)
    else:
        cubic = form(l1) ** 3
    got = _binary_cubic_shape(cubic, "Y", "Z")
    assert got[0] == shape
    if shape != "distinct":
        h = dict(got[1].items())
        hy, hz = (h.get(tuple(int(w == v) for w in T.names), 0) for v in "YZ")
        assert (hy, hz) != (0, 0) and len(h) == bool(hy) + bool(hz)
        assert proportional((hy, hz), l1)


# -- oracles: the shear loops that normalized squares and tails before the
# closed form of _root, kept as test-local copies to check it against


def lowered(m, i, k):
    """The exponent tuple ``m`` divided by the ``k``-th power of variable ``i``."""
    return m[:i] + (m[i] - k,) + m[i + 1:]


def exps(mono):
    return tuple(mono.get(v, 0) for v in T.names)


def shear(g, var, d, shift_for):
    """Formal shears ``var -> var + shift`` until no term asks for one.

    ``shift_for(m, c)`` maps a term, with ``m`` its exponent tuple, to the
    (exponent tuple, coefficient) it adds to the shift, or to None.
    """
    x = g.table.var(var)
    for passes in range(d + 1):
        shift = {}
        for m, c in g.items():
            s = shift_for(m, c)
            if s is not None:
                shift[s[0]] = s[1]
        if not shift:
            return g
        if passes == d:
            break
        g = g.substitute({var: x + Polynomial.from_items(g.table, shift)}, max_total_degree=d)
    raise RuntimeError(f"shear in {var} still asks for a shift after {d} passes")


def sheared_square(p, var, d):
    """The split by square completion: shear var by minus (each var-term
    other than a*var^2) / (2a*var) until none is left, then drop var."""
    vi = T.index_of(var)
    square = exps({var: 2})
    a = dict(p.items())[square]

    def complete_square(m, c):
        if m != square and m[vi]:
            return lowered(m, vi, 1), Fraction(c, -2 * a)

    return shear(p, var, d, complete_square).coeffs_in(var).get(0, T.zero())


def absorb(keep, scale):
    """Shift rule absorbing each Y^a Z^b with a >= 2, except ``keep``, into the cubic."""
    yi = T.index_of("Y")

    def rule(m, c):
        if m != keep and m[yi] >= 2:
            return lowered(m, yi, 2), -Fraction(c) / scale

    return rule


def sheared_tail_D(g, c3, d):
    """Normalize g = c3*Y^2*Z + higher by shears; the order of the pure-Z tail."""
    yi, zi = T.index_of("Y"), T.index_of("Z")

    def kill_linear(m, c):
        if m[yi] == 1:
            assert m[zi] >= 2, "low-order mixed term in the reduced tail"
            return exps({"Z": m[zi] - 1}), Fraction(-c, 2) / c3

    g = shear(g, "Z", d, absorb(exps({"Y": 2, "Z": 1}), c3))
    g = shear(g, "Y", d, kill_linear)
    return g.coeffs_in("Y").get(0, T.zero()).order()


def sheared_tail_E(g, c3, d):
    """Normalize g = c3*Y^3 + Y*B(Z) + C(Z) by shears; (ord B, ord C)."""
    g = shear(g, "Y", d, absorb(exps({"Y": 3}), 3 * c3))
    tail = g.coeffs_in("Y")
    return tuple(tail.get(e, T.zero()).order() for e in (1, 0))


@st.composite
def square_jets(draw):
    """A jet of order d >= 2 with quadratic part a*var^2 + var*(linear form) + rest.

    With var = Y, X is absent, as at the second split of the rank-two case.
    """
    d = draw(st.integers(2, 10))
    var = draw(st.sampled_from(["X", "Y"]))
    free = [v for v in T.names if var == "X" or v != "X"]
    exps = st.tuples(*(st.integers(0, min(5, d)) if v in free else st.just(0) for v in T.names))
    square = tuple(2 if v == var else 0 for v in T.names)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    terms = draw(st.dictionaries(exps.filter(lambda m: 2 <= sum(m) <= d and m != square),
                                 coeff, max_size=8))
    for w in free:
        if w != var:  # the mixed quadratic term var*w
            terms[tuple(int(v in (var, w)) for v in T.names)] = draw(coeff)
    terms[square] = draw(st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2)]))
    return Polynomial.from_items(T, terms), var, d


@settings(max_examples=300, deadline=None)
@given(square_jets())
def test_split_off_square_matches_square_completion(jet):
    p, var, d = jet
    (got, _), want = _split_off_square(p, var, d), sheared_square(p, var, d)
    assert got.table is want.table
    assert got.serialize() == want.serialize(), (p.serialize(), var, d)


@settings(max_examples=150, deadline=None)
@given(square_jets(), st.data())
def test_a_split_to_degree_d_is_the_deeper_split_truncated(jet, data):
    # what lets a tail that shows by degree 5 stop at the first rung
    p, var, _ = jet
    d = data.draw(st.integers(3, 12))
    j = data.draw(st.integers(d, 12))
    (low, _), (high, _) = _split_off_square(p, var, d), _split_off_square(p, var, j)
    assert low == high.truncate(d), (p.serialize(), var, d, j)


@settings(max_examples=150, deadline=None)
@given(square_jets(), st.data())
def test_a_resumed_square_root_is_the_fresh_one(jet, data):
    # started from the root of the degree-d jet, exact to degree d // 2
    p, var, _ = jet
    d = data.draw(st.integers(2, 12))
    j = data.draw(st.integers(d, 12))
    lead = T.const(2 * dict(p.items())[tuple(2 * (v == var) for v in T.names)])
    start = _root(p.truncate(d), var, lead, d)
    assert _root(p, var, lead, j, (start, d)) == _root(p, var, lead, j), (p.serialize(), d, j)


def test_split_off_square_needs_the_square():
    with pytest.raises(ValueError, match="pure square"):
        _split_off_square(P("X*Y + Y^2 + Z^3"), "X", 6)


@st.composite
def straightened_tails(draw):
    """A jet in Y, Z as the tails reach it, once the square is split off and
    the cubic straightened: c*Y^2*Z + a*Y^3 (a possibly 0) for the D branch,
    c*Y^3 for the E branch, plus terms of degree 4..d."""
    branch = draw(st.sampled_from(["D", "E"]))
    d = draw(st.integers(3 if branch == "D" else 5, 10))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    yz = st.tuples(st.just(0), st.integers(0, d), st.integers(0, d))
    terms = draw(st.dictionaries(yz.filter(lambda m: 4 <= sum(m) <= d), coeff, max_size=8))
    c3 = draw(st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2)]))
    if branch == "D":
        terms[exps({"Y": 2, "Z": 1})] = c3
        terms[exps({"Y": 3})] = draw(st.one_of(st.just(0), coeff))
    else:
        terms[exps({"Y": 3})] = c3
    return branch, Polynomial.from_items(T, {m: c for m, c in terms.items() if c}), c3, d


def e_decision(ord_b, ord_c):
    """The type rdp_type decides on an E tail with these orders of its
    y^1 and y^0 coefficients, or None when it is no rational double point."""
    if ord_c == 4:
        return "E6"
    if ord_b == 3:
        return "E7"
    if ord_c == 5:
        return "E8"
    return None


@settings(max_examples=300, deadline=None)
@given(straightened_tails())
# ord C is None unshifted and 5 sheared; ord B = 3 decides E7 either way
@example(("E", P("Y^3 + Y^2*Z^2 + Y*Z^3"), 1, 5))
def test_tail_roots_match_the_sheared_normal_forms(jet):
    branch, g, c3, d = jet
    if branch == "E":
        # rdp_type reads the orders off the unsplit tail; they may differ
        # from the sheared ones, the decision may not
        try:
            got = rdp_type(P("-X^2") + g, jet_order=d).name
        except NotRDPError:
            got = None
        want = e_decision(*sheared_tail_E(g, Fraction(c3), d))
        assert got == want, (g.serialize(), d)
        return
    phi = _root(g, "Y", 2 * c3 * T.var("Z"), d)
    assert not phi.contains_var("Y")
    # phi is right to degree d // 2; a lead with a variable lifts the error once more
    derivative = g.derivative_along({"Y": 1})
    assert derivative.substitute({"Y": phi}, max_total_degree=d // 2 + 1).is_zero, (g.serialize(), d)
    # the y^0 coefficient of g(y + phi) is g(phi)
    got = g.substitute({"Y": phi}, max_total_degree=d).order()
    assert got == sheared_tail_D(g, Fraction(c3), d), (g.serialize(), d)


@settings(max_examples=150, deadline=None)
@given(straightened_tails(), st.data())
def test_a_resumed_d_tail_root_is_the_fresh_one(jet, data):
    branch, g, c3, _ = jet
    assume(branch == "D")
    d = data.draw(st.integers(3, 12))
    j = data.draw(st.integers(d, 12))
    lead = 2 * c3 * T.var("Z")
    start = _root(g.truncate(d), "Y", lead, d)
    assert _root(g, "Y", lead, j, (start, d)) == _root(g, "Y", lead, j), (g.serialize(), d, j)


def test_a_d_tail_root_divides_by_its_variable():
    # Y^2*Z + 2*Y*Z^3 + Z^5 = Z*(Y + Z^2)^2: at d = 5, phi = -Z^2 has degree
    # d // 2 and leaves no tail; with Z^7 added, the tail is exactly that
    g = P("Y^2*Z + 2*Y*Z^3 + Z^5")
    assert _root(g, "Y", 2 * T.var("Z"), 5) == P("-Z^2")
    with pytest.raises(UndecidableError, match="pure tail"):
        rdp_type(P("-X^2") + g, jet_order=5)
    assert rdp_type(P("-X^2 + Z^7") + g, jet_order=7).name == "D8"


def test_a_d_tail_root_with_a_remainder_raises():
    # the y-derivative 2*Y*Z + 1 leaves the constant 1, which Z does not divide
    with pytest.raises(ValueError, match="remainder"):
        _root(P("Y^2*Z + Y"), "Y", 2 * T.var("Z"), 4)


def matrix_rank(rows):
    """The rank of a rational matrix, by Gaussian elimination."""
    rows, rank = [list(map(Fraction, r)) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            r[:] = [x - r[col] / pivot[col] * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=6,
                max_size=6))
# x^2 + y^2 + z^2 + 2xy - 2xz + 2yz: rank 3, every 2 x 2 principal minor zero
@example([1, 1, 1, 2, -2, 2])
@example([0, 0, 0, 1, 0, 0])
def test_rank_of_the_quadratic_part(coeffs):
    # the coefficients of X^2, Y^2, Z^2, X*Y, X*Z, Y*Z
    xx, yy, zz, xy, xz, yz = coeffs
    q = Polynomial.from_items(T, {(2, 0, 0): xx, (0, 2, 0): yy, (0, 0, 2): zz,
                                  (1, 1, 0): xy, (1, 0, 1): xz, (0, 1, 1): yz})
    half = Fraction(1, 2)
    matrix = [[xx, half * xy, half * xz], [half * xy, yy, half * yz], [half * xz, half * yz, zz]]
    assert _rank(q, list(T.names)) == matrix_rank(matrix)


# -- how deep each branch reads the jet: the bound of every substitution
# rdp_type makes


@pytest.fixture
def bounds(monkeypatch):
    """The ``max_total_degree`` of each ``Polynomial.substitute`` call from here on."""
    seen = []
    substitute = Polynomial.substitute

    def counted(self, rules, max_total_degree=None):
        seen.append(max_total_degree)
        return substitute(self, rules, max_total_degree)

    monkeypatch.setattr(Polynomial, "substitute", counted)
    return seen


def moved_forms(text):
    """The normal form, five seeded linear moves of it and three triangular ones."""
    rng = random.Random(f"depth {text}")
    base = P(text)
    moves = [base.substitute(random_linear_rules(rng), max_total_degree=10) for _ in range(5)]
    for _ in range(3):
        moved = base.substitute(random_triangular_rules(rng), max_total_degree=10)
        moves.append(moved.substitute(random_linear_rules(rng), max_total_degree=10))
    return [base, *moves]


def test_a1_needs_no_substitution(bounds):
    # rank 3 is A1 by the Morse lemma, however the quadratic part looks
    for f in [P("X*Y + Y*Z + Z*X")] + moved_forms("-X*Y + Z^2"):
        bounds.clear()
        assert rdp_type(f, jet_order=10).name == "A1"
        assert bounds == [], f.serialize()


def test_d4_reads_no_degree_above_3(bounds):
    for f in moved_forms("-X^2 - Y^2*Z + Z^3"):
        bounds.clear()
        assert rdp_type(f, jet_order=10).name == "D4"
        assert bounds and all(b is not None and b <= 3 for b in bounds), (f.serialize(), bounds)


@pytest.mark.parametrize("text,want", [(t, w) for t, w in NORMAL_FORMS if w[0] == "E"])
def test_e_types_read_no_degree_above_5(text, want, bounds):
    for f in moved_forms(text):
        assert rdp_type(f, jet_order=5).name == want, f.serialize()
        bounds.clear()
        assert rdp_type(f, jet_order=10).name == want, f.serialize()
        assert bounds and all(b is not None and b <= 5 for b in bounds), (f.serialize(), bounds)


@pytest.mark.parametrize("text,want", [
    ("-X*Y + Z^3", "A2"), ("-X*Y + Z^4", "A3"), ("-X*Y + Z^5", "A4"), ("-X*Y - Y*Z + Z^5", "A4"),
    ("-X^2 - Y^2*Z + Z^2", "A3"), ("-X^2 - Y^2*Z + Z^4", "D5"), ("-X^2 - Y^2*Z + Z^5", "D6")])
def test_tails_of_order_at_most_5_read_no_degree_above_5(text, want, bounds):
    # they show their tail on the first rung
    for f in moved_forms(text):
        bounds.clear()
        assert rdp_type(f, jet_order=10).name == want, f.serialize()
        assert bounds and all(b is not None and b <= 5 for b in bounds), (f.serialize(), bounds)


@pytest.mark.parametrize("text,want", [
    ("-X*Y + Z^6", "A5"), ("-X*Y + Z^7", "A6"), ("-X*Y + Z^8", "A7"), ("-X*Y + Z^9", "A8"),
    ("-X^2 - Y^2*Z + Z^6", "D7"), ("-X^2 - Y^2*Z + Z^7", "D8")])
def test_longer_tails_read_the_jet_order(text, want, bounds):
    # the tail vanishes through degree 5, so the second rung runs
    for f in moved_forms(text):
        bounds.clear()
        assert rdp_type(f, jet_order=10).name == want, f.serialize()
        assert None not in bounds and max(bounds) == 10, (f.serialize(), bounds)


@pytest.mark.parametrize("text,message", [
    ("X^2 + Y^2", "residual tail vanishes to jet order (jet order 10)"),
    ("-X^2 - Y^2*Z", "pure tail vanishes to jet order (jet order 10)")])
def test_a_tail_that_vanishes_on_both_rungs_is_undecidable(text, message):
    with pytest.raises(UndecidableError) as caught:
        rdp_type(P(text), jet_order=10)
    assert str(caught.value) == message


@st.composite
def quadratic_jets(draw):
    """A jet with a nonzero rational quadratic part, in X, Y, Z or in Y, Z only.

    Half the draws have no square term at all, only cross terms.
    """
    left = draw(st.sampled_from([["X", "Y", "Z"], ["Y", "Z"]]))
    exps = lambda *vs: tuple(map([*vs].count, T.names))
    squares = [exps(v, v) for v in left]
    crosses = [exps(u, v) for u, v in combinations(left, 2)]
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    maybe = st.one_of(st.just(0), coeff)
    no_squares = draw(st.booleans())
    terms = {m: draw(st.just(0) if no_squares else maybe) for m in squares}
    terms.update({m: draw(maybe) for m in crosses})
    assume(any(terms.values()))
    higher = st.tuples(*(st.integers(0, 3) if v in left else st.just(0) for v in T.names))
    terms.update(draw(st.dictionaries(higher.filter(lambda m: 3 <= sum(m) <= 6), coeff,
                                      max_size=5)))
    return Polynomial.from_items(T, {m: c for m, c in terms.items() if c}), left


@settings(max_examples=200, deadline=None)
@given(quadratic_jets())
def test_square_to_split_shows_a_square_by_an_invertible_change(jet):
    f, left = jet
    g, var = _square_to_split(f, f.degree_part(2), left)
    assert var in left
    assert dict(g.items()).get(tuple(2 * (v == var) for v in T.names)), (f.serialize(), var)
    if g != f:  # only a shear u -> u + v, undone by u -> u - v
        shear = lambda u, v, sign: {u: T.var(u) + sign * T.var(v)}
        pairs = [(u, v) for u, v in permutations(left, 2) if g == f.substitute(shear(u, v, 1))]
        assert pairs, (f.serialize(), g.serialize())
        assert all(g.substitute(shear(u, v, -1)) == f for u, v in pairs)


def determinacy_degree(name):
    """A jet of this order decides the type (Arnold): A_k k+1, D_k k-1, E6/E7 4, E8 5."""
    family, k = name[0], int(name[1:])
    return {"A": k + 1, "D": k - 1}.get(family) or {6: 4, 7: 4, 8: 5}[k]


@pytest.mark.parametrize("text,want", NORMAL_FORMS)
def test_terms_above_the_determinacy_degree_keep_the_type(text, want):
    rng = random.Random(f"determinacy {text} {want}")
    base = P(text)
    for _ in range(3):
        tail = {}
        for _ in range(4):
            degree = rng.randint(determinacy_degree(want) + 1, 10)
            tail[tuple(map(rng.choices(T.names, k=degree).count, T.names))] = rng.choice(
                [-3, -2, -1, 1, 2, 3])
        f = base + Polynomial.from_items(T, tail)
        moved = f.substitute(random_linear_rules(rng), max_total_degree=10)
        for g in (f, moved):
            assert rdp_type(g, jet_order=10).name == want, g.serialize()


def test_smooth_point():
    assert rdp_type(P("X + Y^2 + Z^5")).name == "A0"


def test_e7_branch_example():
    assert rdp_type(P("X^2 + Y^3 + Y*Z^3")).name == "E7"


def test_not_rdp_detected():
    with pytest.raises(NotRDPError):
        rdp_type(P("X^3 + Y^3 + Z^3"))  # multiplicity three
    with pytest.raises(NotRDPError):
        rdp_type(P("X^2 + Y^4 + Z^4"))  # no cubic after the square
    with pytest.raises(NotRDPError):
        rdp_type(P("X^2 + Y^3 + Z^7"))  # beyond the last exceptional type


def test_jet_too_short():
    with pytest.raises(UndecidableError):
        rdp_type(P("-X*Y + Z^9"), jet_order=6)
    with pytest.raises(UndecidableError):
        rdp_type(P("-X^2 - Y^2*Z + Z^7"), jet_order=5)


def test_origin_must_vanish():
    with pytest.raises(ValueError):
        rdp_type(P("1 + X"))


def test_length_type():
    names = [length_type(i).name for i in range(1, 7)]
    assert names == ["A1", "D4", "E6", "E7", "E8", "E8"]
    with pytest.raises(ValueError):
        length_type(7)


def test_section_examples():
    assert section_type(ValuationProfile("E7", {"eps12": 1})).column == "A1"
    assert section_type(ValuationProfile("E8", {"eps8": 1})).column == "E7"
    assert section_type(ValuationProfile("E6", {"eps12": 1})).column == "A0"
    assert section_type(ValuationProfile("E6", {})).column is None


def test_section_covers_the_key_cases():
    for case in KEY_CASES:
        profile = ValuationProfile(f"E{case.parent}", {case.target: case.degree})
        bound = section_type(profile)
        assert bound.column == case.section, (case.label, bound)


def test_section_a_and_d_rules():
    assert section_type(ValuationProfile("A5", {"alpha5": 1})).column == "A1"
    assert section_type(ValuationProfile("A5", {"alpha6": 2})).column == "A1"
    assert section_type(ValuationProfile("A5", {"alpha6": 3})).column is None
    assert section_type(ValuationProfile("D6", {"gamma6": 1})).column == "A1"
    assert section_type(ValuationProfile("D6", {"gamma6": 2})).column == "D4"
    assert section_type(ValuationProfile("D6", {"delta10": 3})).column == "D4"


def test_section_monotone_in_every_order():
    rng = random.Random(12)
    coords = {"E6": ["eps2", "eps5", "eps6", "eps8", "eps9", "eps12"],
              "E8": ["eps2", "eps8", "eps12", "eps14", "eps18", "eps20",
                     "eps24", "eps30"]}
    for tname, names in coords.items():
        for _ in range(40):
            orders = {nm: rng.randint(1, 5) for nm in rng.sample(names, 3)}
            before = section_type(ValuationProfile(tname, orders)).column
            bump = rng.choice(sorted(orders))
            orders2 = dict(orders)
            orders2[bump] += 1
            after = section_type(ValuationProfile(tname, orders2)).column
            rank = lambda c: COLUMNS.index(c) if c else len(COLUMNS)
            assert rank(after) >= rank(before), (tname, orders, bump)


def test_infinite_orders_contribute_nothing():
    profile = ValuationProfile("E8", {"eps30": float("inf"), "eps24": 3})
    assert section_type(profile).column == "E6"


@pytest.mark.parametrize("n", [6, 7, 8])
def test_versal_monomials_are_read_off_the_template(n):
    # the (Y, Z) exponents of the monomial that each eps multiplies
    template = versal_template(n)
    got = {}
    for exps, _ in template.items():
        powers = dict(zip(template.table.names, exps))
        eps = [v for v, e in powers.items() if e and v.startswith("eps")]
        if eps:
            (name,) = eps
            assert name not in got, name
            got[name] = (powers["Y"], powers["Z"])
    assert got == VERSAL_MONOMIALS[f"E{n}"]
