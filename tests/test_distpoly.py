from fractions import Fraction
from itertools import accumulate, combinations
from math import prod

import pytest
from conftest import written
from hypothesis import assume, example, given, settings, strategies as st

from rdpinv.distpoly import (
    NonSymmetricError,
    _dealings,
    _e_products,
    e45_check,
    elem_sym,
    elementary,
    f_dist,
    f_product,
    f_sform,
    g_dist,
    invariant_under_literal,
    invariant_under_split,
    monic,
    pq_split,
    rules_from_monic,
    s_to_t_rules,
    standard_coords,
    symmetric_reduce,
    t_expand,
    ts_table,
)
from rdpinv.poly import Polynomial, VarTable, parse
from rdpinv.rootsys import OrbitSums, Spec, reflection_blocks, weyl_action


def _store(p, n):
    """The plain polynomial p in t_1..t_n as a store of one-element blocks,
    each term its own representative."""
    names = tuple(f"t{i}" for i in range(1, n + 1))
    assert p.variables() <= set(names), p
    den, terms = p.numerators_over(names)
    return OrbitSums(p.table, names, (1,) * n, {e: a for e, (a,) in terms.items()}, den)


def test_degenerate_type_has_trivial_polynomial():
    d = f_dist(Spec("A", 1))
    U = d.f_t.table.var("U")
    assert d.f_t == U and d.f_s == U


def test_a1_sform_drops_the_linear_coefficient():
    d = f_dist(Spec("A", 2))
    table = d.f_s.table
    assert d.f_s == table.var("U") ** 2 + table.var("s2")


def test_d2_distinguished_polynomial():
    d = f_dist(Spec("D", 2))
    t = d.f_s.table
    assert d.f_s == t.var("U") ** 2 + t.var("s1") * t.var("U") + t.var("s2")


def test_forms_agree_under_symmetrization():
    for name in ("A3", "D4", "E5"):
        spec = Spec.from_name(name)
        d = f_dist(spec)
        subbed = d.f_s.substitute(s_to_t_rules(spec.n))
        if spec.family == "A":
            tt = d.f_t.table
            s1 = tt.zero()
            for i in range(1, spec.n + 1):
                s1 = s1 + tt.var(f"t{i}")
            last = f"t{spec.n}"
            reduce_rule = {last: tt.var(last) - s1}
            assert subbed.substitute(reduce_rule) == d.f_t.substitute(reduce_rule)
        else:
            assert subbed == d.f_t


def test_gamma_and_first_delta():
    gd = g_dist(2)
    table = ts_table(2)
    assert gd["gamma"] == table.var("s2")
    assert gd["delta2"] == table.var("s1") ** 2 - 2 * table.var("s2")
    for n in (3, 5, 8):
        assert g_dist(n)["gamma"] == ts_table(n).var(f"s{n}")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_second_polynomial_against_product_oracle(n):
    # oracle: expand prod(Z + t_i^2) directly, then rewrite symmetrically
    table = ts_table(n)
    Z = table.var("Z")
    prod = table.const(1)
    for i in range(1, n + 1):
        prod = prod * (Z + table.var(f"t{i}") ** 2)
    gd = g_dist(n)
    by_z = prod.coeffs_in("Z")
    for i in range(1, n):
        assert symmetric_reduce(_store(by_z[n - i], n), n) == gd[f"delta{2*i}"], (n, i)
    assert symmetric_reduce(_store(by_z[0], n), n) == gd["gamma"] ** 2


def test_even_odd_split_small_case():
    d = pq_split(2)
    table = d.P.table
    assert d.P == table.const(0) + table.var("s1")
    assert d.Q == -table.var("Z") + table.var("s2")


@pytest.mark.parametrize("n", range(2, 10))
def test_g_identity(n):
    d = pq_split(n)
    Z = d.g.table.var("Z")
    assert d.g == Z * d.P ** 2 + d.Q ** 2


@pytest.mark.parametrize("n", range(2, 10))
def test_division_structure(n):
    d = pq_split(n)
    table = d.f_s.table
    Z, U, sn = table.var("Z"), table.var("U"), table.var(f"s{n}")
    assert Z * d.S + sn == d.Q
    assert (Z + U ** 2) * d.G + d.f_s == U * d.P + d.Q
    assert max(d.G.coeffs_in("U")) == n - 2
    # homogenization in the direction pair is honestly polynomial
    uu, vv = d.G_hom.table.var("uu"), d.G_hom.table.var("vv")
    back = d.G_hom.substitute({"uu": table.var("U"), "vv": 1})
    assert back == d.G


def test_standard_coords_a_family():
    coords = standard_coords(Spec("A", 5))
    table = ts_table(5)
    assert list(coords) == ["alpha2", "alpha3", "alpha4", "alpha5"]
    assert coords["alpha3"] == table.var("s3")


def test_standard_coords_paper_values():
    e4 = standard_coords(Spec("E", 4))
    t4 = ts_table(4)
    assert e4["eps2"] == t4.var("s2") - Fraction(3, 5) * t4.var("s1") ** 2
    e5 = standard_coords(Spec("E", 5))
    t5 = ts_table(5)
    assert e5["eps2"] == -2 * t5.var("s2") + Fraction(5, 4) * t5.var("s1") ** 2
    e3 = standard_coords(Spec("E", 3))
    t3 = ts_table(3)
    assert e3["eps2_1"] == t3.var("s1") ** 2
    assert e3["eps2_2"] == t3.var("s2")


def test_standard_coords_derived_once_and_returned_fresh(monkeypatch):
    import rdpinv.distpoly as distpoly
    first = standard_coords(Spec("E", 5))
    first.clear()

    def no_parse(*args):
        raise AssertionError("E5 coordinates parsed again")

    monkeypatch.setattr(distpoly, "parse", no_parse)
    again = standard_coords(Spec("E", 5))
    assert list(again) == ["eps2", "eps4", "eps5", "eps6", "eps8"]
    assert again is not standard_coords(Spec("E", 5))


def test_large_types_are_rejected_here():
    with pytest.raises(ValueError):
        standard_coords(Spec("E", 6))


def test_d2_constant_terms():
    # the constant terms of the two A1 constituents of D2: -(delta2 -+ 2*gamma2)/4
    coords = standard_coords(Spec("D", 2))
    delta2, gamma2 = coords["delta2"], coords["gamma2"]
    minus, plus = (Fraction(-1, 4) * (delta2 - 2 * gamma2), Fraction(-1, 4) * (delta2 + 2 * gamma2))
    table = ts_table(2)
    s1, s2 = table.var("s1"), table.var("s2")
    assert minus == Fraction(-1, 4) * (s1 ** 2 - 4 * s2)
    assert plus == Fraction(-1, 4) * s1 ** 2


def test_e45_rederivation():
    report = e45_check()
    assert report.ok, report.matches


def test_e45_collapses_on_the_traceless_slice():
    # with s1 = 0 the shifted identification is the plain product identity
    t4 = ts_table(4)
    U = t4.var("U")
    f_e4 = f_sform(Spec("E", 4), t4).substitute({"s1": 0})
    a4 = (U * f_e4)
    shifted = (U + Fraction(3, 5) * t4.var("s1")) \
        * f_sform(Spec("E", 4), t4).substitute({"U": U - Fraction(2, 5) * t4.var("s1")})
    assert shifted.substitute({"s1": 0}) == a4


def test_symmetric_reduce_round_trip():
    n = 4
    table = ts_table(n)
    q = parse("2*s1*s3 - 5*s4 + s2^2", table)
    expanded = q.substitute(s_to_t_rules(n))
    assert symmetric_reduce(_store(expanded, n), n) == q


def test_symmetric_reduce_rejects_non_symmetric():
    table = ts_table(3)
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(_store(table.var("t1") * table.var("t2") ** 2, 3), 3)


def test_all_small_coordinates_are_invariant_and_homogeneous():
    for name in ("A4", "A8", "D2", "D4", "D5", "E3", "E4", "E5"):
        spec = Spec.from_name(name)
        for cname, phi in standard_coords(spec).items():
            assert phi.homogeneous_weight() is not None
            assert invariant_under_split(spec, phi), (name, cname)


def test_literal_invariance_with_symmetric_reduction():
    for name in ("D4", "D5", "E3", "E4", "E5"):
        spec = Spec.from_name(name)
        generator = spec.n if spec.family == "D" else 0
        for cname, phi in standard_coords(spec).items():
            assert invariant_under_literal(spec, phi, generator, reduce_back=True), \
                (name, cname)


def test_split_invariance_matches_literal_on_d6():
    spec = Spec.from_name("D6")
    coords = standard_coords(spec)
    for cname, phi in coords.items():
        lit = invariant_under_literal(spec, phi, 6, reduce_back=False)
        spl = invariant_under_split(spec, phi)
        assert lit and spl, cname


def test_non_invariant_detected():
    spec = Spec("D", 3)
    table = ts_table(3)
    assert not invariant_under_split(spec, table.var("s1"))
    assert not invariant_under_literal(spec, table.var("s1"), 3)


def test_t_expand_matches_elementary_symmetric():
    table = ts_table(3)
    out = t_expand(table.var("s2"), 3)
    ts = [table.var(f"t{i}") for i in (1, 2, 3)]
    assert written(out) == elem_sym(ts, 2)


def test_elem_sym_degree_bounds():
    ts = [ts_table(3).var(f"t{i}") for i in (1, 2, 3)]
    assert elem_sym(ts, 0) == 1
    assert elem_sym(ts, 4).is_zero
    with pytest.raises(ValueError):
        elem_sym(ts, -1)


def test_one_recurrence_gives_every_elementary_symmetric_function():
    for n in range(1, 10):
        ts = [ts_table(n).var(f"t{i}") for i in range(1, n + 1)]
        es = elementary(ts)
        assert len(es) == n + 1
        for j, e in enumerate(es):
            by_subsets = sum((prod(c) for c in combinations(ts, j)), ts[0].table.zero())
            assert e == by_subsets == elem_sym(ts, j), (n, j)


def test_s_to_t_rules_on_another_table():
    n = 5
    other = VarTable(["x"] + [f"t{i}" for i in range(n, 0, -1)], [3] + [1] * n)
    rules = s_to_t_rules(n, other)
    assert rules == s_to_t_rules(n)
    assert all(r.table is other for r in rules.values())


@pytest.mark.parametrize("n, text", [
    (3, "s1^3 - 2*s1*s2 + 7/3*s3 + s2"),
    (4, "s4 - 1/2*s1*s3 + s2^2 + 3*s1^4 - s1"),
    (5, "s5*s1 - 2/5*s2*s3 + s1^5 + s4"),
    (6, "s6 - s1*s5 + 3/2*s2*s4 - s3^2 + s2^3 - 4*s1^2*s4 + s3"),
])
def test_symmetric_reduce_inverts_t_expand(n, text):
    phi = parse(text, ts_table(n))
    assert phi.homogeneous_weight() is None
    assert symmetric_reduce(t_expand(phi, n), n) == phi


def leading_term(p):
    """The graded-lex first ``(exps, c)`` of p, by weighted degree, then exponents."""
    w = p.table.weights
    return max(p.items(), key=lambda t: (sum(e * x for e, x in zip(t[0], w)), t[0]))


def division_oracle(p, n):
    """Symmetric reduction by leading-term division, as the module did it
    before the partition peel: divide the graded-lex leading term by the
    matching product of elementary symmetric functions until nothing is
    left; a leading monomial that is not dominant means not symmetric."""
    table = ts_table(n)
    p = p.to_table(table)
    extraneous = p.variables() - {f"t{i}" for i in range(1, n + 1)}
    if extraneous:
        raise ValueError(f"input involves non-t variables {sorted(extraneous)}")
    tpos = [table.index_of(f"t{i}") for i in range(1, n + 1)]
    elems = elementary([table.var(f"t{i}") for i in range(1, n + 1)])
    out = table.zero()
    work = p
    while not work.is_zero:
        mono, coeff = leading_term(work)
        exps = [mono[i] for i in tpos]
        if any(exps[i] < exps[i + 1] for i in range(n - 1)):
            raise NonSymmetricError(f"leading monomial {exps} is not dominant")
        s_term = table.const(coeff)
        e_term = table.const(coeff)
        for j, d in enumerate(exps[i] - (exps[i + 1] if i + 1 < n else 0) for i in range(n)):
            if d:
                s_term = s_term * table.var(f"s{j + 1}") ** d
                e_term = e_term * elems[j + 1] ** d
        out = out + s_term
        work = work - e_term
    return out


coefficients = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def s_polys(draw, min_n=1, max_weight=7, max_n=7):
    """(n, phi): a random sum of c_d * s^d over s_1..s_n of weight <= max_weight,
    inhomogeneous in general; the empty sum and constants included."""
    n = draw(st.integers(min_n, max_n))
    items = {}
    for _ in range(draw(st.integers(0, 4))):
        budget = draw(st.integers(0, max_weight))
        d = [0] * n
        for j in range(n, 0, -1):
            d[j - 1] = draw(st.integers(0, budget // j))
            budget -= j * d[j - 1]
        items[(0,) * (n + 2) + tuple(d)] = draw(coefficients)
    return n, Polynomial.from_items(ts_table(n), items)


@settings(max_examples=100, deadline=None)
@given(s_polys())
@example((1, ts_table(1).zero()))
@example((4, ts_table(4).const(Fraction(-2, 3))))
def test_symmetric_reduce_round_trips_random_s_polynomials(case):
    n, phi = case
    assert symmetric_reduce(t_expand(phi, n), n).serialize() == phi.serialize()


@settings(max_examples=100, deadline=None)
@given(s_polys(max_n=8))
@example((1, ts_table(1).zero()))
@example((8, ts_table(8).const(Fraction(-5, 2))))
@example((8, parse("s8 - 1/3*s1*s7 + 2/7*s4^2 + s1", ts_table(8))))
def test_t_expand_matches_the_substitution_oracle(case):
    n, phi = case
    oracle = phi.compact().substitute(s_to_t_rules(n))
    store = t_expand(phi, n)
    assert type(store) is OrbitSums and store.blocks == (n,) and store.table is ts_table(n)
    pt = written(store)
    assert dict(pt.items()) == dict(oracle.to_table(ts_table(n)).items())
    assert pt.serialize() == oracle.serialize()


@pytest.mark.parametrize("name", ["U", "Z", "t1", "s7"])
def test_t_expand_rejects_non_s_variables(name):
    table = ts_table(6).merged(VarTable(["s7"], [7]))
    with pytest.raises(ValueError, match="non-s variables"):
        t_expand(table.var(name) * table.var("s2") + table.var("s1"), 6)


def _expanded(phi, n):
    """phi in the t's, on ts_table(n), whose exponent tuples read U, Z, t, s."""
    return written(t_expand(phi, n)).to_table(ts_table(n))


def _unequal_terms(p, n):
    """The terms of p whose t-exponents are not all equal (orbits of size > 1)."""
    return sorted(exps for exps, _ in p.items() if len(set(exps[2:n + 2])) > 1)


def _outcome(reduce, p, n):
    try:
        return reduce(p, n).serialize()
    except NonSymmetricError:
        return NonSymmetricError


@settings(max_examples=150, deadline=None)
@given(s_polys(max_weight=5), st.data())
def test_symmetric_reduce_agrees_with_division_oracle(case, data):
    n, phi = case
    p = _expanded(phi, n)
    for _ in range(data.draw(st.integers(0, 2))):
        mono = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        p = p + Polynomial.from_items(p.table, {(0, 0) + mono + (0,) * n: data.draw(coefficients)})
    assert _outcome(symmetric_reduce, _store(p, n), n) == _outcome(division_oracle, p, n)


@settings(max_examples=40, deadline=None)
@given(s_polys(min_n=2), st.data())
def test_symmetric_reduce_rejects_a_changed_coefficient(case, data):
    n, phi = case
    p = _expanded(phi, n)
    movable = _unequal_terms(p, n)
    assume(movable)
    terms = dict(p.items())
    terms[data.draw(st.sampled_from(movable))] += data.draw(coefficients.filter(bool))
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(_store(Polynomial.from_items(p.table, terms), n), n)


@settings(max_examples=40, deadline=None)
@given(s_polys(min_n=2), st.data())
def test_symmetric_reduce_rejects_a_dropped_term(case, data):
    n, phi = case
    p = _expanded(phi, n)
    movable = _unequal_terms(p, n)
    assume(movable)
    terms = dict(p.items())
    del terms[data.draw(st.sampled_from(movable))]
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(_store(Polynomial.from_items(p.table, terms), n), n)


@settings(max_examples=40, deadline=None)
@given(s_polys(min_n=2), st.data())
def test_symmetric_reduce_rejects_an_added_term(case, data):
    n, phi = case
    p = _expanded(phi, n)
    mono = data.draw(st.tuples(*[st.integers(0, 4)] * n).filter(lambda m: len(set(m)) > 1))
    key = (0, 0) + mono + (0,) * n
    terms = dict(p.items())
    terms[key] = terms.get(key, 0) + 1
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(_store(Polynomial.from_items(p.table, terms), n), n)


@settings(max_examples=100, deadline=None)
@given(st.lists(s_polys(min_n=4, max_n=4), max_size=6))
def test_rules_from_monic_inverts_monic(cases):
    cs = [phi for _, phi in cases]
    rules = rules_from_monic(monic(ts_table(4).var("U"), cs), len(cs))
    assert [name for name, _ in rules.rules] == [f"s{i}" for i in range(1, len(cs) + 1)]
    assert [v.serialize() for _, v in rules.rules] == [c.serialize() for c in cs]


@pytest.mark.parametrize("name", ["U", "s1", "t7"])
def test_symmetric_reduce_rejects_non_t_variables(name):
    # a store whose names hold another variable in place of t6
    table = ts_table(6).merged(VarTable(["t7"], [1]))
    names = [f"t{i}" for i in range(1, 6)] + [name]
    with pytest.raises(ValueError, match="not over") as info:
        symmetric_reduce(OrbitSums.of(table, names, (6,), {(1, 0, 0, 0, 0, 0): 1}), 6)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("m, n, order", [(5, 6, None), (6, 5, None),
                                         (6, 6, (6, 5, 4, 3, 2, 1)), (6, 6, (1, 2, 3, 5, 4, 6))])
def test_symmetric_reduce_rejects_a_store_over_other_names(m, n, order):
    # a symmetric store over t_1..t_m, reduced with another n, or relabelled
    # so that its t's come in another order
    phi = parse("s1^2 - 2*s2 + s3", ts_table(m))
    store = t_expand(phi, m)
    assert symmetric_reduce(store, m) == phi
    names = tuple(f"t{i}" for i in order) if order else store.names
    moved = OrbitSums(store.table, names, store.blocks, store.numerators, store.den)
    with pytest.raises(ValueError, match="not over"):
        symmetric_reduce(moved, n)


def test_symmetric_reduce_in_one_variable():
    t1 = ts_table(1).var("t1")
    assert symmetric_reduce(_store(t1 ** 3, 1), 1).serialize() == "s1^3"


def test_product_table_is_unchanged_by_calls_that_raise():
    # one table of e-products per n lives across calls, so a call that
    # raises must leave what the next expansion and reduction read intact
    n = 4
    table = ts_table(n)
    phi = parse("s1^3*s2 - 2*s1*s4 + 1/3*s2^2 + s3", table)
    t1, t2 = table.var("t1"), table.var("t2")
    _e_products.cache_clear()
    expanded = t_expand(phi, n)
    reduced = symmetric_reduce(expanded, n)
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(_store(written(expanded) + t1 ** 5 * t2, n), n)
    with pytest.raises(ValueError, match="non-s variables"):
        t_expand(phi + table.var("U") * table.var("s4") ** 2, n)
    with pytest.raises(ValueError, match="not over"):
        symmetric_reduce(OrbitSums.of(table, ["t1", "t2", "t3", "U"], (4,), {(6, 1, 0, 0): 1}), n)
    assert t_expand(phi, n) == expanded
    assert written(expanded) == phi.substitute(s_to_t_rules(n, table))
    assert symmetric_reduce(expanded, n) == reduced == phi
    assert _e_products(n) is _e_products(n)


def test_literal_e7_invariance_with_symmetric_reduction(pipe7):
    e7 = Spec("E", 7)
    rules = pipe7.versal_rules()
    for name in ("eps2", "eps6", "eps8", "eps10", "eps12", "eps14", "eps18"):
        assert invariant_under_literal(e7, rules[name], 0, reduce_back=True), name
    assert not invariant_under_literal(e7, ts_table(7).var("s1"), 0, reduce_back=True)


def test_literal_e8_invariance_with_symmetric_reduction(pipe8):
    e8 = Spec("E", 8)
    rules = pipe8.versal_rules()
    for name in ("eps2", "eps8", "eps12", "eps14", "eps18", "eps20"):
        assert invariant_under_literal(e8, rules[name], 0, reduce_back=True), name
    s1 = ts_table(8).var("s1")
    assert not invariant_under_literal(e8, s1, 0, reduce_back=True)
    # compacted: the pipeline's table carries a Z of another weight
    assert not invariant_under_literal(e8, rules["eps18"].compact() + s1 ** 18, 0, reduce_back=True)


# -- both literal modes, and the packed expansion and reduction -------------------


def _swap(spec, generator):
    """Whether the generator swaps two t's (the D sign change and the E
    generator 0 do not), so that it fixes every polynomial in the s's."""
    return generator != (spec.n if spec.family == "D" else 0)


def _literal_coords(name, request):
    spec = Spec.from_name(name)
    if name != "E6":
        return spec, standard_coords(spec)
    rules = request.getfixturevalue("pipe6").versal_rules()
    # compacted: the pipeline's table carries a Z of another weight
    return spec, {nm: rules[nm].compact() for nm in ("eps2", "eps5", "eps6", "eps8")}


def _both_modes(spec, phi, generator):
    reduced = invariant_under_literal(spec, phi, generator, reduce_back=True)
    compared = invariant_under_literal(spec, phi, generator, reduce_back=False)
    assert reduced == compared, (spec.name, phi, generator)
    return reduced


@pytest.mark.parametrize("name", ["D4", "D5", "E4", "E5", "E6"])
def test_both_literal_modes_agree_on_every_coordinate(name, request):
    spec, coords = _literal_coords(name, request)
    t = ts_table(spec.n)
    s1, s1s2 = t.var("s1"), t.var("s1") * t.var("s2")
    for generator in spec.generators():
        swap = _swap(spec, generator)
        assert _both_modes(spec, s1, generator) is swap
        for cname, phi in coords.items():
            assert _both_modes(spec, phi, generator), (cname, generator)
            assert _both_modes(spec, phi + s1s2, generator) is swap, (cname, generator)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["D4", "D5", "E4", "E5", "E6"]), st.data())
def test_both_literal_modes_agree_on_perturbed_coordinates(request, name, data):
    """A coordinate plus c times an s-monomial, c possibly zero: reducing the
    moved expansion back to s and comparing it with the unmoved one in the
    t's decide the same, exactly."""
    spec, coords = _literal_coords(name, request)
    phi = coords[data.draw(st.sampled_from(sorted(coords)))]
    generator = data.draw(st.sampled_from(spec.generators()))
    c = data.draw(coefficients)
    mono = data.draw(st.tuples(*[st.integers(0, 2)] * spec.n))
    q = phi + c * Polynomial.from_items(ts_table(spec.n), {(0,) * (spec.n + 2) + mono: 1})
    assert _both_modes(spec, q, generator) is (not c or _swap(spec, generator))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("text", ["s1^130", "2/3*s1^130 - 1/7*s2^64 + 5"])
def test_t_expand_and_reduce_with_wide_fields(n, text):
    # t-exponents from 128 up need 16-bit fields; the second text has denominators
    phi = parse(text.replace("s2", "s1") if n == 1 else text, ts_table(n))
    store = t_expand(phi, n)
    pt = written(store)
    oracle = phi.substitute(s_to_t_rules(n)).to_table(ts_table(n))
    assert pt == oracle and pt.serialize() == oracle.serialize()
    assert max(max(exps) for exps, _ in pt.items()) >= 128
    assert symmetric_reduce(store, n) == phi


@pytest.mark.parametrize("n", [1, 3, 6])
def test_t_expand_and_reduce_the_zero_polynomial(n):
    zero = ts_table(n).zero()
    store = t_expand(zero, n)
    assert store.numerators == {} and store.table is ts_table(n) and written(store).is_zero
    assert symmetric_reduce(store, n).is_zero and symmetric_reduce(_store(zero, n), n).is_zero


def _wide_expansion():
    """A symmetric input with 16-bit fields, a denominator, and orbits of
    sizes 1 and 2; it reduces to s1^129 + 1/3*s2^2."""
    return written(t_expand(parse("s1^129 + 1/3*s2^2", ts_table(2)), 2))


@pytest.mark.parametrize("change", ["coefficient", "dropped", "added"])
def test_symmetric_reduce_rejects_wide_non_symmetric_inputs(change):
    p = _wide_expansion()
    assert symmetric_reduce(_store(p, 2), 2) == parse("s1^129 + 1/3*s2^2", ts_table(2))
    terms = dict(p.items())
    moved = (0, 0, 100, 29, 0, 0)  # one of an orbit of two
    assert moved in terms
    if change == "coefficient":
        terms[moved] += Fraction(1, 3)
    elif change == "dropped":
        del terms[moved]
    else:
        terms[(0, 0, 130, 1, 0, 0)] = 1
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(_store(Polynomial.from_items(p.table, terms), 2), 2)


# -- the literal check on orbit sums of a Young subgroup ---------------------------


def _blockings(n):
    """Every way to cut t_1..t_n into blocks of consecutive t's."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for k in range(n) for cuts in combinations(range(1, n), k)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s_polys(min_n=2, max_n=6), st.data())
def test_t_expand_on_blocks_is_the_expansion_in_orbit_sums(case, data):
    n, phi = case
    blocks = data.draw(st.sampled_from(_blockings(n)))
    store = t_expand(phi, n, blocks)
    assert store.blocks == blocks and store.table is ts_table(n)
    assert written(store).serialize() == written(t_expand(phi, n)).serialize()
    assert symmetric_reduce(store, n).serialize() == phi.serialize()


@pytest.mark.parametrize("blocks", [(3, 1), (3, 4), (6, 0), (7,)])
def test_t_expand_rejects_blocks_that_do_not_split_the_ts(blocks):
    phi = parse("s1^2 + s2", ts_table(6))
    with pytest.raises(ValueError, match="do not split"):
        t_expand(phi, 6, blocks)


@pytest.mark.parametrize("name", ["D4", "D5", "E4", "E5"])
def test_literal_check_on_orbit_sums_matches_the_written_out_check(name):
    """Each closed-form coordinate, alone and plus s1*s2, and s1: the moved
    store, written out, is the substitution of the generator's rules into
    the whole t-expansion, and it reduces to the same s-polynomial."""
    spec = Spec.from_name(name)
    t = ts_table(spec.n)
    inputs = [t.var("s1")] + [q for phi in standard_coords(spec).values()
                              for q in (phi, phi + t.var("s1") * t.var("s2"))]
    for g in spec.generators():
        act = weyl_action(spec, g)
        for phi in inputs:
            moved = act.apply(t_expand(phi, spec.n, reflection_blocks(spec, g)))
            whole = act.apply(written(t_expand(phi, spec.n)))
            assert written(moved) == whole, (g, phi)
            assert _outcome(symmetric_reduce, moved, spec.n) == _outcome(
                symmetric_reduce, _store(whole, spec.n), spec.n), (g, phi)


@pytest.mark.parametrize("change", ["numerator", "dropped", "added"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=s_polys(min_n=3, max_n=6), data=st.data())
def test_symmetric_reduce_rejects_a_changed_store(change, case, data):
    """On a blocking that is neither one block nor all single t's, a store
    with one numerator changed, one representative dropped or one added,
    each in an S_n orbit of more than one representative, is not symmetric."""
    n, phi = case
    blocks = data.draw(st.sampled_from([b for b in _blockings(n) if 1 < len(b) < n]))
    store = t_expand(phi, n, blocks)
    assert symmetric_reduce(store, n) == phi
    several = lambda r: len(_dealings(tuple(sorted(r, reverse=True)), blocks)) > 1
    numerators = dict(store.numerators)
    if change == "added":
        mono = data.draw(st.tuples(*[st.integers(0, 4)] * n))
        at = list(accumulate((0,) + blocks))
        rep = tuple(x for a, b in zip(at, at[1:]) for x in sorted(mono[a:b], reverse=True))
        assume(rep not in numerators and several(rep))
        numerators[rep] = data.draw(st.integers(-5, 5).filter(bool))
    else:
        movable = sorted(r for r in numerators if several(r))
        assume(movable)
        rep = data.draw(st.sampled_from(movable))
        if change == "numerator":
            numerators[rep] += data.draw(st.integers(-5, 5).filter(bool))
        else:
            del numerators[rep]
    changed = OrbitSums.of(store.table, store.names, blocks, numerators, store.den)
    with pytest.raises(NonSymmetricError):
        symmetric_reduce(changed, n)
