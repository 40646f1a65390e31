from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from rdpinv import congruence
from rdpinv.congruence import (
    KEY_CASES,
    LAM_TABLE,
    RestrictionError,
    _fit,
    case_param,
    case_pullback_poly,
    case_restriction,
    coord_pullbacks,
    derive_restricted,
    dist_relation,
    key_case,
    key_constant,
    low_order_congruences,
    pullback_eps,
    scf_names,
    vanishing_coordinates,
)
from rdpinv.distpoly import elem_sym, standard_coords, ts_table
from rdpinv.poly import Polynomial, VarTable, parse
from rdpinv.rootsys import Spec, supported_splits, vertex_parts, vertex_split

ALL_SPECS = ["A2", "A3", "A4", "A5", "A6", "A7", "A8", "D2", "D3", "D4", "D5",
             "D6", "D7", "D8", "E3", "E4", "E5", "E6", "E7", "E8"]


def L(text):
    return parse(text, LAM_TABLE)


# -- relations at a vertex -------------------------------------------------------


def test_dist_relation_every_supported_pair():
    for name in ALL_SPECS:
        spec = Spec.from_name(name)
        for k in supported_splits(spec):
            assert dist_relation(spec, k).ok, (name, k)


def test_dist_relation_missing_factor_divides_exactly():
    # the k = 2 rows only make sense because one linear factor cancels
    for name in ("E5", "E6", "E7", "E8"):
        assert dist_relation(Spec.from_name(name), 2).ok


# -- low-order congruences --------------------------------------------------------


def test_low_order_congruences_a_and_d():
    for name in ("A4", "A5", "A6", "A7", "A8"):
        spec = Spec.from_name(name)
        for k in range(1, spec.n):
            assert all(low_order_congruences(spec, k).values()), (name, k)
    for name in ("D4", "D5", "D6", "D7", "D8"):
        spec = Spec.from_name(name)
        for k in list(range(1, spec.n - 1)) + [spec.n]:
            assert all(low_order_congruences(spec, k).values()), (name, k)


def test_a_case_against_t_level_oracle():
    # oracle: expand the split functionals directly and reduce mod the vertex
    spec, k = Spec("A", 5), 2
    vs = vertex_split(spec, k)
    sub = {v: p.substitute({"mu1": 0}) for v, p in vs.rules.rules}
    table = sub["t1"].table
    ts = [sub[f"t{i}"] for i in range(1, 6)]
    alpha5 = elem_sym(ts, 5)
    alpha4 = elem_sym(ts, 4)
    tp = [table.var(f"tp{i}") for i in (1, 2)]
    tq = [table.var(f"tq{i}") for i in (1, 2, 3)]
    assert alpha5 == elem_sym(tp, 2) * elem_sym(tq, 3)
    assert alpha4 == elem_sym(tp, 1) * elem_sym(tq, 3) + elem_sym(tp, 2) * elem_sym(tq, 2)


# -- restricted polynomials ---------------------------------------------------------


TABLE8 = {
    "D6": "U^6 - lam5*U",
    "D7": "U^7 + lam1*U^6 + 1/2*lam1^2*U^5 + lam3*U^4 + lam1*lam3*U^3 - 1/8*lam1^4*U^3"
          " + lam5*U^2 + lam1*lam5*U - 1/2*lam3*lam1^3*U + 1/16*lam1^6*U + 1/2*lam3^2*U",
    "E4": "U^4 + lam1*U^3 + 3/5*lam1^2*U^2 + 1/25*lam1^3*U + 11/125*lam1^4",
    "E5": "U^5 + lam1*U^4 + 5/8*lam1^2*U^3 + lam3*U^2 + 15/128*lam1^4*U - 1/2*lam1*lam3*U"
          " + 27/256*lam1^5 - 1/2*lam1^2*lam3",
    "E6": "U^6 + lam1*U^5 + 2/3*lam1^2*U^4 + lam3*U^3 + lam4*U^2 + 1/3*lam1*lam4*U"
          " - 1/3*lam3*lam1^2*U + 2/27*lam1^5*U + 5/18*lam1^2*lam4 - 1/9*lam3*lam1^3"
          " + 11/486*lam1^6 - 1/8*lam3^2",
    "E7": "U^7 + lam1*U^6 + 3/4*lam1^2*U^5 + lam3*U^4 + lam4*U^3 + lam5*U^2 - 1/8*lam3^2*U"
          " + 3/64*lam1^6*U - 3/16*lam3*lam1^3*U - 1/4*lam1*lam5*U + 3/8*lam1^2*lam4*U + lam7",
}


@pytest.mark.parametrize("name", sorted(TABLE8))
def test_restricted_polynomials_match_table(name, cache):
    rp = derive_restricted(Spec.from_name(name), cache=cache)
    assert rp.r == L(TABLE8[name]), name


def constant_pullback(rp):
    """The pulled-back constant term: the last standard coordinate."""
    return rp.pulls[scf_names(rp.spec)[-1]]


def test_restricted_constant_terms(cache):
    assert constant_pullback(derive_restricted(Spec.from_name("E4"))) == \
        L("243/3125*lam1^5")
    assert constant_pullback(derive_restricted(Spec.from_name("E5"))) == \
        L("2601/16384*lam1^8 + 9/4*lam3^2*lam1^2 - 153/128*lam1^5*lam3")
    assert constant_pullback(derive_restricted(Spec.from_name("D6"))) == L("lam5^2")
    d7 = derive_restricted(Spec.from_name("D7"))
    base = L("lam1*lam5 - 1/2*lam3*lam1^3 + 1/16*lam1^6 + 1/2*lam3^2")
    assert constant_pullback(d7) == base * base


def test_a_family_both_forms():
    plain = derive_restricted(Spec.from_name("A5"))
    assert plain.r == L("U^6 + lam6")
    assert constant_pullback(plain) == L("lam6")
    root = derive_restricted(Spec.from_name("A5"), form="root")
    assert root.r == L("U^6 - lam1^6")
    assert constant_pullback(root) == L("-lam1^6")


def test_restriction_annihilates_exactly_the_listed_coordinates(cache):
    for name in ("A6", "D6", "D7", "E4", "E5", "E6", "E7"):
        spec = Spec.from_name(name)
        rp = derive_restricted(spec, cache=cache)
        pulls = coord_pullbacks(spec, rp.s_rules, cache)
        max_w = 0
        for nm in rp.vanishing:
            assert pulls[nm].is_zero, (name, nm)
            max_w = max(max_w, int(standard_coords(spec)[nm].homogeneous_weight())
                        if spec.family != "E" or spec.n <= 5 else max_w)
        cname = scf_names(spec)[-1]
        assert pulls == rp.pulls, name
        assert not pulls[cname].is_zero, name
        for nm, val in pulls.items():
            if nm not in rp.vanishing and nm != cname:
                w = val.homogeneous_weight()
                if w is not None and w <= max_w:
                    assert not val.is_zero, (name, nm)


def test_each_restriction_pulls_back_at_most_twice(cache, monkeypatch):
    # once to set up the triangular system, once along the restriction
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return coord_pullbacks(*args, **kwargs)

    monkeypatch.setattr(congruence, "coord_pullbacks", counting)
    for name in ALL_SPECS + ["D10"]:
        for form in ("plain", "root"):
            calls.clear()
            try:
                derive_restricted(Spec.from_name(name), form=form, cache=cache)
            except RestrictionError:
                pass
            assert len(calls) <= 2, (name, form, calls)


@pytest.mark.parametrize("name, at", [("E4", "eps3"), ("E5", "eps4"), ("E6", "eps5")])
def test_restriction_out_of_weight_order_is_not_triangular(name, at, cache, monkeypatch):
    # solved in decreasing weight, the parameter solved first mentions the next
    listed = vanishing_coordinates
    monkeypatch.setattr(congruence, "vanishing_coordinates", lambda spec: listed(spec)[::-1])
    with pytest.raises(RestrictionError, match=f"^system is not triangular at {at}: "
                       "already occurs in the coefficient solved for lam") as info:
        derive_restricted(Spec.from_name(name), cache=cache)
    assert "\n" not in str(info.value)


def test_unsupported_restriction_rejected():
    # D5: no tabulated shape; A8, D10: no lam beyond lam8; E3, E8: no vanishing
    # set; A0: no coordinate at all
    for name, reason in (("D5", "no restricted polynomial"), ("A8", "no lam beyond lam8"),
                         ("D10", "no lam beyond lam8"), ("E3", "no vanishing set"),
                         ("E8", "no vanishing set"), ("A0", "no standard coordinate")):
        with pytest.raises(RestrictionError, match=reason) as info:
            derive_restricted(Spec.from_name(name))
        assert "\n" not in str(info.value), name


# -- case pullbacks ------------------------------------------------------------------


# the (left, right) parts of each row of the paper's key-computation table
PAPER_PARTS = {
    "E6:v0": ("A5", None), "E6:v4": ("E4", "A1"), "E6:v5": ("E5", "A0"),
    "E7:v0": ("A6", None), "E7:v1": ("D6", None), "E7:v2": ("A1", "A5"),
    "E7:v4": ("E4", "A2"), "E7:v5": ("E5", "A1"), "E7:v6": ("E6", "A0"),
    "E8:v0": ("A7", None), "E8:v1": ("D7", None), "E8:v2": ("A1", "A6"),
    "E8:v5": ("E5", "A2"), "E8:v6": ("E6", "A1"), "E8:v7": ("E7", "A0"),
}


def test_key_case_parts_match_the_paper_table():
    assert [case.label for case in KEY_CASES] == list(PAPER_PARTS)
    for case in KEY_CASES:
        left, right = vertex_parts(Spec("E", case.parent), case.k)
        assert (left.name, right and right.name) == PAPER_PARTS[case.label], case.label
        assert case.parts == {"left": left, "right": right}, case.label


def closed_form_pullback(case, cache):
    """The pulled-back distinguished polynomial from its closed form at each k."""
    n, k = case.parent, case.k
    U, lam1 = LAM_TABLE.var("U"), LAM_TABLE.var("lam1")
    if k == 0:
        return U ** n + LAM_TABLE.var(f"lam{n}")
    if k == 2:
        total = LAM_TABLE.zero()
        for i in range(n - 1):
            total = total + lam1 ** i * (U - Fraction(1, 3) * lam1) ** (n - 2 - i)
        return (U + Fraction(2, 3) * lam1) ** 2 * total
    r = derive_restricted(Spec.from_name(PAPER_PARTS[case.label][0]), cache=cache).r
    if k == 1:
        rho = r.coeffs_in("U").get(n - 2, LAM_TABLE.zero())
        return (-1) ** n * (-U + Fraction(1, 3) * rho) * r.substitute({"U": -U - Fraction(1, 6) * rho})
    return (U - Fraction(1, 9 - k) * lam1) ** (n - k) * r


@pytest.mark.parametrize("case", KEY_CASES, ids=lambda c: c.label)
def test_case_pullback_matches_the_closed_forms(case, cache):
    pf = case_pullback_poly(case, case_restriction(case, cache))
    assert pf.serialize() == closed_form_pullback(case, cache).serialize()


def test_vertex0_pullbacks():
    for n in (6, 7, 8):
        case = key_case(f"E{n}:v0")
        pf = case_pullback_poly(case, case_restriction(case, None))
        assert pf == L(f"U^{n} + lam{n}")


def test_e7_v1_pullback_shape():
    case = key_case("E7:v1")
    pf = case_pullback_poly(case, case_restriction(case, None))
    assert pf == L("U^7 + lam5*U^2")


def test_e8_v1_pullback_uses_the_odd_restriction(cache):
    case = key_case("E8:v1")
    pf = case_pullback_poly(case, case_restriction(case, cache))
    rp = derive_restricted(Spec.from_name("D7"), cache=cache)
    U = LAM_TABLE.var("U")
    lam1 = LAM_TABLE.var("lam1")
    head = -U + Fraction(1, 3) * lam1
    assert pf == head * rp.r.substitute({"U": -U - Fraction(1, 6) * lam1})


def test_displayed_delta8_pullback(cache):
    rp = derive_restricted(Spec.from_name("D7"), cache=cache)
    pulls = coord_pullbacks(Spec.from_name("D7"), rp.s_rules, cache, ["delta8"])
    assert pulls["delta8"] == L(
        "lam1^3*lam5 - 3/4*lam1^5*lam3 + 3/2*lam1^2*lam3^2 + 5/64*lam1^8 - 2*lam3*lam5")


def test_e7_v1_eps10_value(cache):
    case = key_case("E7:v1")
    eps = pullback_eps(case, case_restriction(case, cache), cache)
    assert eps == L("16*lam5^2")


def test_e8_v5_against_direct_substitution(cache, pipe8):
    # oracle: substitute the coefficient rules into the fully expanded value
    case = key_case("E8:v5")
    rp = case_restriction(case, cache)
    via_pullback = pullback_eps(case, rp, cache)
    param = case_param(case, rp)
    direct = pipe8.versal_rules()["eps8"].substitute(param.mapping())
    assert via_pullback == direct


def test_phi_pullback_right_side_uses_a_root(cache):
    case = key_case("E7:v2")
    assert key_constant(case, cache).phi_pullback == L("-lam1^6")


@pytest.mark.parametrize("case", KEY_CASES, ids=lambda c: c.label)
def test_key_constants(case, cache):
    res = key_constant(case, cache)
    assert res.ok, (case.label, res.computed, res.expected)


def test_scf_names_and_vanishing_sets():
    assert scf_names(Spec.from_name("D4")) == ["gamma4", "delta2", "delta4", "delta6"]
    assert vanishing_coordinates(Spec.from_name("E6")) == ("eps2", "eps5", "eps6")
    assert vanishing_coordinates(Spec.from_name("D6"))[0] == "gamma6"


def test_key_constant_derives_each_restriction_once(cache, monkeypatch):
    # and reads its terms from the restriction's pull-backs: the only other
    # pull-back is the parent's target
    calls, pulls = [], []

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return derive_restricted(*args, **kwargs)

    def counting_pulls(*args, **kwargs):
        pulls.append(args[0].name)
        return coord_pullbacks(*args, **kwargs)

    monkeypatch.setattr(congruence, "derive_restricted", counting)
    monkeypatch.setattr(congruence, "coord_pullbacks", counting_pulls)
    for case in KEY_CASES:
        calls.clear()
        pulls.clear()
        assert key_constant(case, cache).ok, case.label
        assert len(calls) == 1, (case.label, calls)
        assert len(pulls) <= 3 and pulls.count(f"E{case.parent}") == 1, (case.label, pulls)


# -- the exact fit of one row ------------------------------------------------------


TX = VarTable(["x", "y"], [1, 1])
TY = VarTable(["y", "z", "x"], [1, 1, 1])
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, table):
    exps = st.tuples(*(st.integers(0, 3) for _ in table.names))
    return Polynomial.from_items(table, draw(st.dictionaries(exps, COEFFS, max_size=5)))


def leading_term(p):
    """The graded-lex first ``(exps, c)`` of p, by weighted degree, then exponents."""
    w = p.table.weights
    return max(p.items(), key=lambda t: (sum(e * x for e, x in zip(t[0], w)), t[0]))


def constant_ratio(num, den):
    """The single-term solver that the fit replaced: compare leading terms, then check."""
    if den.is_zero:
        return None
    if num.is_zero:
        return Fraction(0)
    table = num.table.merged(den.table)
    (mn, cn), (md, cd) = leading_term(num.to_table(table)), leading_term(den.to_table(table))
    if mn != md:
        return None
    ratio = Fraction(cn) / Fraction(cd)
    return ratio if num == ratio * den else None


def as_fit(ratio):
    return None if ratio is None else (ratio,)


@given(polys(TX), COEFFS)
def test_fit_matches_the_ratio_on_a_proportional_pair(p, r):
    target = (r * p).to_table(TY)
    assert _fit(target, [p]) == as_fit(constant_ratio(target, p))
    assert _fit(target, [p]) == (None if p.is_zero else (r,))


@given(polys(TX), polys(TY))
def test_fit_matches_the_ratio_on_any_pair(num, den):
    assert _fit(num, [den]) == as_fit(constant_ratio(num, den))


def test_fit_of_a_zero_target_and_on_a_zero_basis():
    p = parse("x^2*y - 3*x", TX)
    assert _fit(TY.zero(), [p]) == (Fraction(0),) == as_fit(constant_ratio(TY.zero(), p))
    assert _fit(p, [TY.zero()]) is None and constant_ratio(p, TY.zero()) is None
    assert _fit(TX.zero(), [TY.zero()]) is None
    assert _fit(p, [parse("x^2*y", TY)]) is None  # not proportional


@given(polys(TX), polys(TY), COEFFS, COEFFS)
def test_fit_recovers_two_coefficients(A, B, c1, c2):
    assume(not A.is_zero and constant_ratio(B, A) is None)  # A, B independent
    assert _fit(c1 * A + c2 * B, [A, B]) == (c1, c2)
    # x^9 lies outside the span of A and B, whose exponents are at most 3
    assert _fit(c1 * A + c2 * B + TX.var("x", 9), [A, B]) is None


@given(polys(TX), COEFFS)
def test_fit_rejects_a_rank_deficient_basis(A, r):
    # the target lies in the span, so only the rank can reject it
    assert _fit(A, [A, (r * A).to_table(TY)]) is None
