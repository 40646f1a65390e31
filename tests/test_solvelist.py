import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rdpinv
from rdpinv import solvelist
from rdpinv.congruence import (
    LAM_TABLE,
    RestrictionError,
    coord_pullbacks,
    derive_restricted,
    scf_names,
    vanishing_coordinates,
)
from rdpinv.distpoly import monic, rules_from_monic, split_params_E
from rdpinv.envres import (
    eps_names,
    mu_inverse,
    mu_rules,
    phibar_template,
    pipeline_table,
)
from rdpinv.poly import AbsentVariableError, NonLinearError, Polynomial, VarTable, parse
from rdpinv.rootsys import Spec
from rdpinv.solvelist import RuleCache, RuleSet, SolveList, ValidityViolation, solve_in_order


def test_synthetic_solve_list():
    table = VarTable(["X", "Y", "a", "b", "c"], [1, 1, 0, 0, 0])
    template = table.var("a") * table.var("X") + (table.var("b") + 2 * table.var("c")) * table.var("Y")
    sl = SolveList.of(RuleSet.identity(), template, [({"X": 1}, "a"), ({"Y": 1}, "c")],
                      ("X", "Y"))
    rules = sl.expand()
    assert rules["a"].is_zero
    assert rules["c"] == table.var("b") * Fraction(-1, 2)


def test_validity_violation_reports_first_bad_pair():
    table = VarTable(["X", "Y", "a", "b"], [1, 1, 0, 0])
    # the unknown of the second pair has a non-constant coefficient
    template = table.var("a") * table.var("X") + table.var("a") * table.var("b") * table.var("Y")
    sl = SolveList.of(RuleSet.identity(), template, [({"X": 1}, "a"), ({"Y": 1}, "b")],
                      ("X", "Y"))
    with pytest.raises(ValidityViolation) as err:
        sl.expand()
    assert err.value.index == 1


def test_ordering_violation_detected():
    table = VarTable(["X", "Y", "a", "b"], [1, 1, 0, 0])
    # the second unknown already occurs in the first coefficient
    template = (table.var("a") + table.var("b")) * table.var("X") \
        + (table.var("b") + 1) * table.var("Y")
    sl = SolveList.of(RuleSet.identity(), template, [({"X": 1}, "a"), ({"Y": 1}, "b")],
                      ("X", "Y"))
    with pytest.raises(ValidityViolation) as err:
        sl.expand()
    assert err.value.index == 1 and err.value.variable == "b"


# -- the shared elimination ----------------------------------------------------


def _old_expand_loop(equations, unknowns):
    """The loop SolveList.expand ran before the shared elimination, with its
    reverse clean-up of late unknowns in earlier solutions; an oracle."""
    coeffs = list(equations)
    solved = []
    for i, var in enumerate(unknowns):
        try:
            value = coeffs[i].solve_linear(var)
        except (NonLinearError, AbsentVariableError) as exc:
            raise ValidityViolation(i, var, str(exc)) from exc
        for w, wval in solved:
            if wval.contains_var(var):
                raise ValidityViolation(i, var, f"already occurs in the coefficient solved for {w}")
        solved.append((var, value))
        for j in range(i + 1, len(coeffs)):
            if coeffs[j].contains_var(var):
                coeffs[j] = coeffs[j].substitute({var: value})
    for i in range(len(solved) - 2, -1, -1):
        var, value = solved[i]
        later = {w: wval for w, wval in solved[i + 1:] if value.contains_var(w)}
        if later:
            solved[i] = (var, value.substitute(later))
    return RuleSet(tuple(solved))


def _elimination_outcome(solve, equations, unknowns):
    try:
        return solve(equations, unknowns).to_json()
    except ValidityViolation as exc:
        return (exc.index, exc.variable, exc.reason)
    except KeyError as exc:  # an unknown missing from its equation's table
        return repr(exc)


_UNKNOWNS = ("u0", "u1", "u2", "u3")
_ELIM = VarTable(["p", "q", *_UNKNOWNS], [0] * 6)


#: coefficients of the affine systems, over the denominators 1 to 12
_ELIM_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12))
#: large exponents of p and q in an affine system: below the guard bit of an
#: 8-bit field, so that a product of 126 or 127 and a small one crosses it, or
#: past it as well
_ELIM_LARGE = [(126, 127), (126, 127, 128, 255)]


@st.composite
def _elimination_systems(draw, triangular=True, tables=False, affine=False):
    """Equations and their unknowns, in a drawn order.  Triangular: equation
    i is a nonzero constant times unknown i plus a polynomial in p, q and
    the earlier unknowns; otherwise any polynomial in p, q and all of them.
    Affine: triangular, with two to four more terms, each in at most one
    earlier unknown, to the first power, so that most solutions substituted
    have several terms.  With ``tables`` each equation lives on its own
    table: some of the variables in a drawn order, then the rest of those it
    uses."""
    unknowns = draw(st.permutations(_UNKNOWNS))[:draw(st.integers(1, len(_UNKNOWNS)))]
    if affine:
        exps = st.one_of(st.integers(0, 2), st.sampled_from(draw(st.sampled_from(_ELIM_LARGE))))
    equations = []
    for i, u in enumerate(unknowns):
        if affine:
            # built from items, so that the fields are as narrow as the exponents allow
            items = {(0, 0, *(int(v == u) for v in _UNKNOWNS)): draw(_COEFFS)}
            for _ in range(draw(st.integers(2, 4))):
                w = draw(st.sampled_from([None, *unknowns[:i]]))
                exp = (draw(exps), draw(exps), *(int(v == w) for v in _UNKNOWNS))
                items[exp] = items.get(exp, 0) + draw(_ELIM_COEFFS)
            eq = Polynomial.from_items(_ELIM, items)
        else:
            eq = draw(_COEFFS) * _ELIM.var(u) if triangular else _ELIM.zero()
            for _ in range(draw(st.integers(0, 3))):
                term = _ELIM.const(draw(_COEFFS))
                for v in ("p", "q", *(unknowns[:i] if triangular else _UNKNOWNS)):
                    term = term * _ELIM.var(v) ** draw(st.integers(0, 2))
                eq = eq + term
        if tables:
            names = draw(st.permutations(_ELIM.names))[:draw(st.integers(0, len(_ELIM)))]
            eq = eq.compact().to_table(VarTable(names, [0] * len(names)))
        equations.append(eq)
    return equations, list(unknowns)


def _term_by_term(p, rules):
    """``p`` with ``rules`` substituted, each term as the product of its rule
    powers: no substitution routine of the kernel's."""
    out = p.table.zero()
    for exps, c in p.items():
        term = p.table.const(c)
        for name, e in zip(p.table.names, exps):
            term = term * (rules[name] if name in rules else p.table.var(name)) ** e
        out = out + term
    return out


@settings(max_examples=150, deadline=None)
@given(_elimination_systems() | _elimination_systems(affine=True))
def test_elimination_solves_a_triangular_system(system):
    equations, unknowns = system
    rules = solve_in_order(equations, unknowns)
    assert [v for v, _ in rules.rules] == unknowns
    for eq in equations:
        assert rules.apply(eq).is_zero
        assert _term_by_term(eq, rules.mapping()).is_zero
    for v, value in rules.rules:
        assert not any(value.contains_var(u) for u in unknowns), v


def _zero_solution_system():
    """u1 = 0 on a table of its own, substituted into an equation on another."""
    one, two = VarTable(["u1", "p"], [0, 0]), VarTable(["q", "u0", "u1", "p"], [0] * 4)
    u0, u1, p, q = (two.var(v) for v in ("u0", "u1", "p", "q"))
    return [3 * one.var("u1"), u0 + u1 * q - p], ["u1", "u0"]


def _squared_unknown_system():
    """u0, solved to three terms, occurs squared in the next equation: a
    Horner part 2 << offset is a power of two, but no unit of a field."""
    p, q, u0, u1 = (_ELIM.var(v) for v in ("p", "q", "u0", "u1"))
    return [2 * u0 - p ** 127 - q + 1, u1 + u0 ** 2 * q - 3 * u0 + p / 5], ["u0", "u1"]


@settings(max_examples=200, deadline=None)
@given(_elimination_systems(triangular=False) | _elimination_systems()
       | _elimination_systems(triangular=False, tables=True) | _elimination_systems(tables=True)
       | _elimination_systems(affine=True) | _elimination_systems(affine=True, tables=True))
@example(_zero_solution_system())
@example(_squared_unknown_system())
def test_elimination_matches_the_old_loop(system):
    # the reverse clean-up of the old loop never has anything to clean: the
    # ordering check refuses a late unknown in an earlier solution first; and
    # substituting every earlier solution at once gives the old loop's rules,
    # its merged table (the vars order of to_json) included
    equations, unknowns = system
    assert _elimination_outcome(solve_in_order, equations, unknowns) == \
        _elimination_outcome(_old_expand_loop, equations, unknowns)
    try:
        rules = solve_in_order(equations, unknowns)
    except (ValidityViolation, KeyError):
        return
    # every exponent kept below the guard bit of its field, as the rows require
    for _, value in rules.rules:
        assert Polynomial.from_rows(value.table, *value.to_rows()) == value


def test_elimination_rejects_a_squared_or_absent_unknown():
    p, q, u0, u1 = (_ELIM.var(v) for v in ("p", "q", "u0", "u1"))
    nonlinear = "appears with exponent >= 2 or a non-constant coefficient"
    for equations, unknowns, index, reason in (
            ([u0 - p, u1 ** 2 + q], ["u0", "u1"], 1, f"u1 {nonlinear}"),
            ([u0 * q + p], ["u0"], 0, f"u0 {nonlinear}"),
            ([u0 - p, p + q], ["u0", "u1"], 1, "u1 does not appear in the expression"),
            # an unknown solved once is eliminated from every later equation
            ([u0 - p, u0 + q], ["u0", "u0"], 1, "u0 does not appear in the expression")):
        with pytest.raises(ValidityViolation) as err:
            solve_in_order(equations, unknowns)
        assert (err.value.index, err.value.variable, err.value.reason) == \
            (index, unknowns[index], reason)


def test_elimination_refuses_a_late_unknown_in_an_earlier_solution():
    # u0 = -u1 mentions u1, which the second equation solves: the old loop
    # would have cleaned u0 up in reverse; both refuse it at u1 instead
    p, u0, u1 = (_ELIM.var(v) for v in ("p", "u0", "u1"))
    equations = [u0 + u1, u1 - p]
    for solve in (solve_in_order, _old_expand_loop):
        with pytest.raises(ValidityViolation) as err:
            solve(equations, ["u0", "u1"])
        assert (err.value.index, err.value.variable) == (1, "u1")
        assert err.value.reason == "already occurs in the coefficient solved for u0"
    # solved in the other order, the same system is triangular
    rules = solve_in_order(equations[::-1], ["u1", "u0"])
    assert rules["u1"] == p and rules["u0"] == -p


def _old_mu_inverse(n):
    """The loop mu_inverse ran before the shared elimination; an oracle."""
    t = pipeline_table(n)
    mu = mu_rules(n).mapping()
    solved, out = {}, []
    for name in ("W", "Z", "Y", "X"):
        correction = mu[f"{name}b"] - t.var(name)
        value = t.var(f"{name}b") - correction.substitute(solved)
        solved[name] = value
        out.append((name, value))
    return RuleSet.of(reversed(out))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_elimination_inverts_mu_as_the_old_loop(n):
    got, want = mu_inverse(n), _old_mu_inverse(n)
    assert got.canonical_bytes() == want.canonical_bytes()
    assert [(v, p.table) for v, p in got.rules] == [(v, p.table) for v, p in want.rules]


def _old_derive_restricted(spec, form, cache):
    """``(r, s_rules, vanishing, constant pull-back)`` as derive_restricted
    found them before the shared elimination: one pull-back per vanishing
    coordinate along the rules solved so far; an oracle."""
    n = spec.n
    if n > 8:
        raise RestrictionError(f"{spec.name} needs lam{n}, and there is no lam beyond lam8")
    names = scf_names(spec)
    if not names:
        raise RestrictionError(f"{spec.name} has no standard coordinate to restrict")
    cname, table = names[-1], LAM_TABLE
    U = table.var("U")
    vanish = vanishing_coordinates(spec)
    if spec.family == "A" or (spec.family == "D" and n % 2 == 0):
        if spec.family == "D":
            r = U ** n - table.var(f"lam{n-1}") * U
        else:
            r = U ** n - table.var("lam1") ** n if form == "root" else U ** n + table.var(f"lam{n}")
        rules = rules_from_monic(r, n)
        pulls = coord_pullbacks(spec, rules, cache)
        return r, rules, vanish, pulls[cname]
    rules = {f"s{i}": table.var(f"lam{i}") for i in range(1, n + 1)}
    for nm in vanish:
        pulled = coord_pullbacks(spec, RuleSet.of(rules.items()), cache, [nm])[nm]
        w = pulled.homogeneous_weight()
        if w is None or w > n:
            raise RestrictionError(f"{nm} cannot pin a parameter of its own weight")
        target = f"lam{w}"
        try:
            sol = pulled.solve_linear(target)
        except (NonLinearError, AbsentVariableError) as exc:
            raise RestrictionError(f"system is not triangular at {nm}: {exc}") from exc
        rules = {k: v.substitute({target: sol}) for k, v in rules.items()}
    rule_set = RuleSet.of(sorted(rules.items(), key=lambda kv: int(kv[0][1:])))
    r = monic(U, [rule_set[f"s{i}"] for i in range(1, n + 1)])
    return r, rule_set, vanish, coord_pullbacks(spec, rule_set, cache, [cname])[cname]


_RESTRICTED_TYPES = [f"A{n}" for n in range(2, 9)] + [f"D{n}" for n in range(2, 9)] + \
    ["D10"] + [f"E{n}" for n in range(3, 9)]


@pytest.mark.parametrize("form", ["plain", "root"])
@pytest.mark.parametrize("name", _RESTRICTED_TYPES)
def test_elimination_restricts_as_the_old_loop(name, form, cache):
    spec = Spec.from_name(name)
    try:
        want = _old_derive_restricted(spec, form, cache)
    except RestrictionError as exc:
        with pytest.raises(RestrictionError) as err:
            derive_restricted(spec, form=form, cache=cache)
        assert str(err.value) == str(exc)
        return
    rp = derive_restricted(spec, form=form, cache=cache)
    r, rules, vanish, const = want
    assert rp.r.serialize() == r.serialize()
    assert [(v, p.serialize()) for v, p in rp.s_rules.rules] == \
        [(v, p.serialize()) for v, p in rules.rules]
    assert rp.vanishing == vanish
    assert rp.pulls[scf_names(spec)[-1]].serialize() == const.serialize()


def _full_image_coefficients(sl):
    """The pairs' coefficients read off the whole substituted template."""
    image = sl.base.apply(sl.template)
    grouped = {tuple(sorted((v, e) for v, e in zip(sl.monomial_vars, m) if e)): c
               for m, c in image.coefficients_over(sl.monomial_vars).items()}
    return [grouped.get(m, image.table.zero()) for m, _ in sl.pairs]


class _FullImageSolveList(SolveList):
    def coefficient_equations(self):
        return _full_image_coefficients(self)


def _assert_same_coefficients(sl):
    got = sl.coefficient_equations()
    want = _full_image_coefficients(sl)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # same table too: the serialized rules depend on its variable order
        assert g.table is w.table
        assert dict(g.items()) == dict(w.items())
        assert g.serialize() == w.serialize()


def _expansion_outcome(sl):
    try:
        return sl.expand().to_json()
    except ValidityViolation as exc:
        return (exc.index, exc.variable, exc.reason)
    except KeyError as exc:  # an unknown missing from every table
        return repr(exc)


_NAMES = ("x", "y", "z", "A", "B", "s", "a", "b", "c")
_COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(-3, 3, max_denominator=4).filter(bool))


#: rule-value coefficients over denominators whose lcm is not any one of them
_RULE_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 5, 12]))
#: large exponents of a draw: none, across the guard bit of an 8-bit field,
#: or near and across that of a 16-bit one
_LARGE = [(), (127, 128, 255), (2**15 - 2, 2**15 - 1, 2**15)]


@st.composite
def _random_solve_lists(draw, pivots=False):
    """Random small solve lists; with ``pivots`` each pair's unknown also
    occurs times its monomial with a constant, so most of them expand.
    Some draw large exponents for the monomial variables and, but for
    ``pivots``, whose ring maps raise values to the powers of s, for s."""
    weight = {v: draw(st.integers(0, 3)) for v in _NAMES}
    large = draw(st.sampled_from(_LARGE))
    exponent = st.sampled_from([0, 0, 1, 2])
    wide = st.sampled_from([0, 0, 1, 2, *large])
    big = set("xyz" if pivots else "xyzs")

    def poly(table, names, max_terms, coeffs=_COEFFS):
        p = table.zero()
        for _ in range(draw(st.integers(0, max_terms))):
            term = table.const(draw(coeffs))
            for v in names:
                if v in table:
                    term = term * table.var(v) ** draw(wide if v in big else exponent)
            p = p + term
        return p

    # rule values live on their own smallest tables; the template's table
    # holds the monomial variables, the unknowns and, in a drawn order,
    # some of the rest
    full = VarTable(_NAMES, [weight[v] for v in _NAMES])
    base = RuleSet.of([("A", poly(full, ("x", "y", "s", "a", "b"), 4, _RULE_COEFFS).compact()),
                       ("B", poly(full, ("x", "z", "A", "s", "c"), 4, _RULE_COEFFS).compact())])
    names = draw(st.permutations(
        ["x", "y", "z", "a", "b", "c"] + draw(st.lists(st.sampled_from("ABs"), unique=True))))
    table = VarTable(names, [weight[v] for v in names])
    template = poly(table, ("A", "B", "x", "y", "a", "b", "c", "s"), 4)
    for u in ("a", "b", "c"):  # some unknowns occur with a constant pivot
        template = template + table.var(u) * poly(table, ("A", "B", "x", "y", "s"), 2) \
            + table.var(u) * poly(table, ("x", "y", "z"), 1)
    # targets: mostly monomials the image reaches, sometimes any monomial
    image = base.apply(template)
    reached = [tuple((v, e) for v, e in zip("xyz", m) if e)
               for m in image.coefficients_over(("x", "y", "z"))]
    anywhere = st.builds(lambda *e: tuple(zip("xyz", e)),
                         *[st.integers(0, 3) | st.sampled_from((0, *large))] * 3)
    monos = draw(st.lists(st.sampled_from(reached) | anywhere if reached else anywhere,
                          min_size=1, max_size=4))
    unknowns = draw(st.permutations(["a", "b", "c"])) + ["s"]
    if pivots:
        for mono, u in zip(monos, unknowns[:3]):
            term = draw(_COEFFS) * table.var(u)
            for v, e in mono:
                term = term * table.var(v) ** e
            template = template + term
    return SolveList.of(base, template, list(zip(monos, unknowns)), ("x", "y", "z"))


@settings(max_examples=150, deadline=None)
@given(_random_solve_lists())
def test_coefficients_equal_full_image_coefficients(sl):
    _assert_same_coefficients(sl)
    oracle = _FullImageSolveList(sl.base, sl.template, sl.pairs, sl.monomial_vars)
    assert _expansion_outcome(sl) == _expansion_outcome(oracle)


@pytest.mark.parametrize("n, param", [pytest.param(6, None, id="E6"),
                                      pytest.param(6, "moved", id="E6-moved"),
                                      pytest.param(7, None, id="E7"),
                                      pytest.param(8, None, id="E8")])
def test_stage_coefficients_equal_full_image_coefficients(n, param, request):
    # the plain E8 versal image is 9,641 terms, of which the pairs read 4,871
    pipe = request.getfixturevalue(f"pipe{n}")
    for sl in (pipe.bar_solvelist(), pipe.psi_solvelist(), pipe.versal_solvelist()):
        _assert_same_coefficients(sl.pull_back(split_params_E(n)[1]) if param else sl)


def _weight_of(sl, name):
    for p in (sl.template, *(value for _, value in sl.base.rules)):
        if name in p.table:
            return p.table.weights[p.table.index_of(name)]
    return 0


_RING_MAPS = st.tuples(st.integers(0, 3), st.lists(
    st.tuples(_COEFFS, st.integers(0, 2), st.integers(0, 2)), max_size=3))


@settings(max_examples=150, deadline=None)
@given(_random_solve_lists(pivots=True), _RING_MAPS)
def test_expansion_commutes_with_pull_back(tmp_path_factory, sl, ring_map):
    # the longest prefix that expands, and at most three pairs: then s is
    # neither ruled, a monomial variable nor an unknown
    try:
        sl.expand()
        valid = len(sl.pairs)
    except ValidityViolation as exc:
        valid = exc.index
    except KeyError:  # an unknown missing from every table
        valid = 0
    assume(valid > 0)
    sl = SolveList(sl.base, sl.template, sl.pairs[:min(valid, 3)], sl.monomial_vars)
    plain = sl.expand()
    # a ring map on s, bringing in a new parameter t
    t_weight, terms = ring_map
    table = VarTable(["s", "t"], [_weight_of(sl, "s"), t_weight])
    value = table.zero()
    for c, es, et in terms:
        value = value + c * table.var("s") ** es * table.var("t") ** et
    param = RuleSet.of([("s", value)])
    pulled = sl.pull_back(param).expand()
    assert [v for v, _ in pulled.rules] == [v for v, _ in plain.rules]
    for v, p in plain.rules:
        assert pulled[v] == p.substitute(param.mapping()), v
    # the cached route gives the same rules, and finds them again by key
    names = [v for v, _ in plain.rules][::-1]
    directory = tmp_path_factory.mktemp("pulled")
    for cache in (RuleCache(directory), RuleCache(directory)):
        got = cache.pull_back(sl.content_key(), sl.expand, param, names)
        assert [v for v, _ in got.rules] == names
        for v in names:
            assert got[v] == pulled[v], v


def test_mu_rules_invert_on_generators():
    for n in (6, 7, 8):
        table = pipeline_table(n)
        mu, inverse = mu_rules(n), mu_inverse(n)
        for v in ("X", "Y", "Z", "W"):
            assert mu.apply(inverse[v]) == table.var(v), (n, v)


def test_partial_expansion_agrees_with_full(pipe6):
    # a prefix of the pairs solves the same unknowns to the same values
    sl = pipe6.versal_solvelist()
    full = sl.expand()
    partial = SolveList(sl.base, sl.template, sl.pairs[:3], sl.monomial_vars).expand()
    assert len(partial) == 3
    for v, value in partial.rules:
        assert full[v] == value


def test_psi_first_solutions_match_triangular_form():
    # over free barred symbols the first solved values are visible directly
    for n, var, expect in ((6, "psi1", "-1/3*phib1"), (7, "psi2", "-phib2"),
                           (8, "psi4", "-1/3*phib4")):
        sl = SolveList.of(mu_rules(n), phibar_template(n),
                          {6: [({"Y": 2, "Z": 1}, "psi1")],
                           7: [({"Z": 4}, "psi2")],
                           8: [({"Y": 2, "Z": 1, "W": 1}, "psi4")]}[n],
                          ("X", "Y", "Z", "W"))
        rules = sl.expand()
        assert rules[var] == parse(expect, pipeline_table(n))


def _displayed_triangular_system(n):
    """The eliminated coefficient equations, transcribed for cross-checking."""
    t = pipeline_table(n)
    p = parse
    if n == 6:
        return [
            ("psi1", p("3*psi1 + phib1", t)),
            ("psi2", p("-2*psi2 + phib2", t)),
            ("psi3p", p("-psi3p + phib3pp + ebar2*psi1 + psi1^3 + phib1*psi1^2", t)),
            ("psi3pp", p("-2*psi3p - 2*psi3pp + phib3p + phib2*psi1", t)),
            ("psi4", p("3*psi4 + phib1*psi3pp - psi2^2 + phib2*psi2 + phib4", t)),
            ("psi6", p("-2*psi6 + phib2*psi4 + phib3p*psi3pp - psi3pp^2 + phib6", t)),
        ]
    if n == 7:
        return [
            ("psi2", p("16*psi2 + 16*phib2", t)),
            ("psi4", p("48*psi4 - 3*psi2^2 + phib4 + 2*ebar2*psi2 - 2*phib2*psi2", t)),
            ("psi6", p("16*psi6 + 16*phib6 - psi2^3 + 48*psi2*psi4 + ebar2*psi2^2"
                       " + 64*phib2*psi4 - phib2*psi2^2 + phib4*psi2", t)),
        ]
    return [
        ("psi4", p("3*psi4 + phib4", t)),
        ("psi6", p("-5*psi6 + phib6 + ebar2*psi4", t)),
        ("psi10", p("3*psi10 + phib10 + phib4*psi6", t)),
    ]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_psi_system_matches_displayed_equations(n):
    from rdpinv.envres import _PSI_PAIRS

    sl = SolveList.of(mu_rules(n), phibar_template(n), _PSI_PAIRS[n], ("X", "Y", "Z", "W"))
    got = sl.expand()
    solved = {}
    for var, eq in _displayed_triangular_system(n):
        value = eq.substitute(solved).solve_linear(var)
        solved[var] = value
    for var, expect in solved.items():
        assert got[var] == expect, (n, var)


def test_pull_back_commutes_with_expansion(pipe6, cache):
    rng = random.Random(23)
    table = pipeline_table(6)
    for trial in range(3):
        param = RuleSet.of([
            (f"s{i}", table.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
            for i in range(1, 7)])
        for sl in (pipe6.bar_solvelist(), pipe6.versal_solvelist()):
            direct = sl.expand()
            pulled = sl.pull_back(param).expand()
            for v, value in pulled.rules:
                assert value == direct[v].substitute(param.mapping()), (trial, v)


def test_central_fiber_pull_back(pipe7):
    param = RuleSet.of([(f"s{i}", pipeline_table(7).zero()) for i in range(1, 8)])
    rules = pipe7.versal_solvelist().pull_back(param).expand()
    for name in eps_names(7):
        assert rules[name].is_zero


def test_cache_round_trip(tmp_path):
    table = VarTable(["X", "a", "b"], [1, 0, 0])
    template = (table.var("a") + 2) * table.var("X") + table.var("b") * table.var("X") ** 2
    sl = SolveList.of(RuleSet.identity(), template, [({"X": 1}, "a")], ("X",))
    cache = RuleCache(tmp_path)
    first = cache.fetch(sl.content_key(), sl.expand)
    assert cache.path_for(sl.content_key()).exists()
    fresh = RuleCache(tmp_path)
    again = fresh.fetch(sl.content_key(), sl.expand)
    assert again.mapping() == first.mapping()
    # key reflects content: a different template gives a different key
    sl2 = SolveList.of(RuleSet.identity(), template + 1, [({"X": 1}, "a")], ("X",))
    assert sl2.content_key() != sl.content_key()


def test_cache_file_carries_its_key(tmp_path):
    table = VarTable(["X", "a"], [1, 0])
    sl = SolveList.of(RuleSet.identity(), (table.var("a") + 1) * table.var("X"),
                      [({"X": 1}, "a")], ("X",))
    cache = RuleCache(tmp_path)
    cache.fetch(sl.content_key(), sl.expand)
    payload = json.loads(cache.path_for(sl.content_key()).read_text())
    assert payload["key"] == sl.content_key()


def test_truncated_cache_entry_is_recomputed(tmp_path, capsys):
    table = VarTable(["X", "a", "b"], [1, 0, 0])
    sl = SolveList.of(RuleSet.identity(), (table.var("a") + table.var("b")) * table.var("X"),
                      [({"X": 1}, "a")], ("X",))
    param = RuleSet.of([("b", table.var("b") ** 2 + 1)])
    # the expansion's entry, then the entry of its pull-back
    for key, compute in ((sl.content_key(),
                          lambda cache: cache.fetch(sl.content_key(), sl.expand)),
                         (solvelist.pull_back_key(sl.content_key(), param, ["a"]),
                          lambda cache: cache.pull_back(sl.content_key(), sl.expand, param, ["a"]))):
        first = compute(RuleCache(tmp_path))
        path = RuleCache(tmp_path).path_for(key)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        fresh = RuleCache(tmp_path)
        capsys.readouterr()
        assert fresh.get(key) is None
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1 and warning[0].startswith("warning: ") \
            and path.name in warning[0]
        assert compute(fresh).mapping() == first.mapping()
        # the recomputed entry replaced the broken file
        assert path.read_text() == text
        assert RuleCache(tmp_path).get(key).mapping() == first.mapping()


def test_absent_entry_is_a_quiet_miss_and_a_foreign_one_warns(tmp_path, capsys):
    cache = RuleCache(tmp_path)
    assert cache.get("absent") is None
    assert capsys.readouterr() == ("", "")
    table = VarTable(["a"], [0])
    cache.put("k", RuleSet.of([("a", table.var("a"))]))
    cache.path_for("other").write_text(cache.path_for("k").read_text())
    assert RuleCache(tmp_path).get("other") is None
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("warning: ")


def test_expansion_version_is_part_of_the_key(monkeypatch):
    table = VarTable(["X", "a"], [1, 0])
    sl = SolveList.of(RuleSet.identity(), (table.var("a") + 1) * table.var("X"),
                      [({"X": 1}, "a")], ("X",))
    before = sl.content_key()
    monkeypatch.setattr(solvelist, "EXPANSION_VERSION", solvelist.EXPANSION_VERSION + 1)
    assert sl.content_key() != before


def test_pull_back_key_covers_its_inputs(tmp_path, monkeypatch):
    table = VarTable(["X", "Y", "a", "b", "c"], [1, 1, 0, 0, 0])
    a, b, c, X, Y = (table.var(v) for v in "abcXY")

    def solve_list(template):
        return SolveList.of(RuleSet.identity(), template, [({"X": 1}, "a"), ({"Y": 1}, "c")],
                            ("X", "Y"))

    sl = solve_list((a + b) * X + (c - b) * Y)
    param = RuleSet.of([("b", (b + 1).compact())])

    def key(sl=sl, param=param, names=("a", "c")):
        return solvelist.pull_back_key(sl.content_key(), param, names)

    variants = [key(), key(sl=solve_list((a + 2 * b) * X + (c - b) * Y)),
                key(param=RuleSet.of([("b", (b + 2).compact())])),
                key(names=("a",)), key(names=("c", "a")), sl.content_key()]
    assert len(set(variants)) == len(variants)
    monkeypatch.setattr(solvelist, "EXPANSION_VERSION", solvelist.EXPANSION_VERSION + 1)
    assert key() not in variants
    # the cache stores the expansion and the pull-back under exactly these keys
    RuleCache(tmp_path).pull_back(sl.content_key(), sl.expand, param, ["a", "c"])
    assert sorted(p.name for p in (tmp_path / solvelist.ENTRY_FORMAT).iterdir()) == sorted(
        f"{k}.json" for k in (key(), sl.content_key()))


def _pinned_solve_list():
    table = VarTable(["X", "Y", "a", "b", "c"], [1, 1, 0, 0, 0])
    a, b, c, X, Y = (table.var(v) for v in "abcXY")
    return SolveList.of(RuleSet.of([("b", (c ** 2 + 1).compact())]),
                        (a + b) * X + (c - 2 * b) * Y, [({"X": 1}, "a"), ({"Y": 1}, "c")],
                        ("X", "Y"))


def test_content_keys_are_pinned():
    # the names of the cache files: a change here orphans every stored entry
    sl = _pinned_solve_list()
    b = VarTable(["b"], [0]).var("b")
    assert sl.content_key() == \
        "121ad85e0ec085fbd3a79d21cc1a80f6ff92797cc902d96e3aa3ea8fea359f38"
    assert solvelist.pull_back_key(sl.content_key(), RuleSet.of([("b", b / 3 + 1)]),
                                   ["c", "a"]) == \
        "c4ddf2ef07a22ff7e8075e5b68e9d4a46a69d08ddedc3a2ed580a1bca6e246bb"


def _entry_solve_list():
    """A solve list whose one rule, a -> 1/6*b + 1/3*c^2, is ``_GOOD_RULE``."""
    table = VarTable(["X", "a", "b", "c"], [1, 0, 0, 0])
    a, b, c, X = (table.var(v) for v in "abcX")
    return SolveList.of(RuleSet.identity(), (3 * a - b / 2 - c ** 2) * X, [({"X": 1}, "a")],
                        ("X",))


# fields 8 bits wide: b (index 2) is 1 << 16 and c^2 (index 3) is 2 << 24
_GOOD_RULE = ["a", 6, 8, [1 << 16, 1, 2 << 24, 2]]
_BROKEN_RULES = {
    "zero numerator": ["a", 6, 8, [1 << 16, 1, 2 << 24, 2, 1 << 8, 0]],
    "den 0": ["a", 0, 8, [1 << 16, 1, 2 << 24, 2]],
    "den -1": ["a", -1, 8, [1 << 16, 1, 2 << 24, 2]],
    "gcd not 1": ["a", 12, 8, [1 << 16, 2, 2 << 24, 4]],
    "duplicate key": ["a", 6, 8, [1 << 16, 1, 2 << 24, 2, 1 << 16, 1]],
    "guard bit": ["a", 6, 8, [1 << 16 | 1 << 23, 1, 2 << 24, 2]],
    "field past table": ["a", 6, 8, [1 << 16, 1, 2 << 32, 2]],
    "odd term list": ["a", 6, 8, [1 << 16, 1, 2 << 24]],
    "true": ["a", 6, 8, [1 << 16, True, 2 << 24, 2]],
    "float": ["a", 6, 8, [1 << 16, 1.0, 2 << 24, 2]],
    "string": ["a", "6", 8, [1 << 16, 1, 2 << 24, 2]],
    "shift 12": ["a", 6, 12, [1 << 24, 1, 2 << 36, 2]],
    "rule name not a string": [7, 6, 8, [1 << 16, 1, 2 << 24, 2]],
}
# entries whose table is not string names with integer weights, which
# VarTable alone would coerce or accept
_BROKEN_TABLES = {
    "weight 2.5": {"weights": [1, 0, 2.5, 0]},
    "weight 2.0": {"weights": [1, 0, 2.0, 0]},
    "weight true": {"weights": [1, 0, True, 0]},
    "weight string": {"weights": [1, 0, "2", 0]},
    "table name not a string": {"vars": ["X", "a", 2, "c"]},
}
_BROKEN_ENTRIES = {**{name: {"rules": [rule]} for name, rule in _BROKEN_RULES.items()},
                   **_BROKEN_TABLES,
                   # the format names the directory, so another one there is foreign
                   "older format": {"format": "rdpinv-cache-v1"}}


@pytest.mark.parametrize("change", _BROKEN_ENTRIES.values(), ids=_BROKEN_ENTRIES.keys())
def test_malformed_cache_entry_is_recomputed(tmp_path, capsys, change):
    sl = _entry_solve_list()
    want = RuleCache(tmp_path).fetch(sl.content_key(), sl.expand)
    path = RuleCache(tmp_path).path_for(sl.content_key())
    good = path.read_text()
    entry = json.loads(good)
    assert entry == {"format": "rdpinv-cache-v2", "key": sl.content_key(),
                     "vars": ["X", "a", "b", "c"], "weights": [1, 0, 0, 0],
                     "rules": [_GOOD_RULE]}
    path.write_text(json.dumps(dict(entry, **change)))
    capsys.readouterr()
    assert RuleCache(tmp_path).fetch(sl.content_key(), sl.expand).mapping() == want.mapping()
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("warning: ") and path.name in err
    assert path.read_text() == good


def test_older_cache_entry_is_a_quiet_miss(tmp_path, capsys):
    # an older format kept its entries in the cache directory itself, which
    # is never read: the entry is recomputed into the format's subdirectory
    sl = _entry_solve_list()
    want = sl.expand()
    old = tmp_path / f"{sl.content_key()}.json"
    text = json.dumps({"format": "rdpinv-cache-v1", "key": sl.content_key(),
                       "rules": want.to_json()})
    old.write_text(text)
    assert RuleCache(tmp_path).fetch(sl.content_key(), sl.expand).mapping() == want.mapping()
    assert capsys.readouterr() == ("", "")
    path = RuleCache(tmp_path).path_for(sl.content_key())
    assert path.parent == tmp_path / "rdpinv-cache-v2" and path.exists()
    assert old.read_text() == text
    assert RuleCache(tmp_path).get(sl.content_key()).mapping() == want.mapping()


_PUT_LOOP = """
import sys, time
from rdpinv.poly import VarTable
from rdpinv.solvelist import RuleCache, RuleSet
t = VarTable(["a"], [0])
rules = RuleSet.of([("a", t.var("a") + 1)])
cache = RuleCache(sys.argv[1])
start = float(sys.argv[2])
time.sleep(max(0.0, start - time.time()))
while time.time() < start + 1.0:
    cache.put("k", rules)
"""


def test_concurrent_writers_of_one_key(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rdpinv.__file__).resolve().parents[1]))
    start = str(time.time() + 1.0)
    procs = [subprocess.Popen([sys.executable, "-c", _PUT_LOOP, str(tmp_path), start],
                              env=env, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    errors = [p.communicate(timeout=60)[1] for p in procs]
    assert [p.returncode for p in procs] == [0, 0], errors
    table = VarTable(["a"], [0])
    assert RuleCache(tmp_path).get("k").mapping() == {"a": table.var("a") + 1}
    assert list(tmp_path.rglob("*.tmp")) == []


def value_at(p, point):
    """p at a point that gives every one of its variables a value."""
    q = p.substitute(point)
    assert not q.variables(), sorted(q.variables())
    return q.constant_value()


def test_chain_agrees_with_direct_substitution_at_random_points(pipe6):
    rng = random.Random(5)
    rpi = pipe6.r_pi()
    table = pipeline_table(6)
    probe = parse("X*W - Y^2 + Z*W", table)
    names = sorted(rpi.apply(probe).variables() | {"x", "y", "z"})
    for _ in range(5):
        point = {nm: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for nm in names}
        direct = value_at(rpi.apply(probe), point)
        stepwise = value_at(probe.substitute(
            {v: table.const(value_at(rpi[v], point)) for v in "XYZW"}), point)
        assert direct == stepwise
