import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rdpinv
from rdpinv import solvelist
from rdpinv.distpoly import split_params_E
from rdpinv.envres import (
    VersalPipeline,
    eps_names,
    mu_inverse,
    mu_rules,
    phibar_template,
    pipeline_table,
)
from rdpinv.poly import VarTable, parse
from rdpinv.solvelist import RuleCache, RuleSet, SolveList, ValidityViolation, compose


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


def _full_image_coefficients(sl):
    """The pairs' coefficients read off the whole substituted template."""
    image = sl.base.apply(sl.template)
    names = image.table.names
    grouped = {tuple(sorted((names[i], e) for i, e in m)): c
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
        assert g.terms == w.terms


def _expansion_outcome(sl, upto):
    try:
        return sl.expand(upto=upto).to_json()
    except ValidityViolation as exc:
        return (exc.index, exc.variable, exc.reason)
    except KeyError as exc:  # an unknown missing from every table
        return repr(exc)


_NAMES = ("x", "y", "z", "A", "B", "s", "a", "b", "c")
_COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(-3, 3, max_denominator=4).filter(bool))


@st.composite
def _random_solve_lists(draw):
    weight = {v: draw(st.integers(0, 3)) for v in _NAMES}
    exponent = st.sampled_from([0, 0, 1, 2])

    def poly(table, names, max_terms):
        p = table.zero()
        for _ in range(draw(st.integers(0, max_terms))):
            term = table.const(draw(_COEFFS))
            for v in names:
                if v in table:
                    term = term * table.var(v) ** draw(exponent)
            p = p + term
        return p

    # rule values live on their own smallest tables; the template's table
    # holds the monomial variables, the unknowns and, in a drawn order,
    # some of the rest
    full = VarTable(_NAMES, [weight[v] for v in _NAMES])
    base = RuleSet.of([("A", poly(full, ("x", "y", "s", "a", "b"), 4).compact()),
                       ("B", poly(full, ("x", "z", "A", "s", "c"), 4).compact())])
    names = draw(st.permutations(
        ["x", "y", "z", "a", "b", "c"] + draw(st.lists(st.sampled_from("ABs"), unique=True))))
    table = VarTable(names, [weight[v] for v in names])
    template = poly(table, ("A", "B", "x", "y", "a", "b", "c", "s"), 4)
    for u in ("a", "b", "c"):  # some unknowns occur with a constant pivot
        template = template + table.var(u) * poly(table, ("A", "B", "x", "y", "s"), 2) \
            + table.var(u) * poly(table, ("x", "y", "z"), 1)
    # targets: mostly monomials the image reaches, sometimes any monomial
    image = base.apply(template)
    names = image.table.names
    reached = [tuple((names[i], e) for i, e in m)
               for m in image.coefficients_over(("x", "y", "z"))]
    anywhere = st.builds(lambda *e: tuple(zip("xyz", e)), *[st.integers(0, 3)] * 3)
    monos = draw(st.lists(st.sampled_from(reached) | anywhere if reached else anywhere,
                          min_size=1, max_size=4))
    unknowns = draw(st.permutations(["a", "b", "c"])) + ["s"]
    return SolveList.of(base, template, list(zip(monos, unknowns)), ("x", "y", "z"))


@settings(max_examples=150, deadline=None)
@given(_random_solve_lists(), st.integers(0, 4))
def test_coefficients_equal_full_image_coefficients(sl, upto):
    _assert_same_coefficients(sl)
    oracle = _FullImageSolveList(sl.base, sl.template, sl.pairs, sl.monomial_vars)
    for k in (None, upto):
        assert _expansion_outcome(sl, k) == _expansion_outcome(oracle, k)


@pytest.mark.parametrize("param", [None, "moved"])
def test_e6_coefficients_equal_full_image_coefficients(param, cache):
    pipe = VersalPipeline(6, param=split_params_E(6)[1] if param else None, cache=cache)
    for sl in (pipe.bar_solvelist(), pipe.psi_solvelist(), pipe.versal_solvelist()):
        _assert_same_coefficients(sl)


def test_compose_identity_and_associativity():
    table = VarTable(["u", "v", "w"], [1, 1, 1])
    u, v, w = (table.var(n) for n in "uvw")
    r = RuleSet.of([("u", v + w), ("v", u * u)])
    s = RuleSet.of([("v", w + 1)])
    t = RuleSet.of([("w", u - v)])
    assert compose(RuleSet.identity(), r).mapping() == r.mapping()
    left = compose(compose(r, s), t)
    right = compose(r, compose(s, t))
    probe = u + 2 * v + 3 * w * w
    assert left.apply(probe) == right.apply(probe)


def test_compose_matches_sequential_application():
    table = VarTable(["u", "v", "w"], [1, 1, 1])
    u, v, w = (table.var(n) for n in "uvw")
    outer = RuleSet.of([("u", v + 1), ("w", u * v)])
    inner = RuleSet.of([("v", u + w)])
    combined = compose(outer, inner)
    rng = random.Random(11)
    for _ in range(10):
        point = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for n in "uvw"}
        probe = u * u + 3 * v - w
        assert combined.apply(probe).evaluate(point) == \
            outer.apply(inner.apply(probe)).evaluate(point)


def test_mu_rules_invert_on_generators():
    for n in (6, 7, 8):
        table = pipeline_table(n)
        ident = compose(mu_rules(n), mu_inverse(n))
        for v in ("X", "Y", "Z", "W"):
            assert ident[v] == table.var(v), (n, v)


def test_partial_expansion_agrees_with_full(pipe6):
    sl = pipe6.versal_solvelist()
    full = sl.expand()
    partial = sl.expand(upto=3)
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
    first = cache.expand(sl)
    assert cache.path_for(sl.content_key()).exists()
    fresh = RuleCache(tmp_path)
    again = fresh.expand(sl)
    assert again.mapping() == first.mapping()
    # key reflects content: a different template gives a different key
    sl2 = SolveList.of(RuleSet.identity(), template + 1, [({"X": 1}, "a")], ("X",))
    assert sl2.content_key() != sl.content_key()


def test_cache_file_carries_its_key(tmp_path):
    import json

    table = VarTable(["X", "a"], [1, 0])
    sl = SolveList.of(RuleSet.identity(), (table.var("a") + 1) * table.var("X"),
                      [({"X": 1}, "a")], ("X",))
    cache = RuleCache(tmp_path)
    cache.expand(sl)
    payload = json.loads(cache.path_for(sl.content_key()).read_text())
    assert payload["key"] == sl.content_key()


def test_truncated_cache_entry_is_recomputed(tmp_path, capsys):
    table = VarTable(["X", "a", "b"], [1, 0, 0])
    sl = SolveList.of(RuleSet.identity(), (table.var("a") + table.var("b")) * table.var("X"),
                      [({"X": 1}, "a")], ("X",))
    first = RuleCache(tmp_path).expand(sl)
    path = RuleCache(tmp_path).path_for(sl.content_key())
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    fresh = RuleCache(tmp_path)
    capsys.readouterr()
    assert fresh.get(sl.content_key()) is None
    warning = capsys.readouterr().err.splitlines()
    assert len(warning) == 1 and warning[0].startswith("warning: ") \
        and path.name in warning[0]
    assert fresh.expand(sl).mapping() == first.mapping()
    # the recomputed entry replaced the broken file
    assert path.read_text() == text
    assert RuleCache(tmp_path).get(sl.content_key()).mapping() == first.mapping()


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
    before = sl.content_key(), sl.content_key(upto=1)
    monkeypatch.setattr(solvelist, "EXPANSION_VERSION", solvelist.EXPANSION_VERSION + 1)
    after = sl.content_key(), sl.content_key(upto=1)
    assert before[0] != after[0] and before[1] != after[1]


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
    assert list(tmp_path.glob("*.tmp")) == []


def test_chain_agrees_with_direct_substitution_at_random_points(pipe6):
    rng = random.Random(5)
    rpi = pipe6.r_pi()
    table = pipeline_table(6)
    probe = parse("X*W - Y^2 + Z*W", table)
    names = sorted(rpi.apply(probe).variables() | {"x", "y", "z"})
    for _ in range(5):
        point = {nm: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for nm in names}
        direct = rpi.apply(probe).evaluate(point)
        stepwise = probe.substitute(
            {v: table.const(rpi[v].evaluate(point)) for v in "XYZW"}).evaluate(point)
        assert direct == stepwise
