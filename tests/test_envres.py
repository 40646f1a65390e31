import hashlib
import json
from fractions import Fraction

import pytest

from rdpinv import envres, solvelist
from rdpinv.envres import (
    APPENDIX_MULTIPLIERS,
    BAR_EXTENSION,
    SexticSolveError,
    VersalPipeline,
    eps_names,
    eta_star,
    good_gens_bar,
    phibar_template,
    pipeline_table,
    psi_n,
    reduce_mod_m,
    solve_e8_sextic,
    versal_template,
)
from rdpinv.poly import LinearSystem, Polynomial, VarTable, parse, univar_divmod
from rdpinv.cli import load_golden, main
from rdpinv.congruence import KEY_CASES, case_param, case_restriction, key_case, key_constant
from rdpinv.distpoly import split_params_E
from rdpinv.solvelist import RuleCache, RuleSet, SolveList


def P(n, text):
    return parse(text, pipeline_table(n))


# -- generator sets ----------------------------------------------------------------


def test_cuspidal_pullback_kills_the_cubic_relation():
    for n in (6, 7, 8):
        assert eta_star(good_gens_bar(n).Wb, n).is_zero


def test_base_conditions_of_the_tabulated_generators():
    t6 = pipeline_table(6)
    U6, psi6 = t6.var("U"), psi_n(6)
    g6 = good_gens_bar(6)
    assert eta_star(g6.Zb, 6) == psi6
    assert eta_star(g6.Yb, 6) == U6 * psi6
    assert eta_star(g6.Xb, 6) == U6 ** 2 * (U6 + t6.var("s1")) * psi6

    t7 = pipeline_table(7)
    U7, psi7 = t7.var("U"), psi_n(7)
    g7 = good_gens_bar(7)
    assert eta_star(g7.Zb, 7) == psi7
    assert eta_star(g7.Yb, 7) == (2 * U7 + t7.var("s1")) ** 2 * psi7

    t8 = pipeline_table(8)
    U8, psi8 = t8.var("U"), psi_n(8)
    g8 = good_gens_bar(8)
    assert eta_star(g8.Zb, 8) == (U8 + t8.var("s1")) * psi8


def test_e6_generator_contains_the_expected_term():
    g6 = good_gens_bar(6)
    assert g6.Zb.coefficients_over("xyz")[3, 0, 0] == -pipeline_table(6).var("s3")


def test_mod_m_normalizations():
    g6, g7, g8 = good_gens_bar(6), good_gens_bar(7), good_gens_bar(8)
    assert reduce_mod_m(g6.Zb) == P(6, "y^2*z")
    assert reduce_mod_m(g6.Yb) == P(6, "x*y^2")
    assert reduce_mod_m(g6.Xb) == P(6, "y^3")
    assert reduce_mod_m(g7.Zb) == P(7, "x*y^2")
    assert reduce_mod_m(g7.Yb) == P(7, "4*y^3")
    assert reduce_mod_m(g7.Xb) == P(7, "8*y^5*z")
    assert reduce_mod_m(g8.Zb) == P(8, "y^3")
    assert reduce_mod_m(g8.Yb) == P(8, "x*y^5")
    assert reduce_mod_m(g8.Xb) == P(8, "y^8*z")
    assert reduce_mod_m(reduce_mod_m(g6.Zb)) == reduce_mod_m(g6.Zb)


def test_leading_relations_hold_mod_m():
    g6 = good_gens_bar(6)
    rel6 = reduce_mod_m(g6.Yb ** 3 - g6.Xb * g6.Zb ** 2 - g6.Xb ** 2 * g6.Wb)
    assert rel6.is_zero
    g7 = good_gens_bar(7)
    rel7 = reduce_mod_m(16 * g7.Yb * g7.Zb ** 3 - g7.Xb ** 2 - g7.Yb ** 3 * g7.Wb)
    assert rel7.is_zero
    g8 = good_gens_bar(8)
    rel8 = reduce_mod_m(g8.Yb ** 3 - g8.Xb ** 2 - g8.Zb ** 5 * g8.Wb)
    assert rel8.is_zero


# -- the solved sextic ---------------------------------------------------------------


def test_sextic_base_conditions_and_golden_match():
    yb = solve_e8_sextic()
    psi8 = psi_n(8)
    assert eta_star(yb, 8) == psi8 * psi8
    _, rem = univar_divmod(eta_star(yb.derivative_along({"x": 1}), 8), psi8, "U")
    assert rem.is_zero
    golden = load_golden("appendix0", pipeline_table(8))
    assert yb == golden["Yb"][1]
    assert good_gens_bar(8).Zb == golden["Zb"][1]
    # normalization: the two chosen coefficients vanish identically
    assert not {(3, 3, 0), (6, 0, 0)} & yb.coefficients_over("xyz").keys()


def test_sextic_corner_coefficient():
    yb = solve_e8_sextic()
    s8 = pipeline_table(8).var("s8")
    assert yb.coefficients_over("xyz")[0, 0, 6] == s8 ** 2


def _weight_vectors(n, w):
    """Exponent vectors (e1..en) with sum i*e_i = w, lexicographic."""
    out = []

    def rec(i, remaining, acc):
        if i > n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for e in range(remaining // i + 1):
            rec(i + 1, remaining - i * e, acc + [e])

    rec(1, w, [])
    return out


def _sextic_by_generic_remainder():
    """The sextic by the generic-polynomial route: one sextic over the
    scalar unknowns c_k, the remainder of its x-derivative's pullback by
    long division by psi, and one row per (U, s) coefficient of that
    remainder.  Returns the nullity before normalization and the sextic."""
    n = 8
    table = pipeline_table(n)
    psi = psi_n(n, table)
    q = (psi * psi).coeffs_in("U")
    s_names = [f"s{i}" for i in range(1, n + 1)]

    def mono(exps, names):
        full = [0] * len(table)
        for name, e in zip(names, exps):
            full[table.index_of(name)] = e
        return Polynomial.from_items(table, {tuple(full): 1})

    by_eta = {}
    for b in range(6, -1, -1):
        for a in range(7 - b):
            if a + 3 * b <= 16:
                by_eta.setdefault(a + 3 * b, []).append((a, b, 6 - a - b))
    known, basis, block = table.zero(), [], []
    for j, cls in sorted(by_eta.items()):
        fixed = [m for m in cls if m not in envres._SEXTIC_FREE]
        assert len(fixed) == 1 or (not fixed and j not in q)
        carrier = mono(fixed[0], "xyz") if fixed else table.zero()
        known = known + q.get(j, table.zero()) * carrier
        for m in cls:
            if m in envres._SEXTIC_FREE:
                for sm in _weight_vectors(n, 16 - j):
                    basis.append(mono(sm, s_names) * (mono(m, "xyz") - carrier))
                    block.append(m)
    unknowns = [f"c{k}" for k in range(len(basis))]
    ext = table.merged(VarTable(unknowns, [0] * len(unknowns)))
    slot = {name: k for k, name in enumerate(unknowns)}
    generic = known.to_table(ext)
    for name, p in zip(unknowns, basis):
        generic = generic + ext.var(name) * p
    _, rem = univar_divmod(eta_star(generic.derivative_along({"x": 1}), n), psi, "U")
    system = LinearSystem()
    for cof in rem.coefficients_over(["U"] + s_names).values():
        names = tuple(cof.variables())
        system.add({slot[names[k.index(1)]]: c.constant_value()
                    for k, c in cof.coefficients_over(names).items() if any(k)},
                   -cof.constant_value())
    nullity = len(basis) - system.rank
    for k, m in enumerate(block):
        if m in ((3, 3, 0), (6, 0, 0)):
            system.add({k: 1})
    assert system.rank == len(basis)
    result = known
    for k, value in system.solution().items():
        result = result + value * basis[k]
    return nullity, result


def test_sextic_matches_the_generic_remainder_route():
    nullity, oracle = _sextic_by_generic_remainder()
    assert nullity == 45 == len(_weight_vectors(8, 4)) + len(_weight_vectors(8, 10))
    _, columns, equations = envres._sextic_equations(8)
    system = LinearSystem()
    for row, rhs in equations:
        system.add(row, rhs)
    assert len(columns) - system.rank == nullity
    assert solve_e8_sextic().serialize() == oracle.serialize()


@pytest.mark.parametrize("change, message", [
    # (3, 3, 0) and (0, 4, 2) both have pullback degree 12
    (lambda free: tuple(m for m in free if m != (3, 3, 0)),
     "degree 12 pins more than one monomial"),
    (lambda free: free + ((0, 4, 2),), "degree 12 has no monomial to carry"),
    # x^6 fixed and y^2*z^4 free: the x^6 normalization pins nothing
    (lambda free: tuple((0, 2, 4) if m == (6, 0, 0) else m for m in free),
     "normalization did not make the sextic unique"),
])
def test_sextic_with_a_wrong_free_set_is_refused(monkeypatch, change, message):
    monkeypatch.setattr(envres, "_SEXTIC_FREE", change(envres._SEXTIC_FREE))
    with pytest.raises(SexticSolveError, match=message):
        envres.solve_e8_sextic()


def test_sextic_with_a_repeated_unknown_is_refused(monkeypatch):
    plain = envres._weight_monomials

    def repeated(n, w, i=1):
        # the unknowns of x^4*y^2 (weight 6) list their first s-monomial twice
        vectors = plain(n, w, i)
        return vectors + vectors[:1] if (w, i) == (6, 1) else vectors

    monkeypatch.setattr(envres, "_weight_monomials", repeated)
    with pytest.raises(SexticSolveError, match="dimension 46, expected 45"):
        envres.solve_e8_sextic()


@pytest.mark.parametrize("change, message", [
    (lambda psi: 2 * psi, "leading pullback coefficient is not monic"),
    (lambda psi: psi + 1, "inconsistent linear system for the sextic"),
])
def test_sextic_over_a_wrong_psi_is_refused(monkeypatch, change, message):
    plain = envres.psi_n
    monkeypatch.setattr(envres, "psi_n", lambda n, table=None: change(plain(n, table)))
    with pytest.raises(SexticSolveError, match=message):
        envres.solve_e8_sextic()


# -- barred coefficients ----------------------------------------------------------------


E6_DISPLAYED_BARS = {
    "phib1": "s1", "phib2": "-s2", "ebar2": "0", "phib3p": "-s3", "phib3pp": "0",
    "phib4": "-s4", "ebar5": "-s1*s4 + s5", "phib6": "-s1*s5 + 2*s6", "ebar6": "0",
    "ebar8": "s1^2*s6 - s1*s2*s5 + s2*s6 + s3*s5",
    "ebar9": "s1*s2*s6 - s3*s6",
    "ebar12": "-s1^2*s4*s6 + s1*s2*s3*s6 + s1*s5*s6 - s3^2*s6 - s6^2",
}


def test_e6_full_barred_expansion_matches_display(pipe6):
    bars = pipe6.bar_rules(extended=True)
    for name, text in E6_DISPLAYED_BARS.items():
        assert bars[name] == P(6, text), name


def test_extension_pairs_recorded_as_data():
    assert [v for _, v in BAR_EXTENSION[6]] == ["ebar8", "ebar9", "ebar12"]


def test_bar_solve_lists_first_pairs(pipe6, pipe8):
    assert pipe6.bar_solvelist().pairs[0] == ((("x", 2), ("y", 6), ("z", 1)), "phib1")
    assert pipe8.bar_solvelist().pairs[0] == ((("x", 4), ("y", 14)), "ebar2")


def test_mod_m_coefficient_extraction_example(pipe6):
    reduced = reduce_mod_m(pipe6.rbar_pi(z_zero=False).apply(phibar_template(6)))
    coeff = reduced.coefficients_over("xyz")[2, 6, 1]
    assert coeff == pipeline_table(6).var("phib1")


def _rbar_param_first(pipe, z_zero):
    """Generator rules pulled back through the parameter before z is dropped."""
    gens = good_gens_bar(pipe.n)
    rules = []
    for name in ("Xb", "Yb", "Zb", "Wb"):
        p = pipe.param.apply(getattr(gens, name))
        rules.append((name, p.substitute({"z": 0}) if z_zero else p))
    return RuleSet.of(rules)


def _rbar_pulled_back(pipe, z_zero):
    """The plain stage's generator rules, z already dropped, pulled back."""
    return RuleSet.of([(v, pipe.param.apply(p)) for v, p in pipe.rbar_pi(z_zero).rules])


def _assert_same_rules(got, want):
    assert [v for v, _ in got.rules] == [v for v, _ in want.rules]
    for (_, p), (_, q) in zip(got.rules, want.rules):
        assert p.table is q.table and dict(p.items()) == dict(q.items())
    assert got.canonical_bytes() == want.canonical_bytes()


# the stages drop z and never see the parameter, which is pulled back
# afterwards; that is sound only where no parameter involves z


@pytest.mark.parametrize("case", KEY_CASES, ids=lambda c: c.label)
def test_rbar_drops_z_before_the_key_case_parameter(case, cache):
    param = case_param(case, case_restriction(case, cache))
    pipe = VersalPipeline(case.parent, param=param, cache=cache)
    for z_zero in (False, True):
        _assert_same_rules(_rbar_pulled_back(pipe, z_zero), _rbar_param_first(pipe, z_zero))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_rbar_drops_z_before_the_split_parameters(n, cache):
    for param in split_params_E(n):
        pipe = VersalPipeline(n, param=param, cache=cache)
        _assert_same_rules(_rbar_pulled_back(pipe, True), _rbar_param_first(pipe, True))


# SHA-256 of json.dumps([[name, p.serialize()], ...]) over the versal rules
# pulled back through each split parameter: any change to the kernel, the
# pull-back or the serialization that moves a byte shows here
SPLIT_PAIR_SHA256 = {
    (6, "plain"): "19daa9057998d1cf47b895051b907ed1608186288c5a1dc531d0cad87d8e6903",
    (6, "moved"): "5ee6693a4420d07aa3bfe28e1991a5d1758e40d450b4c52637cc97591ce81013",
    (7, "plain"): "69ea5bbaae6651e735cd2fb6386a04e8f313ba413438641dcf78bd4ff320a44f",
    (7, "moved"): "69ea5bbaae6651e735cd2fb6386a04e8f313ba413438641dcf78bd4ff320a44f",
}


@pytest.mark.parametrize("n", [6, 7])
def test_split_pair_rules_keep_their_bytes(n, cache):
    for tag, param in zip(("plain", "moved"), split_params_E(n)):
        rules = VersalPipeline(n, param=param, cache=cache).versal_rules()
        payload = json.dumps([[name, p.serialize()] for name, p in rules.rules])
        assert hashlib.sha256(payload.encode()).hexdigest() == SPLIT_PAIR_SHA256[n, tag], tag


def test_psi_values(pipe6, pipe7, pipe8):
    # the first triangular solutions: psi = -phibar/3 for n = 6 and 8,
    # psi = -phibar for n = 7
    assert pipe6.psi_rules()["psi1"] == -pipe6.bar_rules()["phib1"] / 3
    assert pipe6.psi_rules()["psi1"] == P(6, "-1/3*s1")
    assert pipe7.psi_rules()["psi2"] == -pipe7.bar_rules()["phib2"]
    assert pipe8.psi_rules()["psi4"] == -pipe8.bar_rules()["phib4"] / 3


# -- versal coefficients -------------------------------------------------------------------


def test_e6_matches_appendix1(pipe6):
    golden = load_golden("appendix1", pipeline_table(6))
    rules = pipe6.versal_rules()
    for name in eps_names(6):
        mult, want = golden[name]
        assert mult == APPENDIX_MULTIPLIERS[6][name]
        assert mult * rules[name] == want, name


def test_e7_matches_appendix2(pipe7):
    golden = load_golden("appendix2", pipeline_table(7))
    rules = pipe7.versal_rules()
    for name in eps_names(7):
        mult, want = golden[name]
        assert mult == APPENDIX_MULTIPLIERS[7][name]
        assert mult * rules[name] == want, name


def test_first_versal_values(pipe6, pipe7, pipe8):
    assert 6 * pipe6.versal_rules()["eps2"] == P(6, "-2*s1^2 + 3*s2")
    assert pipe7.versal_rules()["eps2"] == P(7, "3*s1^2 - 4*s2")
    assert pipe8.versal_rules()["eps2"] == P(8, "s1^2 - s2")


def test_versal_weights(pipe6, pipe7, pipe8):
    for n, pipe in ((6, pipe6), (7, pipe7), (8, pipe8)):
        rules = pipe.versal_rules()
        for name in eps_names(n):
            assert rules[name].homogeneous_weight() == int(name[3:]), (n, name)


def test_defining_polynomial_vanishes_on_the_image(pipe6, pipe7, pipe8):
    for n, pipe in ((6, pipe6), (7, pipe7), (8, pipe8)):
        solved = versal_template(n).substitute(pipe.versal_rules().mapping())
        assert pipe.r_pi().apply(solved).is_zero, n


def test_e8_constant_term_size(pipe8):
    count = pipe8.versal_rules()["eps30"].term_count()
    assert count <= 2462
    assert count == 1770  # reported: the footnote leaves the exact count open


def test_invalid_rank_rejected():
    with pytest.raises(ValueError):
        VersalPipeline(5)
    with pytest.raises(ValueError):
        good_gens_bar(9)


# -- the versal expansion keyed by its recipe ------------------------------------------


def _reversed_at(table, n):
    return {**table, n: table[n][::-1]}


def _doubled_mu_rules(monkeypatch, n):
    plain = envres.mu_rules
    monkeypatch.setattr(envres, "mu_rules",
                        lambda m: RuleSet.of([(v, 2 * p) for v, p in plain(m).rules]))


def _doubled_versal_template(monkeypatch, n):
    plain = envres._template
    monkeypatch.setattr(envres, "_template",
                        lambda m, barred: plain(m, barred) if barred else 2 * plain(m, barred))


def _doubled_generator(monkeypatch, n):
    plain = envres.good_gens_bar

    def doubled(m):
        gens = plain(m)
        return envres.GoodGenSet(gens.n, gens.Xb, gens.Yb, gens.Zb, 2 * gens.Wb)
    monkeypatch.setattr(envres, "good_gens_bar", doubled)


# each change, and whether it also moves the bar solve list's key
RECIPE_CHANGES = {
    "bar pairs": (lambda mp, n: mp.setattr(envres, "_BAR_PAIRS",
                                           _reversed_at(envres._BAR_PAIRS, n)), True),
    "psi pairs": (lambda mp, n: mp.setattr(envres, "_PSI_PAIRS",
                                           _reversed_at(envres._PSI_PAIRS, n)), False),
    "versal pairs": (lambda mp, n: mp.setattr(envres, "_VERSAL_PAIRS",
                                              _reversed_at(envres._VERSAL_PAIRS, n)), False),
    "mu rules": (_doubled_mu_rules, False),
    "versal template": (_doubled_versal_template, False),
    "generators": (_doubled_generator, True),
    "expansion version": (lambda mp, n: mp.setattr(solvelist, "EXPANSION_VERSION",
                                                   solvelist.EXPANSION_VERSION + 1), True),
}


def _keys(n, directory):
    # the recipe key and the generator rules are kept per rank and process:
    # drop them, so a patched input is read, and drop them again after, so
    # nothing built from a patched input outlives it
    envres._recipe_key.cache_clear()
    envres._rbar_pi.cache_clear()
    pipe = VersalPipeline(n, cache=RuleCache(directory))
    keys = pipe.versal_key(), pipe.bar_solvelist().content_key()
    envres._recipe_key.cache_clear()
    envres._rbar_pi.cache_clear()
    return keys


def test_recipe_key_differs_by_rank_and_from_the_bar_key(tmp_path):
    keys = [key for n in (6, 7, 8) for key in _keys(n, tmp_path)]
    assert len(set(keys)) == 6


@pytest.mark.parametrize("change", list(RECIPE_CHANGES))
def test_recipe_key_changes_with_each_input(change, tmp_path, monkeypatch):
    before = {n: _keys(n, tmp_path) for n in (6, 7, 8)}
    patch, moves_bar = RECIPE_CHANGES[change]
    for n in (6, 7, 8):
        with monkeypatch.context() as mp:
            patch(mp, n)
            versal, bar = _keys(n, tmp_path)
        assert versal != before[n][0], n
        assert (bar != before[n][1]) == moves_bar, n


def test_recipe_key_is_built_once_per_rank(tmp_path, monkeypatch):
    envres._recipe_key.cache_clear()
    calls = []
    bar_solvelist = VersalPipeline.bar_solvelist
    monkeypatch.setattr(VersalPipeline, "bar_solvelist",
                        lambda self, extended=False: calls.append(self.n)
                        or bar_solvelist(self, extended))
    keys = {n: {VersalPipeline(n, cache=RuleCache(tmp_path)).versal_key() for _ in range(3)}
            for n in (6, 7, 8)}
    assert calls == [6, 7, 8] and all(len(k) == 1 for k in keys.values())
    envres._recipe_key.cache_clear()


def _raise(*args, **kwargs):
    raise AssertionError("a warm recipe hit built a stage")


def test_warm_recipe_hit_builds_no_stage(cache, monkeypatch):
    case = key_case("E6:v0")
    want = {n: VersalPipeline(n, cache=cache).versal_rules() for n in (6, 7, 8)}
    want_split = [VersalPipeline(6, param=p, cache=cache).versal_rules() for p in split_params_E(6)]
    want_key = key_constant(case, cache)
    for owner, attr in ((VersalPipeline, "bar_rules"), (VersalPipeline, "psi_rules"),
                        (VersalPipeline, "r_pi"), (VersalPipeline, "versal_solvelist"),
                        (SolveList, "expand")):
        monkeypatch.setattr(owner, attr, _raise)
    # fresh caches over the filled directory: every value comes from disk
    for n in (6, 7, 8):
        got = VersalPipeline(n, cache=RuleCache(cache.directory)).versal_rules()
        assert got.canonical_bytes() == want[n].canonical_bytes(), n
    for param, rules in zip(split_params_E(6), want_split):
        got = VersalPipeline(6, param=param, cache=RuleCache(cache.directory)).versal_rules()
        assert got.canonical_bytes() == rules.canonical_bytes()
    assert key_constant(case, RuleCache(cache.directory)) == want_key


@pytest.mark.parametrize("n", [6, 7, 8])
def test_recipe_entry_is_the_versal_expansion(n, cache, request):
    pipe = request.getfixturevalue(f"pipe{n}")
    pipe.versal_rules()
    stored = RuleCache(cache.directory).get(pipe.versal_key())
    expanded = pipe.versal_solvelist().expand()
    assert [[v, p.serialize()] for v, p in stored.rules] == \
        [[v, p.serialize()] for v, p in expanded.rules]


def test_recipe_templates_are_shared_and_unchanged_by_arithmetic():
    for template in (phibar_template, versal_template):
        t = template(7)
        text, terms = t.serialize(), dict(t.items())
        table = t.table
        t * t, t + table.var("X"), -t, 3 * t, t.substitute({"X": table.var("Y")})
        t += table.var("s1")
        assert template(7) is not t
        assert template(7).serialize() == text and dict(template(7).items()) == terms
        assert template(7) is template(7)


def test_warm_rerun_cache_traffic_reads_every_entry_and_writes_none(tmp_path, monkeypatch):
    """A cold run writes only entries that a warm rerun reads, so no
    stage of the pipeline is written."""
    commands = [["invariants", "--type", "E8"], ["verify", "appendix0"],
                ["verify", "appendix1"], ["verify", "appendix2"], ["congruence", "--all"]]

    def run_all():
        for argv in commands:
            assert main(["--cache-dir", str(tmp_path), *argv]) == 0, argv

    run_all()
    assert [path.name for path in tmp_path.iterdir()] == [solvelist.ENTRY_FORMAT]
    entries = {path.stem for path in (tmp_path / solvelist.ENTRY_FORMAT).iterdir()}
    assert len(entries) == 22
    # each command makes a fresh RuleCache, whose memory starts empty
    read, written = set(), []
    get = RuleCache.get

    def get_from_disk(self, key):
        in_memory = key in self._memory
        rules = get(self, key)
        if rules is not None and not in_memory:
            read.add(key)
        return rules

    monkeypatch.setattr(RuleCache, "get", get_from_disk)
    monkeypatch.setattr(RuleCache, "put", lambda self, key, rules: written.append(key))
    run_all()
    assert read == entries and written == []
