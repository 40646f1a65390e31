"""The frozen record base against the dataclass behaviour it replaces.

Each record type is compared with a frozen dataclass made from the same
field names: construction, defaults, equality, hashing and ``repr``.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import rdpinv
from rdpinv._record import _MISSING, Record
from rdpinv.classify import RdpType, SectionBound, ValuationProfile
from rdpinv.congruence import KEY_CASES, KeyCase, KeyResult, RelationReport, RestrictedPoly
from rdpinv.distpoly import DistData, E45Report, ts_table
from rdpinv.envres import GoodGenSet
from rdpinv.poly import OrbitSums, VarTable, parse
from rdpinv.rootsys import Reflection, Spec, VertexSplit, vertex_split, weyl_action
from rdpinv.solvelist import RuleSet, SolveList

# every record type and its fields, in the order the dataclasses had them
FIELDS = {
    RdpType: ("family", "rank"),
    ValuationProfile: ("type_name", "orders"),
    SectionBound: ("column", "witness"),
    RelationReport: ("spec", "k", "difference"),
    RestrictedPoly: ("spec", "r", "s_rules", "vanishing", "pulls"),
    KeyCase: ("parent", "k", "length", "phi_side", "target", "terms", "section"),
    KeyResult: ("case", "computed", "expected", "eps_pullback", "phi_pullback"),
    DistData: ("spec", "f_t", "f_s", "g", "P", "Q", "S", "G", "G_hom"),
    E45Report: ("matches",),
    GoodGenSet: ("n", "Xb", "Yb", "Zb", "Wb"),
    OrbitSums: ("table", "names", "blocks", "numerators", "den"),
    Spec: ("family", "n"),
    Reflection: ("rules", "form", "coroot"),
    VertexSplit: ("spec", "k", "left", "right", "rules", "tilde_v", "left_map", "right_map"),
    RuleSet: ("rules",),
    SolveList: ("base", "template", "pairs", "monomial_vars"),
}

R = VarTable(["x", "y"], [1, 1])
X, Y = R.var("x"), R.var("y")


def _mirror(cls):
    """A frozen dataclass of the same name and fields, no methods of its own."""
    return make_dataclass(cls.__name__, list(cls._fields), frozen=True)


# and the fields that had a default
DEFAULTS = {DistData: dict.fromkeys(("g", "P", "Q", "S", "G", "G_hom")), OrbitSums: {"den": 1}}


def test_every_record_has_the_dataclass_fields():
    assert {cls: tuple(cls._fields) for cls in FIELDS} == FIELDS
    assert set(FIELDS) == {c for c in _subclasses(Record) if c.__module__.startswith("rdpinv.")}
    defaults = {cls: {f: d for f, d in cls._fields.items() if d is not _MISSING} for cls in FIELDS}
    assert {cls: d for cls, d in defaults.items() if d} == DEFAULTS


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_missing_arguments_raise():
    with pytest.raises(TypeError, match="missing required arguments: 'n'"):
        Spec("E")
    with pytest.raises(TypeError, match="'rank'"):
        RdpType(family="A")
    with pytest.raises(TypeError, match="'f_s'"):
        DistData(Spec("A", 2), X)


def test_extra_positional_arguments_raise():
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        Spec("E", 6, 1)
    with pytest.raises(TypeError, match="takes 1 positional arguments but 2 were given"):
        RuleSet((), ())


def test_unknown_or_repeated_keywords_raise():
    with pytest.raises(TypeError, match="unexpected keyword argument 'rank'"):
        Spec("E", n=6, rank=6)
    with pytest.raises(TypeError, match="unexpected keyword argument 'rank'"):
        Spec("E", 6, rank=6)
    with pytest.raises(TypeError, match="multiple values for argument 'family'"):
        Spec("E", family="D", n=6)


def test_keywords_and_positions_bind_alike():
    assert Spec(family="E", n=6) == Spec("E", n=6) == Spec("E", 6)
    assert SectionBound(witness=("eps2", 1), column=None) == SectionBound(None, ("eps2", 1))


def test_defaults():
    spec = Spec("A", 2)
    d = DistData(spec, X, Y)
    assert (d.g, d.P, d.Q, d.S, d.G, d.G_hom) == (None,) * 6
    assert DistData(spec, X, Y, G_hom=X).G_hom == X and DistData(spec, X, Y, G_hom=X).g is None
    assert OrbitSums(R, ("x", "y"), (2,), {(1, 0): 3}).den == 1
    assert OrbitSums(R, ("x", "y"), (2,), {(1, 0): 3}, den=5).den == 5


def test_fields_cannot_be_assigned_or_deleted():
    spec = Spec("E", 6)
    with pytest.raises(AttributeError):
        spec.n = 7
    with pytest.raises(AttributeError):
        spec.extra = 1
    with pytest.raises(AttributeError):
        del spec.n
    assert spec == Spec("E", 6)


def test_post_init_still_checks():
    with pytest.raises(ValueError, match="E family needs"):
        Spec("E", 9)
    with pytest.raises(ValueError, match="defined twice"):
        RuleSet((("x", X), ("x", Y)))
    with pytest.raises(ValueError, match="not descending"):
        OrbitSums(R, ("x", "y"), (2,), {(0, 1): 1})
    with pytest.raises(ValueError, match="not descending"):
        OrbitSums(table=R, names=("x", "y"), blocks=(2,), numerators={(0, 1): 1}, den=3)


def test_cached_properties_still_work():
    rules = RuleSet.of({"x": Y, "y": X + Y})
    assert rules["y"] == X + Y and "x" in rules
    assert rules.apply(X * Y) == Y * (X + Y)
    assert rules == RuleSet.of({"x": Y, "y": X + Y})


def _samples():
    """Constructor arguments for records made of hashable values, two each."""
    case = KEY_CASES[0]
    return {
        Spec: [("E", 6), ("D", 6)],
        RdpType: [("E", 6), ("E", 7)],
        SectionBound: [(None, ("eps2", 1)), ("c", None)],
        KeyCase: [tuple(getattr(case, f) for f in FIELDS[KeyCase]),
                  tuple(getattr(KEY_CASES[1], f) for f in FIELDS[KeyCase])],
    }


@pytest.mark.parametrize("cls", list(_samples()), ids=lambda c: c.__name__)
def test_equality_hash_and_repr_match_a_dataclass(cls):
    mirror = _mirror(cls)
    (a, b) = _samples()[cls]
    assert cls(*a) == cls(*a) and not cls(*a) != cls(*a)
    assert cls(*a) != cls(*b) and mirror(*a) != mirror(*b)
    assert hash(cls(*a)) == hash(mirror(*a)) == hash(a)
    assert cls.__eq__(cls(*a), mirror(*a)) is NotImplemented and cls(*a) != mirror(*a)
    if "__repr__" not in vars(cls):
        assert repr(cls(*a)) == repr(mirror(*a))


def test_repr_format():
    assert repr(Spec("E", 6)) == "Spec(family='E', n=6)"
    assert repr(SectionBound(None, ("eps2", 1))) == "SectionBound(column=None, witness=('eps2', 1))"
    assert repr(RuleSet.of({"x": Y})) == f"RuleSet(rules=(('x', {Y!r}),))"


def test_records_holding_polynomials_compare_by_value_and_do_not_hash():
    d = DistData(Spec("A", 2), X, Y)
    assert d == DistData(Spec("A", 2), X, Y) and d != DistData(Spec("A", 2), X, X)
    assert repr(d) == repr(_mirror(DistData)(Spec("A", 2), X, Y, *[None] * 6))
    with pytest.raises(TypeError):
        hash(d)
    with pytest.raises(TypeError):
        hash(E45Report({"E4": True}))


def test_spec_is_an_lru_cache_key():
    calls = []

    @lru_cache(maxsize=None)
    def rank(spec):
        calls.append(spec)
        return spec.n

    assert [rank(Spec("E", 6)), rank(Spec("E", 6)), rank(Spec("D", 6))] == [6, 6, 6]
    assert calls == [Spec("E", 6), Spec("D", 6)]


def test_a_reflection_never_equals_a_rule_set():
    r = weyl_action(Spec("E", 6), 0)
    plain = RuleSet(r.rules)
    assert r == weyl_action(Spec("E", 6), 0) and plain == RuleSet(r.rules)
    assert r != plain and plain != r
    assert r.__eq__(plain) is NotImplemented and plain.__eq__(r) is NotImplemented
    assert r["t1"] == plain["t1"]


def test_a_subclass_takes_its_base_fields_first():
    r = weyl_action(Spec("E", 6), 0)
    assert Reflection(r.rules, r.form, r.coroot) == r
    assert Reflection(rules=r.rules, coroot=r.coroot, form=r.form) == r
    with pytest.raises(ValueError, match="defined twice"):
        Reflection(r.rules + r.rules[:1], r.form, r.coroot)


# The first round trips check the record base itself, so their polynomial
# fields hold other values; the last puts polynomials in them.


def test_key_results_and_rule_sets_survive_pickling():
    case = KEY_CASES[0]
    result = KeyResult(case, (Fraction(1, 3),), (Fraction(1, 3),), "eps", "phi")
    back = pickle.loads(pickle.dumps(result))
    assert back == result and back.case == case and back.ok
    assert hash(back.case) == hash(case) and repr(back) == repr(result)
    rules = RuleSet((("x", 1), ("y", 2)))
    assert rules["x"] == 1  # fills the cached lookup, which travels with it
    back = pickle.loads(pickle.dumps(rules))
    assert back == rules and back["y"] == 2 and "x" in back
    with pytest.raises(AttributeError):
        back.rules = ()


def test_records_of_polynomials_survive_pickling():
    # a VarTable is rebuilt through its interning constructor, so every
    # polynomial that comes back shares the one table of this process
    t = VarTable(["x", "y"], [1, 2])
    p = parse("x^2 - 1/3*y + 2", t)
    q = parse("x*y", t)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.table is t and back.serialize() == p.serialize()
    rules = RuleSet.of({"x": p, "y": q})
    back = pickle.loads(pickle.dumps(rules))
    assert back == rules and back["x"].table is t and back["y"] == q
    result = KeyResult(KEY_CASES[0], (Fraction(1, 3),), (Fraction(1, 3),), p, q)
    back = pickle.loads(pickle.dumps(result))
    assert back == result and back.eps_pullback.table is t and back.phi_pullback == q


def test_vertex_split_and_solve_list_are_records():
    split = vertex_split(Spec("E", 6), 3)
    assert split == vertex_split(Spec("E", 6), 3) and isinstance(split, VertexSplit)
    t = ts_table(2)
    sl = SolveList.of(RuleSet.identity(), parse("U^2 + s1*U", t), [({"U": 1}, "s1")], ("U",))
    assert sl.pairs == (((("U", 1),), "s1"),) and sl.monomial_vars == ("U",)


def test_importing_the_cli_loads_no_dataclass_machinery():
    src = str(Path(rdpinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rdpinv.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
