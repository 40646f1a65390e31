from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rdpinv.distpoly import elem_sym, ts_table
from rdpinv.poly import VarTable
from rdpinv.rootsys import (
    Spec,
    UnsupportedSplitError,
    distinguished_functionals,
    dual_basis_in_t,
    inner,
    root_basis,
    supported_splits,
    vertex_parts,
    vertex_split,
    weyl_action,
)

ALL = ["A1", "A2", "A4", "A7", "A8", "D2", "D3", "D4", "D6", "D8",
       "E3", "E4", "E5", "E6", "E7", "E8"]


def test_spec_names_and_bounds():
    assert Spec.from_name("A4") == Spec("A", 5)
    assert Spec.from_name("D5").n == 5
    assert Spec("A", 5).name == "A4"
    with pytest.raises(ValueError):
        Spec("E", 9)
    with pytest.raises(ValueError):
        Spec("D", 1)


def test_table_one_examples():
    a = distinguished_functionals(Spec("A", 4))
    ta = Spec("A", 4).dual_table()
    assert a[1] == -ta.var("vs1") + ta.var("vs2")
    d = distinguished_functionals(Spec("D", 5))
    td = Spec("D", 5).dual_table()
    assert d[4] == -td.var("vs4") + td.var("vs5")
    e = distinguished_functionals(Spec("E", 6))
    te = Spec("E", 6).dual_table()
    assert e[0] == te.var("vs1") - Fraction(2, 3) * te.var("vs0")


def test_dual_basis_examples():
    da = dual_basis_in_t(Spec("A", 5))
    ta = Spec("A", 5).t_table()
    assert da["vs2"] == ta.var("t1") + ta.var("t2")
    dd = dual_basis_in_t(Spec("D", 4))
    td = Spec("D", 4).t_table()
    s1 = sum((td.var(f"t{i}") for i in range(2, 5)), td.var("t1"))
    assert dd["vs4"] == Fraction(1, 2) * s1
    de = dual_basis_in_t(Spec("E", 7))
    te = Spec("E", 7).t_table()
    s1e = sum((te.var(f"t{i}") for i in range(2, 8)), te.var("t1"))
    assert de["vs0"] == Fraction(3, 7 - 9) * s1e


def test_a_family_functionals_sum_to_zero():
    for name in ("A1", "A4", "A8"):
        spec = Spec.from_name(name)
        fs = distinguished_functionals(spec)
        total = fs[0].table.zero()
        for f in fs:
            total = total + f
        assert total.is_zero


def test_dual_composition_is_identity():
    for name in ALL:
        spec = Spec.from_name(name)
        dual = dual_basis_in_t(spec)
        tt = spec.t_table()
        s1 = tt.zero()
        for i in range(1, spec.n + 1):
            s1 = s1 + tt.var(f"t{i}")
        for i, f in enumerate(distinguished_functionals(spec), start=1):
            diff = dual.apply(f) - tt.var(f"t{i}")
            if spec.family == "A" and spec.n > 1:
                diff = diff.substitute({f"t{spec.n}": tt.var(f"t{spec.n}") - s1})
            assert diff.is_zero, (name, i)


def test_generator_actions_are_involutions():
    for name in ALL:
        spec = Spec.from_name(name)
        for g in spec.generators():
            act = weyl_action(spec, g)
            for v, p in act.rules:
                assert act.apply(p) == spec.t_table().var(v), (name, g, v)


def test_permutation_and_sign_actions():
    spec = Spec("D", 4)
    tt = spec.t_table()
    swap = weyl_action(spec, 2)
    assert swap["t2"] == tt.var("t3") and swap["t3"] == tt.var("t2")
    flip = weyl_action(spec, 4)
    assert flip["t3"] == -tt.var("t4") and flip["t4"] == -tt.var("t3")
    with pytest.raises(ValueError):
        weyl_action(spec, 0)


def test_e_generator_action():
    spec = Spec("E", 6)
    tt = spec.t_table()
    act = weyl_action(spec, 0)
    sigma = tt.var("t1") + tt.var("t2") + tt.var("t3")
    assert act["t2"] == tt.var("t2") - Fraction(2, 3) * sigma
    assert act["t5"] == tt.var("t5") + Fraction(1, 3) * sigma


COEFFS = [1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]


@st.composite
def t_polys(draw, spec):
    """A polynomial in t_1..t_n of degree at most 6, not symmetric, on the
    t-table or compacted to the variables it uses."""
    tt = spec.t_table()
    ts = [tt.var(f"t{i}") for i in range(1, spec.n + 1)]
    p = tt.zero()
    for _ in range(draw(st.integers(1, 6))):
        term = tt.const(draw(st.sampled_from(COEFFS)))
        for i in draw(st.lists(st.integers(0, spec.n - 1), max_size=6)):
            term = term * ts[i]
        p = p + term
    swaps = [{f"t{i}": ts[i], f"t{i+1}": ts[i - 1]} for i in range(1, spec.n)]
    assume(any(p.substitute(swap) != p for swap in swaps))
    return p.compact() if draw(st.booleans()) else p


@pytest.mark.parametrize("name", ["A3", "D2", "D5", "E3", "E6", "E8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reflection_matches_substitution_and_is_an_involution(name, data):
    spec = Spec.from_name(name)
    p = data.draw(t_polys(spec))
    for g in spec.generators():
        act = weyl_action(spec, g)
        moved, oracle = act.apply(p), p.substitute(act.mapping())
        assert moved == oracle and moved.table is oracle.table, (name, g)
        assert act.apply(moved) == p, (name, g)


def test_reflection_passes_other_variables_through():
    table = ts_table(6)
    p = table.var("U") ** 2 * table.var("t1") * table.var("t5") - table.var("s3") * table.var("t2")
    for g in Spec("E", 6).generators():
        act = weyl_action(Spec("E", 6), g)
        moved, oracle = act.apply(p), p.substitute(act.mapping())
        assert moved == oracle and moved.table is oracle.table, g


def test_e3_invariants_fixed():
    spec = Spec("E", 3)
    tt = spec.t_table()
    ts = [tt.var(f"t{i}") for i in (1, 2, 3)]
    s1 = ts[0] + ts[1] + ts[2]
    s2 = elem_sym(ts, 2)
    s3 = elem_sym(ts, 3)
    gens = [s1 ** 2, s2, s3 - Fraction(1, 3) * s1 * s2 + Fraction(2, 27) * s1 ** 3]
    for g in spec.generators():
        act = weyl_action(spec, g)
        for inv in gens:
            assert act.apply(inv) == inv


def test_d_invariants_fixed():
    for n in (2, 3, 5):
        spec = Spec("D", n)
        ts = [spec.t_table().var(f"t{i}") for i in range(1, n + 1)]
        gamma = elem_sym(ts, n)
        deltas = [elem_sym([t * t for t in ts], i) for i in range(1, n)]
        for g in spec.generators():
            act = weyl_action(spec, g)
            for inv in [gamma] + deltas:
                assert act.apply(inv) == inv


def test_vertex_split_orthogonality_everywhere():
    for name in ALL:
        spec = Spec.from_name(name)
        for k in supported_splits(spec):
            vs = vertex_split(spec, k)
            basis = root_basis(spec)
            for i in vs.left_map + vs.right_map:
                assert inner(vs.tilde_v, basis[i]) == 0, (name, k)


def test_part_identifications_respect_the_diagram():
    # adjacency must be preserved: part basis vectors pair to -2/0/1 patterns
    for name in ("E6", "E7", "E8"):
        spec = Spec.from_name(name)
        for k in supported_splits(spec):
            vs = vertex_split(spec, k)
            basis = root_basis(spec)
            for i in vs.left_map + vs.right_map:
                assert inner(basis[i], basis[i]) == -2


def test_unsupported_split_rejected():
    # D6 v5 is the omitted next-to-last vertex; A4 v5 lies past the diagram
    names = [f"A{r}" for r in range(1, 9)] + [f"D{r}" for r in range(2, 9)] \
        + [f"E{r}" for r in range(3, 9)]
    for name in names:
        spec = Spec.from_name(name)
        for k in range(-1, spec.n + 2):
            if k in supported_splits(spec):
                vs = vertex_split(spec, k)
                assert vertex_parts(spec, k) == (vs.left, vs.right), (name, k)
                # removing one vertex leaves the parts one rank in all
                ranks = vs.left.lie_rank + (vs.right.lie_rank if vs.right else 0)
                assert ranks == spec.lie_rank - 1, (name, k)
                continue
            for split in (vertex_split, vertex_parts):
                with pytest.raises(UnsupportedSplitError) as info:
                    split(spec, k)
                assert str(info.value) == f"no splitting of {name} at vertex {k}", split


def test_split_rules_match_direct_examples():
    # parent functionals in terms of the vertex coordinate and part functionals
    vs = vertex_split(Spec("A", 6), 2)
    table = vs.rules.rules[0][1].table
    assert vs.rules["t1"] == Fraction(1, 2) * table.var("mu1") + table.var("tp1")
    assert vs.rules["t3"] == Fraction(-1, 4) * table.var("mu1") + table.var("tq1")
    vs1 = vertex_split(Spec("E", 6), 1)
    table = vs1.rules.rules[0][1].table
    sp1 = sum((table.var(f"tp{i}") for i in range(2, 6)), table.var("tp1"))
    assert vs1.rules["t1"] == Fraction(9 - 6, 6) * table.var("mu1") - Fraction(1, 3) * sp1


def test_root_basis_vectors_have_norm_minus_two():
    for name in ALL:
        spec = Spec.from_name(name)
        for v in root_basis(spec).values():
            assert inner(v, v) == -2


def test_e4_and_a4_are_distinct_types():
    e4 = distinguished_functionals(Spec("E", 4))
    a4 = distinguished_functionals(Spec("A", 5))
    assert len(e4) == 4 and len(a4) == 5
    assert e4[0] != a4[0]
