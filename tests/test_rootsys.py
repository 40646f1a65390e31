from fractions import Fraction
from itertools import accumulate, permutations, product

import pytest
from conftest import distinguished_functionals, dual_basis_in_t, dual_table, elem_sym, written
from hypothesis import assume, given, settings, strategies as st

from rdpinv.distpoly import ts_table
from rdpinv.poly import VarTable
from rdpinv.rootsys import (
    OrbitSums,
    Spec,
    UnsupportedSplitError,
    inner,
    reflection_blocks,
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
    ta = dual_table(Spec("A", 4))
    assert a[1] == -ta.var("vs1") + ta.var("vs2")
    d = distinguished_functionals(Spec("D", 5))
    td = dual_table(Spec("D", 5))
    assert d[4] == -td.var("vs4") + td.var("vs5")
    e = distinguished_functionals(Spec("E", 6))
    te = dual_table(Spec("E", 6))
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


# -- the orbit-sum store ----------------------------------------------------------

#: x, y and z after two more names, so a store's names need not start the table
WVXYZ = VarTable(["w", "v", "x", "y", "z"], [3, 1, 1, 2, 0])


def _block_spans(blocks):
    ends = list(accumulate(blocks))
    return list(zip([0] + ends[:-1], ends))


def _descending_in_blocks(e, blocks):
    return tuple(x for a, b in _block_spans(blocks) for x in sorted(e[a:b], reverse=True))


def _orbit_groups(p, names, blocks):
    """``(den, groups)``: p's numerators over ``names``, grouped by the
    representative of each exponent vector under the permutations within
    ``blocks``."""
    den, terms = p.numerators_over(names)
    groups: dict = {}
    for e, (n,) in terms.items():
        groups.setdefault(_descending_in_blocks(e, blocks), []).append(n)
    return den, groups


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([(3,), (2, 1), (1, 2), (1, 1, 1)]).flatmap(lambda blocks: st.tuples(
           st.just(blocks), st.dictionaries(st.tuples(*[st.integers(0, 130)] * 3).map(
               lambda e: _descending_in_blocks(e, blocks)), st.integers(-20, 20), max_size=5))),
       st.integers(1, 30), st.permutations(WVXYZ.names))
def test_orbit_store_round_trips_on_blocks(case, den, order):
    """A store on blocks of consecutive names, written out, reads back
    grouped by representative as every orbit with its one numerator, and
    those numerators give the store again."""
    blocks, reps = case
    names = order[:3]
    orbit = lambda r: set(product(*[permutations(r[a:b]) for a, b in _block_spans(blocks)]))
    store = OrbitSums.of(WVXYZ, names, blocks, reps, den)
    d, groups = _orbit_groups(written(store), names, blocks)
    assert d == store.den
    assert {r: sorted(ns) for r, ns in groups.items()} == {
        r: [n] * len(orbit(r)) for r, n in store.numerators.items()}
    assert OrbitSums.of(WVXYZ, names, blocks, {r: ns[0] for r, ns in groups.items()}, d) == store


@pytest.mark.parametrize("blocks", [(2,), (3, 1), (2, 0, 1), [1, 2.0]])
def test_orbit_store_rejects_blocks_that_do_not_split_the_names(blocks):
    names = WVXYZ.names[:3]
    with pytest.raises(ValueError, match="do not split"):
        OrbitSums.of(WVXYZ, names, blocks, {(1, 0, 0): 1})


@pytest.mark.parametrize("blocks, key", [((1, 2), (1, 0)), ((1, 2), (1, 0, 0, 0)),
                                         ((1, 2), (1, 0, 1)), ((3,), (0, 1, 0))])
def test_orbit_store_rejects_a_key_that_is_no_representative(blocks, key):
    with pytest.raises(ValueError, match="not descending"):
        OrbitSums.of(WVXYZ, WVXYZ.names[:3], blocks, {key: 1})


@pytest.mark.parametrize("numerators, den", [
    ({(1, 0): 1.5}, 1), ({(1, 0): Fraction(3, 2)}, 1), ({(1, 0): True}, 1), ({(1, 0): 2}, -4),
    ({(1, 0): 1}, 0), ({}, 0), ({}, -1), ({(1, 0): 1}, 2.0)])
@pytest.mark.parametrize("build", [OrbitSums, OrbitSums.of])
def test_orbit_store_rejects_numerators_that_are_not_canonical(build, numerators, den):
    # int numerators over a positive int, else stores of one polynomial could differ
    with pytest.raises(ValueError, match="not integer numerators"):
        build(ts_table(2), ("t1", "t2"), (2,), numerators, den)


def test_orbit_store_keeps_names_and_blocks_as_tuples():
    # a store built from lists is the one that of() builds from the same data;
    # its numerators are a dict, so the store itself has no hash, but its
    # names and blocks hash as of()'s do
    t = ts_table(2)
    direct = OrbitSums(t, ["t1", "t2"], [1, 1], {(1, 0): 1})
    built = OrbitSums.of(t, ["t1", "t2"], [1, 1], {(1, 0): 1})
    assert direct == built
    assert hash((direct.names, direct.blocks)) == hash((built.names, built.blocks))
    assert repr(direct) == repr(built)
    assert "names=('t1', 't2'), blocks=(1, 1)" in repr(direct)


@st.composite
def stores(draw, spec, blocks):
    """A store on the t-table on the given blocks: up to four orbits of
    degree at most 6, each keyed by an exponent vector descending within
    each block, with integer numerators over a small denominator."""
    n = spec.n
    reps = {}
    for _ in range(draw(st.integers(1, 4))):
        e = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=6)):
            e[i] += 1
        at = 0
        for b in blocks:
            e[at:at + b] = sorted(e[at:at + b], reverse=True)
            at += b
        reps[tuple(e)] = draw(st.integers(-3, 3))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    return OrbitSums.of(spec.t_table(), spec.t_table().names, blocks, reps, den)


def test_reflection_blocks_are_the_runs_of_coroot_and_form():
    assert reflection_blocks(Spec("E", 6), 0) == (3, 3)
    assert reflection_blocks(Spec("E", 4), 0) == (3, 1)
    assert reflection_blocks(Spec("E", 5), 0) == (3, 2)
    assert reflection_blocks(Spec("E", 3), 0) == (3,)
    assert reflection_blocks(Spec("D", 7), 7) == (5, 2)
    assert reflection_blocks(Spec("D", 2), 2) == (2,)
    assert reflection_blocks(Spec("A", 6), 1) == (1, 1, 4)
    assert reflection_blocks(Spec("E", 8), 4) == (3, 1, 1, 3)
    assert reflection_blocks(Spec("E", 8), 7) == (6, 1, 1)


@pytest.mark.parametrize("name", ["A3", "D2", "D5", "E3", "E6", "E8"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_reflection_matches_substitution_and_is_an_involution(name, data):
    """On a store symmetric under each generator's blocks, and not under
    S_n where the blocks allow it, the reflection on orbit sums, written
    out, is the substitution of its rules, and it undoes itself."""
    spec = Spec.from_name(name)
    ts = [spec.t_table().var(f"t{i}") for i in range(1, spec.n + 1)]
    swaps = [{f"t{i}": ts[i], f"t{i+1}": ts[i - 1]} for i in range(1, spec.n)]
    for g in spec.generators():
        blocks = reflection_blocks(spec, g)
        store = data.draw(stores(spec, blocks))
        p = written(store)
        assume(len(blocks) == 1 or any(p.substitute(swap) != p for swap in swaps))
        act = weyl_action(spec, g)
        moved = act.apply(store)
        oracle = p.substitute(act.mapping())
        assert moved.blocks == blocks and written(moved) == oracle, (name, g)
        assert act.apply(moved) == store, (name, g)


def test_reflection_rejects_a_store_it_does_not_commute_with():
    spec = Spec("E", 6)
    names = spec.t_table().names
    rep = {(2, 1, 1, 0, 0, 0): 1}  # a representative on (2, 4) and on one-element blocks
    with pytest.raises(ValueError, match="not constant on the blocks"):
        weyl_action(spec, 0).apply(OrbitSums.of(spec.t_table(), names, (2, 4), rep))
    with pytest.raises(ValueError, match="outside"):
        weyl_action(spec, 0).apply(OrbitSums.of(spec.t_table(), names[:5], (3, 2), {}))
    # finer blocks than the reflection's are fine
    fine = OrbitSums.of(spec.t_table(), names, (1,) * 6, rep)
    assert written(weyl_action(spec, 0).apply(fine)) == written(fine).substitute(
        weyl_action(spec, 0).mapping())


def test_reflection_passes_other_variables_through():
    # a plain polynomial is moved by its rules alone: the image of each
    # t-factor is its rule value, and U and s3 are left as they are
    table = ts_table(6)
    U, s3 = table.var("U"), table.var("s3")
    for g in Spec("E", 6).generators():
        act = weyl_action(Spec("E", 6), g)
        t = {v: act[v] if v in act else table.var(v) for v in ("t1", "t2", "t5")}
        moved = act.apply(U ** 2 * table.var("t1") * table.var("t5") - s3 * table.var("t2"))
        assert moved == U ** 2 * t["t1"] * t["t5"] - s3 * t["t2"], g
        assert moved.table is table, g


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
