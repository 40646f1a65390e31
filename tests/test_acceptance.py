"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy expansions stream through the shared rule cache, so
repeated runs are fast.
"""

import random
from fractions import Fraction

import pytest
from conftest import full_bar_rules, invariant_under_split

from rdpinv.classify import ValuationProfile, rdp_type, section_type
from rdpinv.cli import load_golden
from rdpinv.congruence import KEY_CASES, dist_relation, key_constant
from rdpinv.distpoly import (
    e45_check,
    invariant_under_literal,
    pq_split,
    split_params_E,
    standard_coords,
)
from rdpinv.envres import (
    VersalPipeline,
    eps_names,
    good_gens_bar,
    pipeline_table,
)
from rdpinv.poly import VarTable, parse
from rdpinv.rootsys import Spec, supported_splits


def report(criterion: int, label: str, ok: bool) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {label}")
    return ok


def test_criterion_1_appendix1_exact(pipe6):
    golden = load_golden("appendix1", pipeline_table(6))
    rules = pipe6.versal_rules()
    ok = True
    for name in eps_names(6):
        mult, want = golden[name]
        ok = (mult * rules[name] == want) and ok
    multipliers = tuple(golden[nm][0] for nm in eps_names(6))
    assert multipliers == (6, 81, 1944, 34992, 78732, 11337408)
    assert report(1, "six-variable generators match appendix 1 term for term", ok)


def test_criterion_2_appendix2_exact(pipe7):
    golden = load_golden("appendix2", pipeline_table(7))
    rules = pipe7.versal_rules()
    ok = True
    for name in eps_names(7):
        mult, want = golden[name]
        ok = (mult * rules[name] == want) and ok
    multipliers = tuple(golden[nm][0] for nm in eps_names(7))
    assert multipliers == (1, 48, 48, 16, 6912, 768, 9 * 16 ** 3)
    assert report(2, "seven-variable generators match appendix 2 term for term", ok)


def test_criterion_3_appendix0_derived_sextic():
    golden = load_golden("appendix0", pipeline_table(8))
    derived = good_gens_bar(8).Yb
    ok = derived == golden["Yb"][1]
    assert report(3, "weight-16 sextic derived from base conditions matches appendix 0", ok)


def test_criterion_4_full_barred_expansion(pipe6):
    expected = {
        "phib1": "s1", "phib2": "-s2", "ebar2": "0", "phib3p": "-s3",
        "phib3pp": "0", "phib4": "-s4", "ebar5": "-s1*s4 + s5",
        "phib6": "-s1*s5 + 2*s6", "ebar6": "0",
        "ebar8": "s1^2*s6 - s1*s2*s5 + s2*s6 + s3*s5",
        "ebar9": "s1*s2*s6 - s3*s6",
        "ebar12": "-s1^2*s4*s6 + s1*s2*s3*s6 + s1*s5*s6 - s3^2*s6 - s6^2",
    }
    bars = full_bar_rules(pipe6)
    table = pipeline_table(6)
    ok = all(bars[name] == parse(text, table) for name, text in expected.items())
    assert report(4, "extended solve-list reproduces the displayed barred polynomial", ok)


def test_criterion_5_key_computations(cache):
    expected_sequence = [(-1,), (-1,), (Fraction(-1, 4),), (64,), (16,), (-12,),
                         (16,), (-4,), (16,), (1,), (0, Fraction(-1, 16)), (1,),
                         (Fraction(-1, 4),), (1,), (Fraction(-1, 3072), Fraction(1, 64))]
    ok = True
    for case, expect in zip(KEY_CASES, expected_sequence):
        res = key_constant(case, cache)
        row_ok = res.ok and tuple(Fraction(c) for c in expect) == res.expected
        print(f"  {case.label}: expected {expect} computed {res.computed} "
              f"{'ok' if row_ok else 'MISMATCH'}")
        ok = row_ok and ok
    assert report(5, "all fifteen key-computation rows verify with the printed constants", ok)


def test_criterion_6_identity_suite():
    ok = True
    for n in range(2, 10):
        d = pq_split(n)
        Z = d.g.table.var("Z")
        ok = (d.g == Z * d.P ** 2 + d.Q ** 2) and ok
    for name in ["A2", "A3", "A4", "A5", "A6", "A7", "A8", "D2", "D3", "D4",
                 "D5", "D6", "D7", "D8", "E3", "E4", "E5", "E6", "E7", "E8"]:
        spec = Spec.from_name(name)
        for k in supported_splits(spec):
            ok = dist_relation(spec, k).ok and ok
    ok = e45_check().ok and ok
    assert report(6, "second-polynomial identities, vertex relations, shifted re-derivations", ok)


def test_criterion_7_weyl_invariance(cache, pipe7, pipe8):
    ok = True
    # closed-form types: literal generator substitution, reduced back to s
    for name in ("A2", "A5", "A8", "D2", "D3", "D4", "D5", "E3", "E4", "E5"):
        spec = Spec.from_name(name)
        for cname, phi in standard_coords(spec).items():
            if spec.family == "A":
                good = invariant_under_split(spec, phi)
            elif spec.n <= 5:
                generator = spec.n if spec.family == "D" else 0
                good = invariant_under_literal(spec, phi, generator, reduce_back=True)
            ok = good and ok
    for name in ("D6", "D7", "D8"):
        spec = Spec.from_name(name)
        for cname, phi in standard_coords(spec).items():
            ok = invariant_under_split(spec, phi) and ok
    # E6 literally, with symmetric reduction
    rules6 = VersalPipeline(6, cache=cache).versal_rules()
    for name in eps_names(6):
        ok = invariant_under_literal(Spec("E", 6), rules6[name], 0, reduce_back=True) and ok
    # E7/E8 through the split parametrization of the extra generator
    for n, base in ((7, pipe7), (8, pipe8)):
        plain, moved = split_params_E(n)
        a = VersalPipeline(n, param=plain, cache=base.cache).versal_rules()
        b = VersalPipeline(n, param=moved, cache=base.cache).versal_rules()
        for name in eps_names(n):
            ok = (a[name] == b[name]) and ok
    assert report(7, "every standard coordinate is fixed by the reflection generators", ok)


def test_criterion_8_e8_size_sanity(pipe8):
    count = pipe8.versal_rules()["eps30"].term_count()
    ok = count <= 2462
    print(f"  constant-term nonzero count: {count} (bound 2462)")
    assert report(8, "highest-weight coefficient stays within the published bound", ok)


NORMAL_FORMS = [
    ("-X*Y + Z^2", "A1"), ("-X*Y + Z^3", "A2"), ("-X*Y + Z^4", "A3"),
    ("-X*Y + Z^5", "A4"), ("-X*Y + Z^6", "A5"), ("-X*Y + Z^7", "A6"),
    ("-X*Y + Z^8", "A7"), ("-X*Y + Z^9", "A8"),
    ("-X^2 - Y^2*Z + Z^2", "A3"),
    ("-X^2 - Y^2*Z + Z^3", "D4"), ("-X^2 - Y^2*Z + Z^4", "D5"),
    ("-X^2 - Y^2*Z + Z^5", "D6"), ("-X^2 - Y^2*Z + Z^6", "D7"),
    ("-X^2 - Y^2*Z + Z^7", "D8"),
    ("-X*Y + Z^5", "A4"),
    ("-X^2 - Y^2*Z + Z^4", "D5"),
    ("-X^2 - X*Z^2 + Y^3", "E6"),
    ("-X^2 - Y^3 + 16*Y*Z^3", "E7"),
    ("-X^2 + Y^3 - Z^5", "E8"),
]


def test_criterion_9_classifier_suite():
    table = VarTable(["X", "Y", "Z"], [1, 1, 1])
    rng = random.Random(2026)
    ok = True
    for text, want in NORMAL_FORMS:
        base = parse(text, table)
        ok = (rdp_type(base, jet_order=10).name == want) and ok
        for _ in range(100):
            while True:
                M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
                det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                       - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                       + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
                if det != 0:
                    break
            rules = {v: sum((M[i][j] * table.var(w) for j, w in enumerate("XYZ")),
                            table.zero())
                     for i, v in enumerate("XYZ")}
            moved = base.substitute(rules, max_total_degree=10)
            got = rdp_type(moved, jet_order=10)
            if got.name != want:
                ok = False
                print(f"  misclassified {text} after linear change: {got.name}")
    for case in KEY_CASES:
        profile = ValuationProfile(f"E{case.parent}", {case.target: case.degree})
        if section_type(profile).column != case.section:
            ok = False
            print(f"  section bound mismatch for {case.label}")
    assert report(9, "classifier matches every normal form, perturbation and section bound", ok)
