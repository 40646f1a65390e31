"""The benchmark's tracer still installs on the package and counts kernel calls.

``bench/tracing.py`` wraps functions and methods of rdpinv by name, so a
rename in the kernel or the classifier would break ``--trace 1`` without
failing anything else.  The tracer runs in a subprocess, since it replaces
the package's functions for the rest of the interpreter's life.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PREAMBLE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
"""

CLASSIFY = """
from rdpinv.classify import rdp_type
from rdpinv.poly import VarTable, parse
table = VarTable(["X", "Y", "Z"], [1, 1, 1])
name = rdp_type(parse(sys.argv[3], table), jet_order=10).name
spans = [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
         for n, s, e, p, a in tracer.spans]
print(json.dumps({"type": name, "metrics": tracing.layer_metrics([spans])}))
"""

REFLECTION_SUBSTITUTION = """
sys.path.append(sys.argv[3])
from conftest import s_to_t_rules
from rdpinv.distpoly import ts_table
from rdpinv.rootsys import Spec, weyl_action
s = ts_table(6).var
phi = s("s2") ** 3 - 4 * s("s3") ** 2 + s("s1") * s("s5") + s("s6")
pt = phi.substitute(s_to_t_rules(6))
action = weyl_action(Spec("E", 6), 0)
first = len(tracer.spans)
moved = pt.substitute(action.mapping())
subs = [a for n, _, _, _, a in tracer.spans[first:] if n == "poly.substitute"]
print(json.dumps({"substitutions": subs, "terms": len(moved.terms)}))
"""

LITERAL_CHECK = """
from rdpinv.distpoly import invariant_under_literal, standard_coords
from rdpinv.rootsys import Spec
spec = Spec("E", 5)
out = {}
for back in (True, False):
    first = len(tracer.spans)
    ok = invariant_under_literal(spec, standard_coords(spec)["eps8"], 0, reduce_back=back)
    names = [n for n, _, _, _, _ in tracer.spans[first:]]
    out[str(back)] = [ok, [n for n in names if n.startswith("distpoly.")]]
print(json.dumps(out))
"""

PRODUCTS = """
from rdpinv.poly import VarTable
x, y = (VarTable(["x", "y"], [1, 1]).var(v) for v in "xy")
a, b = 1 + x + y, 2 - x * y
spans = {}
for op, call in [("mul_truncated", lambda: a.mul_truncated(b, 2)),
                 ("image_coefficients", lambda: a.image_coefficients({"y": b}, ["x"], [{"x": 1}])),
                 ("*", lambda: a * b)]:
    first = len(tracer.spans)
    call()
    spans[op] = [n for n, _, _, _, _ in tracer.spans[first:]]
print(json.dumps(spans))
"""


D5 = "-X^2 - 2*X*Y^2 - Y^2*Z + Z^4"


def moved_d5() -> str:
    """The D5 example moved by X -> X + Y, Y -> Y + Z, Z -> Z + X."""
    from rdpinv.poly import VarTable, parse

    table = VarTable(["X", "Y", "Z"], [1, 1, 1])
    X, Y, Z = (table.var(v) for v in "XYZ")
    return parse(D5, table).substitute({"X": X + Y, "Y": Y + Z, "Z": Z + X}).serialize()


def run_traced(body: str, tmp_path, *args: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PREAMBLE + body, str(ROOT / "bench"), str(ROOT / "src"), *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_installs_and_counts_one_classification(tmp_path):
    assert run_traced(CLASSIFY, tmp_path, D5)["type"] == "D5"
    # the moved copy's square and tail need several truncated substitutions
    result = run_traced(CLASSIFY, tmp_path, moved_d5())
    assert result["type"] == "D5"
    metrics = result["metrics"]
    assert metrics["classify.rdp_type_s"] > 0
    assert metrics["poly.substitute_calls"] >= metrics["classify.jet_substitutions"] >= 1


def test_reflection_substitution_is_one_traced_span(tmp_path):
    # the Horner recursion inside substitute never re-enters the public method
    result = run_traced(REFLECTION_SUBSTITUTION, tmp_path, str(ROOT / "tests"))
    assert result["terms"] > 100
    assert result["substitutions"] == [{"terms": result["terms"]}]


def test_only_the_full_product_is_a_traced_mul_span(tmp_path):
    # the products and the image coefficients share one private pair loop;
    # none calls another, so poly.mul counts direct products only
    spans = run_traced(PRODUCTS, tmp_path)
    assert spans["mul_truncated"].count("poly.mul") == 0
    assert spans["image_coefficients"] == []
    assert spans["*"].count("poly.mul") == 1
    assert spans["mul_truncated"].count("poly.mul_truncated") == 1


def test_a_literal_check_opens_one_span_per_layer(tmp_path):
    # the tracer replaces distpoly.weyl_action with an object that has only
    # .apply(p), so the check must move its expansion through that call
    out = run_traced(LITERAL_CHECK, tmp_path)
    layers = ["distpoly.t_expand", "distpoly.weyl_apply", "distpoly.symmetric_reduce"]
    assert out["True"] == [True, layers]
    assert out["False"] == [True, layers[:2]]
