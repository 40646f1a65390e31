import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rdpinv.cli import main
from rdpinv.poly import Polynomial, VarTable
from rdpinv.solvelist import ENTRY_FORMAT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_a1(capsys):
    code, out, _ = run(capsys, "invariants", "--type", "A1")
    assert code == 0
    assert out.strip() == "alpha2 = s2"


def test_invariants_d4(capsys):
    code, out, _ = run(capsys, "invariants", "--type", "D4")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert lines["gamma4"] == "s4"
    assert lines["delta2"] == "s1^2 - 2*s2"


def from_json(data):
    """The polynomial of one ``--format json`` entry: a table and its terms."""
    table = VarTable(data["vars"], data["weights"])
    total = table.zero()
    for term in data["terms"]:
        mono = table.const(Fraction(term["c"]))
        for v, e in term["m"].items():
            mono = mono * table.var(v) ** e
        total = total + mono
    return total


def test_invariants_json_round_trip(capsys):
    code, out, _ = run(capsys, "invariants", "--type", "E3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    eps3 = from_json(payload["eps3"])
    assert eps3.homogeneous_weight() == 3
    assert eps3.to_json() == payload["eps3"]


def test_invariants_e6_appendix_scaling(capsys, cache):
    code, out, _ = run(capsys, "invariants", "--type", "E6")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    from rdpinv.envres import pipeline_table
    from rdpinv.poly import parse

    table = pipeline_table(6)
    assert 6 * parse(lines["eps2"], table) == parse("-2*s1^2 + 3*s2", table)


def test_invariants_closed_form_type_never_opens_the_cache(tmp_path, capsys, monkeypatch):
    # D4's coordinates are closed forms: neither an unusable --cache-dir nor
    # a missing CACHE_DIR is an error, and no cache directory is made
    (tmp_path / "bad.txt").write_text("")
    monkeypatch.setenv("CACHE_DIR", str(tmp_path / "from-env"))
    for argv in (["--cache-dir", str(tmp_path / "bad.txt")],
                 ["--cache-dir", str(tmp_path / "unmade")], []):
        code, out, err = run(capsys, *argv, "invariants", "--type", "D4")
        assert (code, err) == (0, ""), argv
        assert "gamma4 = s4" in out.splitlines()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


def test_invariants_bad_type(capsys):
    for name in ("Q3", ""):
        code, _, err = run(capsys, "invariants", "--type", name)
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv", [
    ["congruence", "--case", "E9:v1"],
    ["classify", "--poly-file", "{dir}/bad.txt"],
    ["classify", "--poly-file", "{dir}/binary.txt"],
    ["classify", "--profile-file", "{dir}/unknown_type.json"],
    ["classify", "--poly-file", "{dir}/d4.txt", "--jet-order", "-1"],
    ["classify", "--profile-file", "{dir}/e8_profile.json", "--jet-order", "-3"],
    ["congruence", "--all", "--jobs", "0"],
    ["congruence", "--case", "E7:v2", "--jobs", "-1"],
    ["classify", "--profile-file", "{dir}/fractional_order.json"],
    ["classify", "--profile-file", "{dir}/bool_order.json"],
    ["classify", "--profile-file", "{dir}/zero_order.json"],
    ["classify", "--profile-file", "{dir}/unknown_e6_name.json"],
    ["classify", "--profile-file", "{dir}/unknown_a5_name.json"],
    ["--cache-dir", "{dir}/bad.txt", "verify", "appendix1"],
    ["--cache-dir", "{dir}/bad.txt", "congruence", "--all"],
    ["--cache-dir", "{dir}/bad.txt", "invariants", "--type", "E6"],
])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "bad.txt").write_text("-X^2 + Y^3 +* Z^5\n")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe")  # not UTF-8
    (tmp_path / "d4.txt").write_text("-X^2 - Y^2*Z + Z^3\n")
    (tmp_path / "unknown_type.json").write_text(json.dumps({"type": "E9", "orders": {"eps8": 1}}))
    (tmp_path / "e8_profile.json").write_text(json.dumps({"type": "E8", "orders": {"eps8": 1}}))
    for name, order in (("fractional", 1.5), ("bool", True), ("zero", 0)):
        (tmp_path / f"{name}_order.json").write_text(
            json.dumps({"type": "E6", "orders": {"eps2": order}}))
    for name, profile in (("e6", {"type": "E6", "orders": {"eps99": 1}}),
                          ("a5", {"type": "A5", "orders": {"eps2": 1}})):
        (tmp_path / f"unknown_{name}_name.json").write_text(json.dumps(profile))
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -- the usage-error contract, as a property -------------------------------------

#: vanishing orders of a drawn profile: valid ones and each kind that is refused
_ORDER_VALUES = st.sampled_from([1, 2, 30, 0, -1, 1.5, True, None, "inf", "3", [1], {}])
_PROFILES = st.one_of(
    st.fixed_dictionaries({
        "type": st.sampled_from(["E6", "E7", "E8", "A5", "D4", "E9", "", 6, "E6\nE7"]),
        "orders": st.dictionaries(st.sampled_from(["eps2", "eps5", "eps8", "eps30", "alpha2",
                                                   "eps99", "", "eps2\nx", "eps2\rx"]),
                                  _ORDER_VALUES, max_size=3),
    }).map(json.dumps),
    st.sampled_from(["", "{", "[]", "null", '{"type": "E6"}', '{"orders": {}}',
                     '{"type": "E6", "orders": []}', '{"type": "E8", "orders": {"eps8": 1}}']),
)
#: the variables of an equation
_XYZ = VarTable(["X", "Y", "Z"], [1, 1, 1])
#: what may stand in one piece of an equation: stray characters, a zero
#: denominator, an unknown name and digit runs past int's 4,300-digit limit
_SPOILS = ["$", "(", ".", "\u00b2", "\n", "\u00e9", "+*", "^", "", "1/0*X", "2/00", "W^2", "x",
           "9" * 5000 + "*X^2", "X^" + "9" * 5000, "1/" + "7" * 4301]


@st.composite
def _equations(draw):
    """An equation in X, Y, Z: the text serialize() writes for a drawn
    polynomial, or that text with its spacing changed, or with one of its
    pieces (a term, a sign, a factor) replaced by a spoiling one."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * 3),
        st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))),
        max_size=5))
    text = Polynomial.from_items(_XYZ, terms).serialize()
    how = draw(st.sampled_from(["as written", "spaced", "spoiled"]))
    if how == "spaced":
        for old in (" + ", " - ", "*", "^", "/"):
            text = text.replace(old, draw(st.sampled_from(
                [old.strip(), f" {old.strip()} ", f"\t{old.strip()}  "])))
    elif how == "spoiled":
        pieces = re.split(r"( [-+] |\*)", text)
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(st.sampled_from(_SPOILS))
        text = "".join(pieces)
    return text


#: equations in X, Y, Z: polynomial-shaped ones, and short random strings
_EQUATIONS = st.one_of(_equations(), st.text(alphabet="XYZxw0123456789+-*^/ \n", max_size=24))


@st.composite
def _cli_calls(draw):
    """``(argv, contents)``: a command line naming at most one input file,
    ``{file}``, whose contents are text or bytes.  ``--cache-dir`` names that
    file, so a command that would open the rule cache stops with a usage
    error before any heavy work; now and then it, or a stray word, sits
    where argparse refuses it, and now and then the command is left out.
    Half of the classify calls read an equation and nothing else is wrong
    with them, so each of those reaches the parser."""
    # classify twice over: the one command that reads an equation
    command = draw(st.sampled_from(["invariants", "verify", "congruence", "classify", "classify",
                                    None]))
    pools = {
        None: [[]],
        "invariants": [["--type", t] for t in ("A1", "D4", "E3", "E6", "Q3", "", "e6")]
                      + [["--type"], ["--format", "json"], ["--format", "xml"], ["--format"]],
        "verify": [[t] for t in ("identities", "appendix1", "appendix9", "", "relations2")],
        "congruence": [["--case", c] for c in ("E7:v2", "E9:v1", "E7:v9", "", "E7")]
                      + [["--all"], ["--jobs", "1"], ["--jobs", "0"], ["--jobs", "-1"],
                         ["--jobs", "x"], ["--jobs"]],
        "classify": [["--poly-file", "{file}"], ["--profile-file", "{file}"],
                     ["--poly-file", "{missing}"], ["--jet-order", "5"], ["--jet-order", "2"],
                     ["--jet-order", "-1"], ["--jet-order", "x"], ["--jet-order"]],
    }
    if command == "classify" and draw(st.booleans()):
        # an equation to classify: one --poly-file, no --profile-file beside
        # it and a jet order that is a nonnegative int or left out, so that
        # the call reaches the parser and only the file's text varies
        jet = draw(st.one_of(st.just([]), st.integers(0, 12).map(lambda d: ["--jet-order", str(d)])))
        return ["--cache-dir", "{file}", "classify", "--poly-file", "{file}", *jet], draw(_EQUATIONS)
    groups = draw(st.lists(st.sampled_from(pools[command]), max_size=3))
    if command == "classify" and draw(st.integers(0, 3)):
        groups.insert(0, [draw(st.sampled_from(["--poly-file", "--profile-file"])), "{file}"])
    argv = ["--cache-dir", "{file}", command, *(a for g in groups for a in g)]
    if command is None:
        # rdpinv alone, or with --cache-dir only
        argv = argv[:draw(st.sampled_from([0, 2]))]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "extra"])))
    if draw(st.integers(0, 7)) == 0:
        argv = argv[2:] + argv[:2]
    kind = _PROFILES if "--profile-file" in argv else _EQUATIONS
    return argv, draw(st.one_of(kind, st.binary(max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_cli_calls())
# a number past int's 4,300-digit limit, and a profile name holding a newline
@example((["--cache-dir", "{file}", "classify", "--poly-file", "{file}"], "X^" + "9" * 5000))
@example((["--cache-dir", "{file}", "classify", "--profile-file", "{file}"],
          json.dumps({"type": "E6", "orders": {"eps2\nx": 1}})))
# an equation read by the string splits, one by the grammar walk, one the walk
# refuses; then no command at all
@example((["classify", "--poly-file", "{file}"], "-X^2 + Y^3 - Z^5\n"))
@example((["classify", "--poly-file", "{file}"], "  -X^2  -  Y^2 * Z  +  Z^4"))
@example((["classify", "--poly-file", "{file}"], "-X^2 + Y^3 +* Z^5"))
@example(([], ""))
@example((["--cache-dir", "{file}"], ""))
def test_cli_usage_errors_keep_the_contract(call):
    # any exit is 0, 1 or 2 with no traceback; a usage error (2) prints nothing
    # on stdout and ends stderr in its one error line: argparse's usage block
    # then "rdpinv [<command>]: error: ...", or cli.py's single "error: ..." line
    argv, contents = call
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "input"
        if isinstance(contents, bytes):
            target.write_bytes(contents)
        else:
            target.write_text(contents)
        argv = [a.format(file=target, missing=Path(tmp) / "missing") for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exits
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert out == "" and err.endswith("\n")
        assert sum("error:" in line for line in lines) == 1
        assert lines == [lines[-1]] and lines[-1].startswith("error: ") or (
            lines[0].startswith("usage: rdpinv") and re.match(r"rdpinv( \w+)?: error: ", lines[-1]))


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities")
    assert code == 0
    assert "FAIL" not in out
    assert "D9: g == Z*P^2 + Q^2: PASS" in out


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "relations")
    assert code == 0
    assert "FAIL" not in out


def test_verify_appendix0(capsys):
    code, out, _ = run(capsys, "verify", "appendix0")
    assert code == 0
    assert out.count("PASS") == 3


def test_congruence_single_case(capsys):
    code, out, _ = run(capsys, "congruence", "--case", "E7:v2")
    assert code == 0
    assert "-12" in out and "PASS" in out


def test_congruence_requires_selection(capsys):
    code, _, err = run(capsys, "congruence")
    assert code == 2


def test_classify_poly_file(tmp_path, capsys):
    target = tmp_path / "surface.txt"
    target.write_text("-X^2 + Y^3 - Z^5\n")
    code, out, _ = run(capsys, "classify", "--poly-file", str(target))
    assert code == 0 and out.strip() == "E8"


def test_classify_profile_file(tmp_path, capsys):
    target = tmp_path / "profile.json"
    target.write_text(json.dumps({"type": "E8", "orders": {"eps8": 1}}))
    code, out, _ = run(capsys, "classify", "--profile-file", str(target))
    assert code == 0 and "at worst E7" in out


def test_classify_takes_one_input_file(tmp_path, capsys):
    # an equation and a profile together are a usage error, whichever comes first
    (tmp_path / "surface.txt").write_text("-X^2 + Y^3 - Z^5\n")
    (tmp_path / "profile.json").write_text(json.dumps({"type": "E8", "orders": {"eps8": 1}}))
    poly = ["--poly-file", str(tmp_path / "surface.txt")]
    profile = ["--profile-file", str(tmp_path / "profile.json")]
    for argv in (poly + profile, profile + poly):
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out) == (2, "")
        assert err == "error: give --poly-file or --profile-file, not both\n"


def test_classify_undecidable_exit_code(tmp_path, capsys):
    target = tmp_path / "surface.txt"
    for text, jet_order in (("-X*Y + Z^9", "5"), ("-X^2 - Y^2*Z + Z^3", "2")):
        target.write_text(text + "\n")
        code, out, err = run(capsys, "classify", "--poly-file", str(target),
                             "--jet-order", jet_order)
        assert code == 1 and out == "" and err.startswith("undecidable:"), (text, err)


#: criterion 9's normal forms at --jet-order 10, 7, 5, 4, 3 and 2, each order ending in
#: three spellings outside serialize()'s layout that the grammar walk reads (the last
#: one it refuses), then one profile; each run as "classify <args>: <input>", its stdout,
#: its stderr lines prefixed "stderr: ", and "exit <code>", as the CI job that diffs
#: interpreters prints it
CLASSIFY_TRANSCRIPT = Path(__file__).with_name("classify_transcript.txt")


def test_classify_transcript_matches_the_pinned_one(tmp_path, capsys):
    want = CLASSIFY_TRANSCRIPT.read_text()
    got = []
    for header in re.findall(r"^classify .*$", want, re.M):
        args, text = header.split(": ", 1)
        target = tmp_path / "input.txt"
        target.write_text(text + "\n")
        if args == "classify --profile-file":
            argv = ["classify", "--profile-file", str(target)]
        else:
            argv = ["classify", "--poly-file", str(target), "--jet-order", args.split()[-1]]
        code, out, err = run(capsys, *argv)
        got += [header + "\n", out, *(f"stderr: {line}\n" for line in err.splitlines()),
                f"exit {code}\n"]
    assert "".join(got) == want


def test_congruence_all_deterministic_across_jobs(capsys):
    code1, out1, _ = run(capsys, "congruence", "--all", "--jobs", "1")
    code2, out2, _ = run(capsys, "congruence", "--all", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("PASS") == 15


def test_congruence_all_cold_jobs_2_matches_jobs_1(tmp_path, capsys):
    # --jobs has no effect: on empty caches both runs write the same plain
    # and pulled-back keys
    one, two = tmp_path / "one", tmp_path / "two"
    serial = run(capsys, "--cache-dir", str(one), "congruence", "--all", "--jobs", "1")
    parallel = run(capsys, "--cache-dir", str(two), "congruence", "--all", "--jobs", "2")
    assert serial[0] == 0 and serial[2] == ""
    assert parallel == serial
    entries = [sorted(p.name for p in (d / ENTRY_FORMAT).iterdir()) for d in (one, two)]
    assert entries[0] and entries[1] == entries[0]
    # every entry they left is whole: a rerun reads them without a warning
    assert run(capsys, "--cache-dir", str(two), "congruence", "--all", "--jobs", "1") == serial


def test_verify_appendix1_with_cache_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "verify", "appendix1")
    assert code == 0
    assert out.count("PASS") == 6
    # byte-identical on a rerun against the same cache
    code2, out2, _ = run(capsys, "--cache-dir", str(tmp_path), "verify", "appendix1")
    assert (code2, out2) == (code, out)
