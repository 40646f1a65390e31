import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rdpinv.cli import main
from rdpinv.poly import VarTable
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
    for name, order in (("fractional", 1.5), ("bool", True), ("zero", 0)):
        (tmp_path / f"{name}_order.json").write_text(
            json.dumps({"type": "E6", "orders": {"eps2": order}}))
    for name, profile in (("e6", {"type": "E6", "orders": {"eps99": 1}}),
                          ("a5", {"type": "A5", "orders": {"eps2": 1}})):
        (tmp_path / f"unknown_{name}_name.json").write_text(json.dumps(profile))
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


#: criterion 9's normal forms at --jet-order 10, 7, 5, 4, 3 and 2, then one profile; each
#: run as "classify <args>: <input>", its stdout, its stderr lines prefixed
#: "stderr: ", and "exit <code>", as the CI job that diffs interpreters prints it
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
