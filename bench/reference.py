"""Reference data and checks that do not read rdpinv's own tables.

The key-computation rows and the classifier normal forms are transcribed
here from the paper; the E6/E7 coordinates and the E8 generators come from
the hand-transcribed golden files shipped in ``src/rdpinv/golden``, read
by this module's own loader.  Every check is a plain function returning
True or False, so a negative control can feed it data that must fail.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "src" / "rdpinv" / "golden"

#: published bound on the number of terms of the E8 constant coefficient eps30
E8_EPS30_MAX_TERMS = 2462

# Key-computation table: label, length, target coordinate, power of the
# part coordinate, constant(s), general-hyperplane-section column.  Rows with
# two constants are the two-term relations (coefficients of the two
# products the target is a combination of).
KEY_ROWS = [
    ("E6:v0", 2, "eps6", 1, (Fraction(-1),), "D4"),
    ("E6:v4", 2, "eps5", 1, (Fraction(-1),), "D4"),
    ("E6:v5", 1, "eps8", 1, (Fraction(-1, 4),), "A1"),
    ("E7:v0", 2, "eps14", 2, (Fraction(64),), "D4"),
    ("E7:v1", 2, "eps10", 1, (Fraction(16),), "D4"),
    ("E7:v2", 3, "eps6", 1, (Fraction(-12),), "E6"),
    ("E7:v4", 3, "eps10", 2, (Fraction(16),), "E6"),
    ("E7:v5", 2, "eps8", 1, (Fraction(-4),), "D4"),
    ("E7:v6", 1, "eps12", 1, (Fraction(16),), "A1"),
    ("E8:v0", 3, "eps24", 3, (Fraction(1),), "E6"),
    ("E8:v1", 2, "eps24", 2, (Fraction(0), Fraction(-1, 16)), "D4"),
    ("E8:v2", 4, "eps14", 2, (Fraction(1),), "E7"),
    ("E8:v5", 4, "eps8", 1, (Fraction(-1, 4),), "E7"),
    ("E8:v6", 3, "eps12", 1, (Fraction(1),), "E6"),
    ("E8:v7", 2, "eps18", 1, (Fraction(-1, 3072), Fraction(1, 64)), "D4"),
]

# The nineteen normal forms of the classifier battery with their types.
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

_GOLDEN_LINE = re.compile(r"^(\w+)\s+(\d+)\s*:=\s*(.+)$")


def golden_texts(name: str) -> dict[str, tuple[int, str]]:
    """``{coordinate: (multiplier, polynomial text)}`` from one golden file."""
    out = {}
    for line in (GOLDEN_DIR / f"{name}.txt").read_text().splitlines():
        m = _GOLDEN_LINE.match(line.strip())
        if m:
            out[m.group(1)] = (int(m.group(2)), m.group(3))
    return out


def matches_golden(values: dict, golden: dict[str, tuple[int, str]], table, parse) -> bool:
    """multiplier * value == golden polynomial for every golden coordinate."""
    if not set(golden) <= set(values):
        return False
    return all(mult * values[nm] == parse(text, table)
               for nm, (mult, text) in golden.items())


def perturb_first_coefficient(text: str) -> str:
    """The same polynomial text with its leading integer coefficient raised by one."""
    m = re.match(r"\s*(-?\d+)", text)
    return f"{int(m.group(1)) + 1}{text[m.end():]}"


def parse_fractions(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if text == "none":
        return ()
    return tuple(Fraction(part.strip()) for part in text.split(","))


_CONGRUENCE_LINE = re.compile(
    r"^(\S+)\s+length (\d+)\s+expected (.+?)\s+computed (.+?)\s+(PASS|FAIL)$")


def congruence_report_ok(output: str) -> bool:
    """Every key row printed by ``congruence --all`` with the tabulated
    length and constants, in table order."""
    rows = []
    for line in output.splitlines():
        m = _CONGRUENCE_LINE.match(line.strip())
        if m:
            rows.append((m.group(1), int(m.group(2)), parse_fractions(m.group(4))))
    want = [(label, length, consts) for label, length, _, _, consts, _ in KEY_ROWS]
    return rows == want


def verify_report_ok(output: str, labels: int) -> bool:
    """A ``verify`` report with ``labels`` lines, every one of them PASS."""
    lines = [ln for ln in output.splitlines() if ln.strip()]
    return len(lines) == labels and all(ln.endswith(": PASS") for ln in lines)
