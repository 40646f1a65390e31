"""Preferred-versal-form coefficients for the three large E types.

The pipeline mirrors the anti-pluricanonical construction: a good
generating set Xb, Yb, Zb, Wb of weighted polynomials in C[s][x,y,z] maps
the plane onto the family; the defining polynomial of the image, written
with undetermined coefficients, is pinned down by solve-lists; a
triangular change of generators (the psi rules) removes the forbidden
monomials, and a final solve-list expansion recovers the versal-form
coefficients eps_i as exact polynomials in s_1..s_n.

The E8 generating set's weight-16 sextic is derived, not transcribed: its
two base conditions (eta*Yb = psi^2, and psi divides eta*(dYb/dx)) become
one integer linear system, assembled directly from the remainders
U^e mod psi, and solved exactly.

For n = 7, 8 the versal stage sets z = 0 before expanding (the relevant
extraction monomials never involve z), which shrinks the computation by
orders of magnitude; the E8 barred stage is z-free as well.

The versal expansion streams through the rule cache, keyed by its recipe
(:func:`_recipe_key`), and so do its pull-backs: a restriction of the base
is applied to the expanded eps, not to the stages.  The stages are not
cached: they are built only when the versal entry is missing, so a warm
run builds no bar, psi or r_pi stage.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Optional, Sequence

from ._record import Record
from .distpoly import monic
from .poly import (
    InconsistentSystemError,
    LinearSystem,
    Polynomial,
    VarTable,
    parse,
)
from . import solvelist
from .rootsys import Spec
from .solvelist import RuleCache, RuleSet, SolveList, solve_in_order

XYZW_WEIGHTS = {6: (9, 7, 6, 3), 7: (15, 9, 7, 3), 8: (24, 16, 9, 3)}

_BAR_COEFFS = {
    6: [("phib1", 1), ("phib2", 2), ("ebar2", 2), ("phib3p", 3), ("phib3pp", 3),
        ("phib4", 4), ("ebar5", 5), ("phib6", 6), ("ebar6", 6), ("ebar8", 8),
        ("ebar9", 9), ("ebar12", 12)],
    7: [("ebar2", 2), ("phib2", 2), ("phib4", 4), ("ebar6", 6), ("phib6", 6),
        ("ebar8", 8), ("ebar10", 10), ("ebar12", 12), ("ebar14", 14), ("ebar18", 18)],
    8: [("ebar2", 2), ("phib4", 4), ("phib6", 6), ("ebar8", 8), ("phib10", 10),
        ("ebar12", 12), ("ebar14", 14), ("ebar18", 18), ("ebar20", 20),
        ("ebar24", 24), ("ebar30", 30)],
}

_PSI_COEFFS = {
    6: [("psi1", 1), ("psi2", 2), ("psi3p", 3), ("psi3pp", 3), ("psi4", 4), ("psi6", 6)],
    7: [("psi2", 2), ("psi4", 4), ("psi6", 6)],
    8: [("psi4", 4), ("psi6", 6), ("psi10", 10)],
}

EPS_WEIGHTS = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}


def eps_names(n: int) -> list[str]:
    return [f"eps{w}" for w in EPS_WEIGHTS[n]]


def from_versal(spec: Spec) -> bool:
    """Whether this pipeline, not a closed form, gives the standard
    coordinates of ``spec``: E6, E7 and E8."""
    return spec.family == "E" and spec.n in EPS_WEIGHTS


@lru_cache(maxsize=None)
def pipeline_table(n: int) -> VarTable:
    names = ["x", "y", "z"]
    weights = [1, 3, 0]
    for i in range(1, n + 1):
        names.append(f"s{i}")
        weights.append(i)
    wx, wy, wz, ww = XYZW_WEIGHTS[n]
    for suffix in ("b", ""):
        names += [f"X{suffix}", f"Y{suffix}", f"Z{suffix}", f"W{suffix}"]
        weights += [wx, wy, wz, ww]
    for name, w in _BAR_COEFFS[n] + _PSI_COEFFS[n]:
        names.append(name)
        weights.append(w)
    for w in EPS_WEIGHTS[n]:
        names.append(f"eps{w}")
        weights.append(w)
    names.append("U")
    weights.append(1)
    return VarTable(names, weights)


def _p(n: int, text: str) -> Polynomial:
    return parse(text, pipeline_table(n))


def psi_n(n: int, table: Optional[VarTable] = None) -> Polynomial:
    """Monic degree-n polynomial in U whose roots are the functionals."""
    table = table or pipeline_table(n)
    return monic(table.var("U"), [(-1) ** i * table.var(f"s{i}") for i in range(1, n + 1)])


def eta_star(p: Polynomial, n: int) -> Polynomial:
    """Pull back along the cuspidal-cubic parametrization x, y, z = U, U^3, 1."""
    table = pipeline_table(n)
    U = table.var("U")
    return p.substitute({"x": U, "y": U ** 3, "z": table.const(1)})


def jacobian3(fy: Polynomial, fz: Polynomial, fw: Polynomial) -> Polynomial:
    rows = [[f.derivative_along({v: 1}) for v in ("x", "y", "z")] for f in (fy, fz, fw)]
    return (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))


# -- good generating sets -------------------------------------------------------

_E6_ZB = ("y^2*z - s1*x^2*y + s2*x*y*z - s3*x^3 + s4*x^2*z - s5*x*z^2 + s6*z^3")
_E6_YB = ("x*y^2 - s1*y^2*z + s2*x^2*y - s3*x*y*z + s4*x^3 - s5*x^2*z + s6*x*z^2")
_E6_XB = ("y^3 + s2*x*y^2 - s1^2*x*y^2 - s3*y^2*z + s1*s2*y^2*z + s4*x^2*y"
          " - s1*s3*x^2*y - s5*x*y*z + s1*s4*x*y*z + s6*x^3 - s1*s5*x^3 + s1*s6*x^2*z")

_E7_ZB = ("x*y^2 - s1*y^2*z + s2*x^2*y - s3*x*y*z + s4*x^3 - s5*x^2*z + s6*x*z^2"
          " - s7*z^3")
_E7_YB = ("4*y^3 + 4*s2*x*y^2 - 3*s1^2*x*y^2 - 4*s3*y^2*z + 4*s1*s2*y^2*z"
          " - s1^3*y^2*z + 4*s4*x^2*y - 4*s1*s3*x^2*y + s1^2*s2*x^2*y"
          " - 4*s5*x*y*z + 4*s1*s4*x*y*z - s1^2*s3*x*y*z + 4*s6*x^3 - 4*s1*s5*x^3"
          " + s1^2*s4*x^3 - 4*s7*x^2*z + 4*s1*s6*x^2*z - s1^2*s5*x^2*z"
          " - 4*s1*s7*x*z^2 + s1^2*s6*x*z^2 - s1^2*s7*z^3")

_E8_ZB = ("y^3 + s2*x*y^2 - s1^2*x*y^2 - s3*y^2*z + s1*s2*y^2*z + s4*x^2*y"
          " - s1*s3*x^2*y - s5*x*y*z + s1*s4*x*y*z + s6*x^3 - s1*s5*x^3"
          " - s7*x^2*z + s1*s6*x^2*z + s8*x*z^2 - s1*s7*x*z^2 + s1*s8*z^3")


class GoodGenSet(Record):
    n: int
    Xb: Polynomial
    Yb: Polynomial
    Zb: Polynomial
    Wb: Polynomial


# scalar unknowns of the weight-16 sextic live on partitions of s-weights
@lru_cache(maxsize=None)
def _weight_monomials(n: int, w: int, i: int = 1) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors (e_i..e_n) with sum j*e_j = w, in lexicographic order."""
    if i > n:
        return ((),) if w == 0 else ()
    return tuple((e,) + rest for e in range(w // i + 1)
                 for rest in _weight_monomials(n, w - i * e, i + 1))


class SexticSolveError(RuntimeError):
    """The base conditions did not cut out the expected solution family."""


# sextic monomials with unknown coefficients; every other monomial is the
# only one of its pull-back degree and carries that coefficient of psi^2
_SEXTIC_FREE = ((3, 3, 0), (4, 2, 0), (3, 2, 1), (5, 1, 0), (4, 1, 1),
                (3, 1, 2), (6, 0, 0), (5, 0, 1), (4, 0, 2), (3, 0, 3))


def _sextic_equations(n: int) -> tuple[dict, list, list]:
    """The sextic's base conditions as one integer linear system.

    Returns ``(terms, columns, equations)``: the sextic with every unknown
    at zero, as (xyz exponents, s exponents) -> coefficient; per unknown
    c_k its (free monomial m, carrier f, s-monomial sm); and the
    equations, each ``(row, rhs)`` as :class:`LinearSystem` reads them.

    The first condition puts psi^2's U^j coefficient q_j on the one fixed
    monomial f of pullback degree j (the carrier); c_k moves sm*m against
    sm*f.  The pullback of the x-derivative of x^a*y^b*z^c is
    a*U^(a+3b-1), so the second condition asks every (U^u, s-monomial)
    coefficient of
        sum_k c_k (a_m - a_f) sm R_(j-1)  +  sum_j a_f q_j R_(j-1)
    to vanish, where R_e = U^e mod psi (a = 0 at j = 0, so R_(-1) is never
    read).
    """
    s_names = [f"s{i}" for i in range(1, n + 1)]
    ring = VarTable(["U"] + s_names, [1] + list(range(1, n + 1)))
    U, psi = ring.var("U"), psi_n(n, ring)
    # R_(e+1) = U*R_e minus its U^n coefficient times psi, for e < 16; terms
    # as (u, s, c) with u the exponent of U and s that of s1..sn
    powers = [ring.const(1)]
    for _ in range(15):
        r = U * powers[-1]
        top = r.coeffs_in("U").get(n)
        powers.append(r if top is None else r - top * psi)
    rem = [[(e[0], e[1:], c) for e, c in r.items()] for r in powers]
    q: dict[int, list] = {}
    for e, c in (psi * psi).items():
        q.setdefault(e[0], []).append((e[1:], c))

    by_eta: dict[int, list[tuple[int, int, int]]] = {}
    for b in range(6, -1, -1):
        for a in range(7 - b):
            if a + 3 * b <= 16:
                by_eta.setdefault(a + 3 * b, []).append((a, b, 6 - a - b))

    terms: dict = {}
    columns = []
    rows: dict = {}     # (u, s exponents) -> {k: coefficient}
    rhs: dict = {}      # (u, s exponents) -> right-hand side
    for j, cls in sorted(by_eta.items()):
        qj = q.get(j, [])
        fixed = [m for m in cls if m not in _SEXTIC_FREE]
        if len(fixed) > 1:
            raise SexticSolveError(f"degree {j} pins more than one monomial: {fixed}")
        carrier = fixed[0] if fixed else None
        if carrier is None and qj:
            qj_poly = Polynomial.from_items(ring, {(0,) + t: c for t, c in qj})
            raise SexticSolveError(f"degree {j} has no monomial to carry {qj_poly.serialize()}")
        af = carrier[0] if carrier else 0
        for t, c in qj:
            terms[carrier, t] = c
            if af:
                for u, r, rc in rem[j - 1]:
                    key = (u, tuple(map(add, t, r)))
                    rhs[key] = rhs.get(key, 0) - af * c * rc
        for m in cls:
            if m not in _SEXTIC_FREE:
                continue
            d = m[0] - af
            for sm in _weight_monomials(n, 16 - j):
                k = len(columns)
                columns.append((m, carrier, sm))
                if d:
                    for u, r, rc in rem[j - 1]:
                        row = rows.setdefault((u, tuple(map(add, sm, r))), {})
                        row[k] = row.get(k, 0) + d * rc
    equations = [(rows.get(key, {}), rhs.get(key, 0)) for key in dict.fromkeys([*rows, *rhs])]
    return terms, columns, equations


def solve_e8_sextic() -> Polynomial:
    """Derive the weight-16 sextic generator for n = 8 from its base conditions.

    Conditions: the pullback along the cuspidal cubic equals the square of
    the monic root polynomial, and that polynomial divides the pullback of
    the x-derivative.  The solution family is free exactly in a weight-4
    and a weight-10 polynomial parameter (45 scalar dimensions); both are
    fixed by zeroing the x^3*y^3 and x^6 coefficients.
    """
    n = 8
    terms, columns, equations = _sextic_equations(n)
    if {t: c for (m, t), c in terms.items() if m == (1, 5, 0)} != {(0,) * n: 1}:
        raise SexticSolveError("leading pullback coefficient is not monic")
    system = LinearSystem()
    try:
        for row, rhs in equations:
            system.add(row, rhs)
        nullity = len(columns) - system.rank
        expected = len(_weight_monomials(n, 4)) + len(_weight_monomials(n, 10))
        if nullity != expected:
            raise SexticSolveError(
                f"solution family has dimension {nullity}, expected {expected}"
            )
        # normalization: kill the x^3*y^3 and x^6 coefficients entirely
        for k, (m, _, _) in enumerate(columns):
            if m in ((3, 3, 0), (6, 0, 0)):
                system.add({k: 1})
    except InconsistentSystemError as exc:
        raise SexticSolveError("inconsistent linear system for the sextic") from exc
    if system.rank != len(columns):
        raise SexticSolveError("normalization did not make the sextic unique")
    for k, value in system.solution().items():
        m, carrier, sm = columns[k]
        terms[m, sm] = terms.get((m, sm), 0) + value
        if carrier:
            terms[carrier, sm] = terms.get((carrier, sm), 0) - value
    # pipeline_table starts x, y, z, s1..sn
    table = pipeline_table(n)
    head = VarTable(table.names[:3 + n], table.weights[:3 + n])
    return Polynomial.from_items(head, {m + t: c for (m, t), c in terms.items()}).to_table(table)


@lru_cache(maxsize=None)
def good_gens_bar(n: int) -> GoodGenSet:
    if n not in (6, 7, 8):
        raise ValueError("good generating sets exist for n in {6, 7, 8}")
    if n == 6:
        return GoodGenSet(6, _p(6, _E6_XB), _p(6, _E6_YB), _p(6, _E6_ZB),
                          _p(6, "x^3 - y*z^2"))
    if n == 7:
        yb, zb = _p(7, _E7_YB), _p(7, _E7_ZB)
        wb = _p(7, "x^3 - y*z^2")
        xb = Fraction(1, 3) * jacobian3(yb, zb, wb)
        return GoodGenSet(7, xb, yb, zb, wb)
    yb = solve_e8_sextic()
    zb = _p(8, _E8_ZB)
    wb = _p(8, "x^3 - y*z^2")
    xb = Fraction(-1, 6) * jacobian3(yb, zb, wb)
    return GoodGenSet(8, xb, yb, zb, wb)


def reduce_mod_m(p: Polynomial) -> Polynomial:
    """Set every deformation parameter s_i to zero."""
    rules = {name: 0 for name in p.variables()
             if name.startswith("s") and name[1:].isdigit()}
    return p.substitute(rules)


# -- templates and solve-list data ----------------------------------------------


# shared like the generators: Polynomial arithmetic returns new objects
@lru_cache(maxsize=None)
def _template(n: int, barred: bool) -> Polynomial:
    t = pipeline_table(n)
    b = "b" if barred else ""
    X, Y, Z, W = (t.var(f"{v}{b}") for v in "XYZW")
    e = {w: t.var(f"e{'bar' if barred else 'ps'}{w}") for w in EPS_WEIGHTS[n]}
    if n == 6:
        out = -X**2*W - X*Z**2 + Y**3 + e[2]*Y*Z**2 + e[5]*Y*Z*W + e[6]*Z**2*W \
              + e[8]*Y*W**2 + e[9]*Z*W**2 + e[12]*W**3
        if barred:
            ph = {name: t.var(name) for name, _ in _BAR_COEFFS[6] if name.startswith("phib")}
            out = out + ph["phib1"]*Y**2*Z + ph["phib2"]*X*Y*W + ph["phib3p"]*X*Z*W \
                  + ph["phib3pp"]*Z**3 + ph["phib4"]*Y**2*W + ph["phib6"]*X*W**2
        return out
    if n == 7:
        out = -X**2 - Y**3*W + 16*Y*Z**3 + e[2]*Y**2*Z*W + e[6]*Y**2*W**2 \
              + e[8]*Y*Z*W**2 + e[10]*Z**2*W**2 + e[12]*Y*W**3 + e[14]*Z*W**3 \
              + e[18]*W**4
        if barred:
            out = out + t.var("phib2")*(16*Z**4 - Y**2*Z*W) \
                  + t.var("phib4")*Y*Z**2*W + t.var("phib6")*(16*Z**3*W - Y**2*W**2)
        return out
    out = -X**2 + Y**3 - Z**5*W + e[2]*Y*Z**3*W + e[8]*Y*Z**2*W**2 + e[12]*Z**3*W**3 \
          + e[14]*Y*Z*W**3 + e[18]*Z**2*W**4 + e[20]*Y*W**4 + e[24]*Z*W**5 + e[30]*W**6
    if barred:
        out = out + t.var("phib4")*Y**2*Z*W + t.var("phib6")*Z**4*W**2 \
              + t.var("phib10")*Y**2*W**2
    return out


def phibar_template(n: int) -> Polynomial:
    """Defining polynomial in the raw generators, undetermined coefficients."""
    return _template(n, barred=True)


def versal_template(n: int) -> Polynomial:
    return _template(n, barred=False)


def _e(**exps) -> dict[str, int]:
    return exps


_BAR_PAIRS = {
    6: [(_e(x=2, y=6, z=1), "phib1"), (_e(x=4, y=5), "phib2"),
        (_e(x=1, y=6, z=2), "ebar2"), (_e(x=3, y=5, z=1), "phib3p"),
        (_e(y=6, z=3), "phib3pp"), (_e(x=5, y=4), "phib4"),
        (_e(x=4, y=4, z=1), "ebar5"), (_e(x=6, y=3), "phib6"),
        (_e(x=3, y=4, z=2), "ebar6")],
    7: [(_e(x=4, y=8), "ebar2"), (_e(x=1, y=9, z=2), "phib2"),
        (_e(x=5, y=7), "phib4"), (_e(x=6, y=6), "ebar6"),
        (_e(x=3, y=7, z=2), "phib6")],
    8: [(_e(x=4, y=14), "ebar2"), (_e(x=5, y=13), "phib4"),
        (_e(x=6, y=12), "phib6"), (_e(x=7, y=11), "ebar8"),
        (_e(x=8, y=10), "phib10")],
}

# extension pairs for the full barred expansion, recorded as reusable data
BAR_EXTENSION = {
    6: [(_e(x=7, y=2), "ebar8"), (_e(x=6, y=2, z=1), "ebar9"), (_e(x=9,), "ebar12")],
}

_PSI_PAIRS = {
    6: [(_e(Y=2, Z=1), "psi1"), (_e(X=1, Y=1, W=1), "psi2"), (_e(Z=3), "psi3p"),
        (_e(X=1, Z=1, W=1), "psi3pp"), (_e(Y=2, W=1), "psi4"),
        (_e(X=1, W=2), "psi6")],
    7: [(_e(Z=4), "psi2"), (_e(Y=1, Z=2, W=1), "psi4"), (_e(Z=3, W=1), "psi6")],
    8: [(_e(Y=2, Z=1, W=1), "psi4"), (_e(Z=4, W=2), "psi6"), (_e(Y=2, W=2), "psi10")],
}

_VERSAL_PAIRS = {
    6: [(_e(x=1, y=6, z=2), "eps2"), (_e(x=4, y=4, z=1), "eps5"),
        (_e(x=3, y=4, z=2), "eps6"), (_e(x=7, y=2), "eps8"),
        (_e(x=6, y=2, z=1), "eps9"), (_e(x=6, y=1, z=2), "eps12")],
    7: [(_e(x=4, y=8), "eps2"), (_e(x=6, y=6), "eps6"), (_e(x=7, y=5), "eps8"),
        (_e(x=8, y=4), "eps10"), (_e(x=9, y=3), "eps12"),
        (_e(x=10, y=2), "eps14"), (_e(x=12,), "eps18")],
    8: [(_e(x=4, y=14), "eps2"), (_e(x=7, y=11), "eps8"), (_e(x=9, y=9), "eps12"),
        (_e(x=10, y=8), "eps14"), (_e(x=12, y=6), "eps18"),
        (_e(x=13, y=5), "eps20"), (_e(x=15, y=3), "eps24"), (_e(x=18,), "eps30")],
}


def mu_rules(n: int) -> RuleSet:
    """Change of generating set with undetermined triangular coefficients."""
    t = pipeline_table(n)
    X, Y, Z, W = (t.var(v) for v in "XYZW")
    p = {name: t.var(name) for name, _ in _PSI_COEFFS[n]}
    if n == 6:
        return RuleSet.of([
            ("Xb", X + p["psi2"] * Y + p["psi3p"] * Z + p["psi6"] * W),
            ("Yb", Y + p["psi1"] * Z + p["psi4"] * W),
            ("Zb", Z + p["psi3pp"] * W),
            ("Wb", W),
        ])
    if n == 7:
        return RuleSet.of([
            ("Xb", X),
            ("Yb", Y + p["psi2"] * Z + p["psi6"] * W),
            ("Zb", Z + p["psi4"] * W),
            ("Wb", W),
        ])
    return RuleSet.of([
        ("Xb", X),
        ("Yb", Y + p["psi4"] * Z * W + p["psi10"] * W ** 2),
        ("Zb", Z + p["psi6"] * W),
        ("Wb", W),
    ])


def mu_inverse(n: int) -> RuleSet:
    """Solve the triangular change of generators for the plain X, Y, Z, W."""
    t, mu, names = pipeline_table(n), mu_rules(n), ("W", "Z", "Y", "X")
    solved = solve_in_order([mu[f"{v}b"] - t.var(f"{v}b") for v in names], names)
    return RuleSet.of(reversed(solved.rules))


# -- pipeline ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rbar_pi(n: int, z_zero: bool) -> RuleSet:
    """The good generators, with z = 0 if ``z_zero``: built once per rank and choice."""
    gens, drop = good_gens_bar(n), {"z": 0} if z_zero else {}
    return RuleSet.of([(name, getattr(gens, name).substitute(drop))
                       for name in ("Xb", "Yb", "Zb", "Wb")])


class VersalPipeline:
    """One run of the versal-form computation for n in {6, 7, 8}.

    The stages never see ``param``.  Each is built when asked for; the
    versal rules build them once, and only when their cache entry is
    missing.  The entry's key needs no stage and is built once per rank
    (:func:`_recipe_key`), as are the generator rules, once per rank and
    choice of z = 0 (:func:`_rbar_pi`).  ``param`` optionally rewrites the s_i (a
    restriction of the base of the deformation), and :meth:`versal_rules`
    pulls the expanded coefficients back through it.
    """

    def __init__(self, n: int, param: Optional[RuleSet] = None,
                 cache: Optional[RuleCache] = None):
        if n not in (6, 7, 8):
            raise ValueError("versal pipeline handles n in {6, 7, 8}")
        self.n = n
        if param is not None:
            # strip stale merged-table variables so the parameter ring can
            # never clash with the pipeline's own variable weights
            param = RuleSet.of([(v, p.compact()) for v, p in param.rules])
        self.param = param
        self.cache = cache if cache is not None else RuleCache()

    # stage 1: generator rules -------------------------------------------------

    def rbar_pi(self, z_zero: bool) -> RuleSet:
        return _rbar_pi(self.n, z_zero)

    # stage 2: barred coefficients ----------------------------------------------

    def bar_solvelist(self, extended: bool = False) -> SolveList:
        pairs = list(_BAR_PAIRS[self.n])
        if extended:
            pairs += BAR_EXTENSION.get(self.n, [])
        z_zero = self.n == 8
        return SolveList.of(self.rbar_pi(z_zero), phibar_template(self.n), pairs, ("x", "y", "z"))

    def bar_rules(self, extended: bool = False) -> RuleSet:
        return self.bar_solvelist(extended=extended).expand()

    # stage 3: the triangular psi system ------------------------------------------

    def psi_recipe(self) -> SolveList:
        """The psi solve list before its pull-back through the bar rules."""
        return SolveList.of(mu_rules(self.n), phibar_template(self.n),
                            _PSI_PAIRS[self.n], ("X", "Y", "Z", "W"))

    def psi_solvelist(self) -> SolveList:
        return self.psi_recipe().pull_back(self.bar_rules())

    def psi_rules(self) -> RuleSet:
        return self.psi_solvelist().expand()

    # stage 4: the composed map in versal coordinates ------------------------------

    def r_pi(self) -> RuleSet:
        sub = self.rbar_pi(self.n in (7, 8)).mapping()
        sub.update(self.psi_rules().mapping())
        return RuleSet.of([(v, p.substitute(sub)) for v, p in mu_inverse(self.n).rules])

    # stage 5: versal coefficients ---------------------------------------------------

    def versal_solvelist(self) -> SolveList:
        return SolveList.of(self.r_pi(), versal_template(self.n), _VERSAL_PAIRS[self.n],
                            ("x", "y", "z"))

    def versal_key(self) -> str:
        return _recipe_key(self.n)

    def versal_rules(self, names: Optional[Sequence[str]] = None) -> RuleSet:
        """The eps_i in s_1..s_n; with ``param``, the eps_i ``names`` (by
        default all) pulled back, cached under a key of their own."""
        key, expand = self.versal_key(), lambda: self.versal_solvelist().expand()
        if self.param is None:
            return self.cache.fetch(key, expand)
        return self.cache.pull_back(key, expand, self.param, names or eps_names(self.n))


@lru_cache(maxsize=None)
def _recipe_key(n: int) -> str:
    """The cache key of the plain versal expansion, hashed from its recipe.

    The recipe is every input of the stages that make up r_pi: the bar
    solve list's key, the psi solve list before its pull-back, the
    generator rules and the versal template and pairs, with the expansion
    version.  It needs no stage, so a warm hit builds no bar, psi or r_pi
    stage.
    """
    pipe = VersalPipeline(n)
    versal = SolveList.of(RuleSet.identity(), versal_template(n), _VERSAL_PAIRS[n], ("x", "y", "z"))
    recipe = {"bar": pipe.bar_solvelist().content_key(),
              "psi": pipe.psi_recipe().to_json(),
              "rbar": pipe.rbar_pi(n in (7, 8)).to_json(),
              "versal": versal.to_json(),
              "expansion": solvelist.EXPANSION_VERSION}
    return hashlib.sha256(json.dumps(recipe, sort_keys=True).encode()).hexdigest()


def versal_coeffs(n: int, cache: Optional[RuleCache] = None) -> dict[str, Polynomial]:
    """The standard coordinate functions eps_i of E6/E7/E8, in s_1..s_n."""
    return dict(VersalPipeline(n, cache=cache).versal_rules().rules)


APPENDIX_MULTIPLIERS = {
    6: {"eps2": 6, "eps5": 81, "eps6": 1944, "eps8": 34992, "eps9": 78732,
        "eps12": 11337408},
    7: {"eps2": 1, "eps6": 48, "eps8": 48, "eps10": 16, "eps12": 6912,
        "eps14": 768, "eps18": 9 * 16 ** 3},
}
