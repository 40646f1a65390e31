"""Relations at a vertex, restricted polynomials, and the key constants.

Three layers of verification live here.  First, the product relations
that tie a distinguished polynomial to those of the two complementary
parts of its diagram at a chosen vertex, including the exact division by
the one missing linear factor in the k = 2 splitting of the E family.
Second, the low-order congruences between standard coordinates across a
splitting, proved symbolically with the part coordinates as free symbols.
Third, the restricted polynomials: monic families whose coefficient maps
annihilate a maximal set of standard coordinates, the pullbacks of the
remaining coordinates along them, and the constants relating a parent
coordinate to a power of the highest-weight part coordinate -- one
exact linear fit per row of the key-computation table.  All three build
the parent's polynomial from the parts' by one :func:`vertex_product`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod
from typing import Optional

from ._record import Record
from .distpoly import from_roots, g_from_f, monic, rules_from_monic, standard_coords
from .envres import VersalPipeline, eps_names, from_versal
from .poly import InconsistentSystemError, LinearSystem, Polynomial, VarTable, exact_div
from .rootsys import Spec, part_functionals, vertex_parts, vertex_split
from .solvelist import RuleCache, RuleSet, ValidityViolation, solve_in_order


# -- the relation among distinguished polynomials -------------------------------


class RelationReport(Record):
    spec: Spec
    k: int
    difference: Polynomial

    @property
    def ok(self) -> bool:
        return self.difference.is_zero


def vertex_product(spec: Spec, k: int, left: Polynomial, right: Polynomial,
                   mu: Polynomial, sigma: Polynomial) -> Polynomial:
    """The distinguished polynomial of ``spec`` from those of its parts at vertex k.

    ``left`` and ``right`` are the parts' monic polynomials in U (1 for an
    absent part), ``mu`` is the dual coordinate of the removed vertex, and
    ``sigma`` is the root of ``right`` that the k = 2 splitting of the E
    family divides out.  All of them share one table, which holds U.
    """
    table = left.table
    U, n, f = table.var("U"), spec.n, Fraction

    def at(p: Polynomial, x: Polynomial) -> Polynomial:
        return p.substitute({"U": x})

    if spec.family == "A":
        return at(left, U + f(1, k) * mu) * at(right, U - f(1, n - k) * mu)
    if spec.family == "D":
        if k <= n - 2:
            return at(left, U + f(1, k) * mu) * right
        return at(left, U + f(2, n) * mu)
    if k == 0:
        return at(left, U - f(9 - n, 3 * n) * mu)
    # rho and tau are the left part's subleading coefficient, the sum of its t's
    if k == 1:
        rho = left.coeffs_in("U").get(n - 2, table.zero())
        head = -U + f(1, 3) * rho - f(9 - n, 6) * mu
        return (-1) ** n * head * at(left, -U - f(1, 6) * rho + f(9 - n, 12) * mu)
    if k == 2:
        shift = f(1, 3) * sigma + f(9 - n, 3 * n - 3) * mu
        head = at(left, U + f(2, 3) * sigma + f(9 - n, 6 * n - 6) * mu)
        return head * exact_div(at(right, U - shift), U - sigma - shift, "U")
    tau = left.coeffs_in("U").get(k - 1, table.zero())
    return left * at(right, U - f(1, 9 - k) * tau - f(9 - n, (9 - k) * (n - k)) * mu)


def dist_relation(spec: Spec, k: int) -> RelationReport:
    """Verify the vertex relation between distinguished polynomials."""
    vs = vertex_split(spec, k)
    # all split rules share one table; extend it by U
    table = vs.rules.rules[0][1].table.merged(VarTable(["U"], [1]))
    U = table.var("U")
    sub = vs.rules.mapping()
    lhs = from_roots(U, [sub[f"t{i}"].to_table(table) for i in range(1, spec.n + 1)])
    tqs = part_functionals(vs.right, "tq", table)
    rhs = vertex_product(spec, k, from_roots(U, part_functionals(vs.left, "tp", table)),
                         from_roots(U, tqs), table.var("mu1"),
                         -tqs[0] if tqs else table.zero())
    return RelationReport(spec, k, lhs - rhs)


# -- low-order congruences between standard coordinates --------------------------


def _scf_table(kind: str, left_n: int, right_n: int) -> VarTable:
    names = ["U", "Z", "mu1"]
    weights = [1, 2, 1]
    for j in range(2, left_n + 1):
        names.append(f"ap{j}")
        weights.append(j)
    if kind == "A":
        for j in range(2, right_n + 1):
            names.append(f"aq{j}")
            weights.append(j)
    else:
        for j in range(1, right_n):
            names.append(f"dq{2*j}")
            weights.append(2 * j)
        names.append("gq")
        weights.append(right_n)
    return VarTable(names, weights)


def _fA(table: VarTable, m: int, prefix: str) -> Polynomial:
    """A-type distinguished polynomial in its coordinates: U^m + sum a_j U^{m-j}."""
    return monic(table.var("U"), [table.zero()] + [table.var(f"{prefix}{j}") for j in range(2, m + 1)])


def low_order_congruences(spec: Spec, k: int) -> dict[str, bool]:
    """The congruences between parent and part coordinates at low order."""
    if spec.family == "E":
        raise ValueError(f"low-order congruences cover the A and D families, not ({spec.name}, {k})")
    left, right = vertex_parts(spec, k)
    p, q = left.n, right.n if right else 0
    out: dict[str, bool] = {}
    if spec.family == "A":
        table = _scf_table("A", p, q)
        f = vertex_product(spec, k, _fA(table, p, "ap"), _fA(table, q, "aq"),
                           table.var("mu1"), table.zero())
        by_u = {e: c.substitute({"mu1": 0}) for e, c in f.coeffs_in("U").items()}

        def a(prefix, j, m):
            if j == 0:
                return table.const(1)
            if j == 1 or j > m:
                return table.zero()
            return table.var(f"{prefix}{j}")

        want_n1 = a("ap", p - 1, p) * a("aq", q, q) \
            + a("ap", p, p) * a("aq", q - 1, q)
        out["alpha_n_minus_1"] = by_u.get(1, table.zero()) == want_n1
        out["alpha_n"] = by_u.get(0, table.zero()) == a("ap", p, p) * a("aq", q, q)
        return out
    if right is None:
        table = _scf_table("A", p, q)
        f = vertex_product(spec, k, _fA(table, p, "ap"), table.const(1),
                           table.var("mu1"), table.zero())
        out["gamma"] = f.substitute({"U": 0, "mu1": 0}) == table.var(f"ap{p}")
        return out
    table = _scf_table("D", p, q)
    U, Z, mu = table.var("U"), table.var("Z"), table.var("mu1")
    fa = _fA(table, p, "ap").substitute({"U": U + Fraction(1, p) * mu})
    gq = monic(Z, [table.var(f"dq{2*j}") for j in range(1, q)] + [table.var("gq") ** 2])
    g = g_from_f(fa, table) * gq
    ap_p = table.var(f"ap{p}") if p >= 2 else table.zero()
    gamma = fa.substitute({"U": 0}) * table.var("gq")
    out["gamma"] = gamma.substitute({"mu1": 0}) == ap_p * table.var("gq")
    if p == 1:
        # delta_{2n-4} of the parent restricts to the top delta of the part
        delta_low = g.coeffs_in("Z").get(2, table.zero())
        out["delta_2n_minus_4"] = delta_low.substitute({"mu1": 0}) == table.var(f"dq{2*q - 2}")
    else:
        delta_top = g.coeffs_in("Z").get(1, table.zero())
        want = ap_p ** 2 * table.var(f"dq{2*q - 2}")
        if p == 2:
            # at k = p = 2 the generic degree count degenerates (the weight-0
            # coefficient alpha'_0 = 1 appears) and one more degree-3 term
            # survives the reduction
            want = want - 2 * ap_p * table.var("gq") ** 2
        out["delta_2n_minus_2"] = delta_top.truncate(3) == want
    return out


# -- restricted polynomials -------------------------------------------------------


LAM_TABLE = VarTable(["U"] + [f"lam{i}" for i in range(1, 9)], [1] + list(range(1, 9)))


class RestrictedPoly(Record):
    """A restricted polynomial, its coefficient map s_i -> lam polynomial,
    and every standard coordinate pulled back along that map."""

    spec: Spec
    r: Polynomial
    s_rules: RuleSet
    vanishing: tuple[str, ...]
    pulls: dict[str, Polynomial]


class RestrictionError(RuntimeError):
    pass


def scf_names(spec: Spec) -> list[str]:
    if from_versal(spec):
        return eps_names(spec.n)
    return list(standard_coords(spec))


def vanishing_coordinates(spec: Spec) -> tuple[str, ...]:
    if spec.family == "A":
        return tuple(f"alpha{j}" for j in range(2, spec.n))
    if spec.family == "D":
        if spec.n % 2 == 0:
            return tuple([f"gamma{spec.n}"] + [f"delta{2*i}" for i in range(1, spec.n - 1)])
        if spec.n == 7:
            return ("delta2", "delta4", "delta6", "gamma7")
        raise RestrictionError(f"no restricted polynomial tabulated for {spec.name}")
    vanish = {
        4: ("eps2", "eps3", "eps4"),
        5: ("eps2", "eps4", "eps5"),
        6: ("eps2", "eps5", "eps6"),
        7: ("eps2", "eps6"),
    }.get(spec.n)
    if vanish is None:
        raise RestrictionError(f"no vanishing set is listed for {spec.name}")
    return vanish


def coord_pullbacks(spec: Spec, s_rules: RuleSet,
                    cache: Optional[RuleCache] = None,
                    names: Optional[list[str]] = None) -> dict[str, Polynomial]:
    """Pull standard coordinate functions back along a coefficient map."""
    if from_versal(spec):
        return dict(VersalPipeline(spec.n, param=s_rules, cache=cache).versal_rules(names).rules)
    coords = standard_coords(spec)
    return {nm: s_rules.apply(coords[nm]) for nm in names or coords}


def derive_restricted(spec: Spec, form: str = "plain",
                      cache: Optional[RuleCache] = None) -> RestrictedPoly:
    """Build the restricted polynomial of a type by triangular elimination.

    The A family admits both tabulated forms ("plain": U^n + lam_n;
    "root": U^n - lam_1^n, exposing a root).  Even D uses the special
    factorization shape U^n - lam_{n-1} U; everything else pulls the
    vanishing coordinates back along s_i -> lam_i and solves them, in
    increasing weight, each for the parameter of its own weight.  Every
    standard coordinate is then pulled back along the restriction, and
    each vanishing one must be zero.
    """
    n = spec.n
    if n > 8:
        raise RestrictionError(f"{spec.name} needs lam{n}, and there is no lam beyond lam8")
    if not scf_names(spec):
        raise RestrictionError(f"{spec.name} has no standard coordinate to restrict")
    table = LAM_TABLE
    U = table.var("U")
    vanish = vanishing_coordinates(spec)
    if spec.family == "A":
        r = U ** n - table.var("lam1") ** n if form == "root" else U ** n + table.var(f"lam{n}")
    elif spec.family == "D" and n % 2 == 0:
        r = U ** n - table.var(f"lam{n-1}") * U
    else:
        lams = [table.var(f"lam{i}") for i in range(1, n + 1)]
        start = RuleSet.of((f"s{i}", lam) for i, lam in enumerate(lams, 1))
        pulled = coord_pullbacks(spec, start, cache, list(vanish))
        targets = []
        for nm in vanish:
            w = pulled[nm].homogeneous_weight()
            if w is None or w > n:
                raise RestrictionError(f"{nm} cannot pin a parameter of its own weight")
            targets.append(f"lam{w}")
        try:
            solved = solve_in_order([pulled[nm] for nm in vanish], targets)
        except ValidityViolation as exc:
            raise RestrictionError(
                f"system is not triangular at {vanish[exc.index]}: {exc.reason}") from exc
        r = monic(U, [solved.apply(lam) for lam in lams])
    rules = rules_from_monic(r, n)
    pulls = coord_pullbacks(spec, rules, cache)
    for nm in vanish:
        if not pulls[nm].is_zero:
            raise RestrictionError(f"{nm} does not vanish on the {spec.name} restriction")
    return RestrictedPoly(spec, r, rules, vanish, pulls)


# -- the key computations ----------------------------------------------------------


class KeyCase(Record):
    """One row of the key-computation table: psi*(target) is the sum of
    constant * monomial over ``terms``, and phi is the last term's variable."""

    parent: int
    k: int
    length: int
    phi_side: str
    target: str
    terms: tuple[tuple[str, Fraction], ...]
    section: str

    @property
    def label(self) -> str:
        return f"E{self.parent}:v{self.k}"

    @property
    def parts(self) -> dict[str, Optional[Spec]]:
        """The left and right parts of the parent's diagram at the vertex."""
        return dict(zip(("left", "right"), vertex_parts(Spec("E", self.parent), self.k)))

    @property
    def degree(self) -> int:
        """phi's exponent in the last term."""
        return _factors(self.terms[-1][0])[-1][1]


def _factors(monomial: str) -> list[tuple[str, int]]:
    """The (name, exponent) factors of a monomial such as delta8^3 or eps8*eps10."""
    return [(nm, int(e or 1)) for nm, _, e in (f.partition("^") for f in monomial.split("*"))]


KEY_CASES: list[KeyCase] = [
    KeyCase(6, 0, 2, "left", "eps6", (("alpha6", Fraction(-1)),), "D4"),
    KeyCase(6, 4, 2, "left", "eps5", (("eps5", Fraction(-1)),), "D4"),
    KeyCase(6, 5, 1, "left", "eps8", (("eps8", Fraction(-1, 4)),), "A1"),
    KeyCase(7, 0, 2, "left", "eps14", (("alpha7^2", Fraction(64)),), "D4"),
    KeyCase(7, 1, 2, "left", "eps10", (("delta10", Fraction(16)),), "D4"),
    KeyCase(7, 2, 3, "right", "eps6", (("alpha6", Fraction(-12)),), "E6"),
    KeyCase(7, 4, 3, "left", "eps10", (("eps5^2", Fraction(16)),), "E6"),
    KeyCase(7, 5, 2, "left", "eps8", (("eps8", Fraction(-4)),), "D4"),
    KeyCase(7, 6, 1, "left", "eps12", (("eps12", Fraction(16)),), "A1"),
    KeyCase(8, 0, 3, "left", "eps24", (("alpha8^3", Fraction(1)),), "E6"),
    KeyCase(8, 1, 2, "left", "eps24",
            (("delta8^3", Fraction(0)), ("delta12^2", Fraction(-1, 16))), "D4"),
    KeyCase(8, 2, 4, "right", "eps14", (("alpha7^2", Fraction(1)),), "E7"),
    KeyCase(8, 5, 4, "left", "eps8", (("eps8", Fraction(-1, 4)),), "E7"),
    KeyCase(8, 6, 3, "left", "eps12", (("eps12", Fraction(1)),), "E6"),
    KeyCase(8, 7, 2, "left", "eps18",
            (("eps8*eps10", Fraction(-1, 3072)), ("eps18", Fraction(1, 64))), "D4"),
]


def key_case(label: str) -> KeyCase:
    for case in KEY_CASES:
        if case.label == label or case.label.replace(":", "") == label.replace(":", ""):
            return case
    raise KeyError(f"unknown key case {label!r}")


def case_restriction(case: KeyCase, cache: Optional[RuleCache]) -> RestrictedPoly:
    """The restricted polynomial of the case's side; a right part carries the
    constant term through the root form.  The one derivation of a case."""
    return derive_restricted(case.parts[case.phi_side],
                             form="root" if case.phi_side == "right" else "plain", cache=cache)


def case_pullback_poly(case: KeyCase, rp: RestrictedPoly) -> Polynomial:
    """The pulled-back distinguished polynomial of the parent type.

    It is the vertex product of ``rp``, the restricted polynomial of the
    case's side, with the other side at its origin (U^m), at mu = 0 and
    with sigma = lam1, the root of the root form.
    """
    table = LAM_TABLE
    U, lam1 = table.var("U"), table.var("lam1")
    parts = {side: U ** part.n if part else table.const(1)
             for side, part in case.parts.items()}
    parts[case.phi_side] = rp.r
    if case.k >= 3 and parts["left"].coeffs_in("U").get(case.k - 1) != lam1:
        raise RestrictionError("restricted polynomial should expose lam1 as its subleading coefficient")
    return vertex_product(Spec("E", case.parent), case.k, parts["left"], parts["right"],
                          table.zero(), lam1)


def case_param(case: KeyCase, rp: RestrictedPoly) -> RuleSet:
    pf = case_pullback_poly(case, rp)
    n = case.parent
    by_u = pf.coeffs_in("U")
    if by_u.get(n) != LAM_TABLE.const(1) or max(by_u) != n:
        raise RestrictionError("pulled-back distinguished polynomial is not monic")
    return rules_from_monic(pf, n)


def pullback_eps(case: KeyCase, rp: RestrictedPoly, cache: Optional[RuleCache]) -> Polynomial:
    """psi* of the target coordinate: the expanded eps pulled back."""
    return coord_pullbacks(Spec("E", case.parent), case_param(case, rp), cache,
                           [case.target])[case.target]


class KeyResult(Record):
    case: KeyCase
    computed: "tuple[Fraction, ...] | None"
    expected: tuple[Fraction, ...]
    eps_pullback: Polynomial
    phi_pullback: Polynomial

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


def key_constant(case: KeyCase, cache: Optional[RuleCache] = None) -> KeyResult:
    """Verify one row of the key-computation table: fit psi* of the target
    to the pulled-back monomials of the row's terms."""
    rp = case_restriction(case, cache)
    eps_pb = pullback_eps(case, rp, cache)
    monos = [_factors(mono) for mono, _ in case.terms]
    basis = [prod(rp.pulls[nm] ** e for nm, e in mono) for mono in monos]
    return KeyResult(case, _fit(eps_pb, basis), tuple(c for _, c in case.terms),
                     eps_pb, rp.pulls[monos[-1][-1][0]])


def _fit(target: Polynomial, basis: list[Polynomial]) -> "tuple[Fraction, ...] | None":
    """The unique c with target == sum c_i * basis_i, or None when there is none."""
    polys = [p.compact() for p in (target, *basis)]
    table = reduce(VarTable.merged, (p.table for p in polys))
    target, *basis = (dict(p.to_table(table).items()) for p in polys)
    system = LinearSystem()
    try:
        for m in set(target).union(*basis):
            system.add({i: b.get(m, 0) for i, b in enumerate(basis)}, target.get(m, 0))
    except InconsistentSystemError:
        return None
    if system.rank < len(basis):
        return None
    c = system.solution()
    return tuple(c[i] for i in range(len(basis)))
