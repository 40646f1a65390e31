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
verified constant per row of the key-computation table.  All three build
the parent's polynomial from the parts' by one :func:`vertex_product`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional

from .distpoly import from_roots, g_from_f, monic, rules_from_monic, standard_coords
from .envres import VersalPipeline, eps_names
from .poly import (
    AbsentVariableError,
    InconsistentSystemError,
    LinearSystem,
    NonLinearError,
    Polynomial,
    VarTable,
    exact_div,
)
from .rootsys import Spec, part_functionals, vertex_split
from .solvelist import RuleCache, RuleSet


# -- the relation among distinguished polynomials -------------------------------


@dataclass(frozen=True)
class RelationReport:
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
    n = spec.n
    out: dict[str, bool] = {}
    if spec.family == "A":
        if not 1 <= k <= n - 1:
            raise ValueError(f"no splitting of {spec.name} at {k}")
        table = _scf_table("A", k, n - k)
        f = vertex_product(spec, k, _fA(table, k, "ap"), _fA(table, n - k, "aq"),
                           table.var("mu1"), table.zero())
        by_u = {e: c.substitute({"mu1": 0}) for e, c in f.coeffs_in("U").items()}

        def a(prefix, j, m):
            if j == 0:
                return table.const(1)
            if j == 1 or j > m:
                return table.zero()
            return table.var(f"{prefix}{j}")

        want_n1 = a("ap", k - 1, k) * a("aq", n - k, n - k) \
            + a("ap", k, k) * a("aq", n - k - 1, n - k)
        out["alpha_n_minus_1"] = by_u.get(1, table.zero()) == want_n1
        out["alpha_n"] = by_u.get(0, table.zero()) == a("ap", k, k) * a("aq", n - k, n - k)
        return out
    if spec.family != "D" or k == n - 1 or not 1 <= k <= n:
        raise ValueError(f"low-order congruences cover the A and D families, not ({spec.name}, {k})")
    if k == n:
        table = _scf_table("A", n, 0)
        f = vertex_product(spec, k, _fA(table, n, "ap"), table.const(1),
                           table.var("mu1"), table.zero())
        out["gamma"] = f.substitute({"U": 0, "mu1": 0}) == table.var(f"ap{n}")
        return out
    right_n = n - k
    table = _scf_table("D", k, right_n)
    U, Z, mu = table.var("U"), table.var("Z"), table.var("mu1")
    fa = _fA(table, k, "ap").substitute({"U": U + Fraction(1, k) * mu})
    gq = monic(Z, [table.var(f"dq{2*j}") for j in range(1, right_n)] + [table.var("gq") ** 2])
    g = g_from_f(fa, table) * gq
    ap_k = table.var(f"ap{k}") if k >= 2 else table.zero()
    gamma = fa.substitute({"U": 0}) * table.var("gq")
    out["gamma"] = gamma.substitute({"mu1": 0}) == ap_k * table.var("gq")
    if k == 1:
        # delta_{2n-4} of the parent restricts to the top delta of the part
        delta_low = g.coeffs_in("Z").get(2, table.zero())
        out["delta_2n_minus_4"] = delta_low.substitute({"mu1": 0}) == table.var(f"dq{2*right_n - 2}")
    else:
        delta_top = g.coeffs_in("Z").get(1, table.zero())
        want = ap_k ** 2 * table.var(f"dq{2*right_n - 2}")
        if k == 2:
            # at k = 2 the generic degree count degenerates (the weight-0
            # coefficient alpha'_0 = 1 appears) and one more degree-3 term
            # survives the reduction
            want = want - 2 * ap_k * table.var("gq") ** 2
        out["delta_2n_minus_2"] = delta_top.truncate(3) == want
    return out


# -- restricted polynomials -------------------------------------------------------


LAM_TABLE = VarTable(["U"] + [f"lam{i}" for i in range(1, 9)], [1] + list(range(1, 9)))


@dataclass(frozen=True)
class RestrictedPoly:
    spec: Spec
    r: Polynomial
    s_rules: RuleSet
    vanishing: tuple[str, ...]
    constant_name: str
    constant_pullback: Polynomial


class RestrictionError(RuntimeError):
    pass


def scf_names(spec: Spec) -> list[str]:
    if spec.family == "A":
        return [f"alpha{i}" for i in range(2, spec.n + 1)]
    if spec.family == "D":
        return [f"gamma{spec.n}"] + [f"delta{2*i}" for i in range(1, spec.n)]
    if spec.n in (6, 7, 8):
        return eps_names(spec.n)
    return list(standard_coords(spec))


def constant_term_name(spec: Spec) -> str:
    names = scf_names(spec)
    if spec.family == "A":
        return f"alpha{spec.n}"
    if spec.family == "D":
        return f"delta{2*spec.n - 2}"
    return names[-1]


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
    if spec.family == "E" and spec.n >= 6:
        return dict(VersalPipeline(spec.n, param=s_rules, cache=cache).versal_rules(names).rules)
    coords = standard_coords(spec)
    return {nm: s_rules.apply(coords[nm]) for nm in names or coords}


def derive_restricted(spec: Spec, form: str = "plain",
                      cache: Optional[RuleCache] = None) -> RestrictedPoly:
    """Build the restricted polynomial of a type by triangular elimination.

    The A family admits both tabulated forms ("plain": U^n + lam_n;
    "root": U^n - lam_1^n, exposing a root).  Even D uses the special
    factorization shape U^n - lam_{n-1} U; everything else sets the
    vanishing coordinates to zero in increasing weight and solves each for
    the parameter of its own weight.
    """
    n = spec.n
    if n > 8:
        raise RestrictionError(f"{spec.name} needs lam{n}, and there is no lam beyond lam8")
    table = LAM_TABLE
    U = table.var("U")
    vanish = vanishing_coordinates(spec)
    if spec.family == "A":
        if form == "root":
            r = U ** n - table.var("lam1") ** n
        else:
            r = U ** n + table.var(f"lam{n}")
        rules = rules_from_monic(r, n)
        const = coord_pullbacks(spec, rules, cache, [constant_term_name(spec)])
        return RestrictedPoly(spec, r, rules, vanish, constant_term_name(spec),
                              const[constant_term_name(spec)])
    if spec.family == "D" and n % 2 == 0:
        r = U ** n - table.var(f"lam{n-1}") * U
        rules = rules_from_monic(r, n)
        pulls = coord_pullbacks(spec, rules, cache)
        for nm in vanish:
            if not pulls[nm].is_zero:
                raise RestrictionError(f"{nm} does not vanish on the even-D restriction")
        return RestrictedPoly(spec, r, rules, vanish, constant_term_name(spec),
                              pulls[constant_term_name(spec)])
    # triangular elimination
    rules = {f"s{i}": table.var(f"lam{i}") for i in range(1, n + 1)}
    for nm in vanish:
        pulled = coord_pullbacks(spec, RuleSet.of(rules.items()), cache, [nm])[nm]
        w = pulled.homogeneous_weight()
        if w is None or w > n:
            raise RestrictionError(f"{nm} cannot pin a parameter of its own weight")
        target = f"lam{w}"
        try:
            sol = pulled.solve_linear(target)
        except (NonLinearError, AbsentVariableError) as exc:
            raise RestrictionError(f"system is not triangular at {nm}: {exc}") from exc
        sub = {target: sol}
        rules = {k: v.substitute(sub) for k, v in rules.items()}
    rule_set = RuleSet.of(sorted(rules.items(), key=lambda kv: int(kv[0][1:])))
    r = monic(U, [rule_set[f"s{i}"] for i in range(1, n + 1)])
    cname = constant_term_name(spec)
    const = coord_pullbacks(spec, rule_set, cache, [cname])[cname]
    return RestrictedPoly(spec, r, rule_set, tuple(vanish), cname, const)


# -- the key computations ----------------------------------------------------------


@dataclass(frozen=True)
class KeyCase:
    parent: int
    k: int
    length: int
    left: str
    right: Optional[str]
    phi_side: str
    phi_name: str
    target: str
    degree: int
    constant: Optional[Fraction]
    two_term: Optional[tuple[str, tuple[Fraction, Fraction]]]
    monomial: str
    section: str

    @property
    def label(self) -> str:
        return f"E{self.parent}:v{self.k}"


def _fr(a, b=1) -> Fraction:
    return Fraction(a, b)


KEY_CASES: list[KeyCase] = [
    KeyCase(6, 0, 2, "A5", None, "left", "alpha6", "eps6", 1, _fr(-1), None, "T*Z^2", "D4"),
    KeyCase(6, 4, 2, "E4", "A1", "left", "eps5", "eps5", 1, _fr(-1), None, "T*Y*Z", "D4"),
    KeyCase(6, 5, 1, "E5", "A0", "left", "eps8", "eps8", 1, _fr(-1, 4), None, "T*Y", "A1"),
    KeyCase(7, 0, 2, "A6", None, "left", "alpha7", "eps14", 2, _fr(64), None, "T^2*Z", "D4"),
    KeyCase(7, 1, 2, "D6", None, "left", "delta10", "eps10", 1, _fr(16), None, "T*Z^2", "D4"),
    KeyCase(7, 2, 3, "A1", "A5", "right", "alpha6", "eps6", 1, _fr(-12), None, "T*Y^2", "E6"),
    KeyCase(7, 4, 3, "E4", "A2", "left", "eps5", "eps10", 2, _fr(16), None, "T^2*Z^2", "E6"),
    KeyCase(7, 5, 2, "E5", "A1", "left", "eps8", "eps8", 1, _fr(-4), None, "T*Y*Z", "D4"),
    KeyCase(7, 6, 1, "E6", "A0", "left", "eps12", "eps12", 1, _fr(16), None, "T*Y", "A1"),
    KeyCase(8, 0, 3, "A7", None, "left", "alpha8", "eps24", 3, _fr(1), None, "T^3*Z", "E6"),
    KeyCase(8, 1, 2, "D7", None, "left", "delta12", "eps24", 2, _fr(-1, 16),
            ("delta8^3,delta12^2", (_fr(0), _fr(-1, 16))), "T^2*Z", "D4"),
    KeyCase(8, 2, 4, "A1", "A6", "right", "alpha7", "eps14", 2, _fr(1), None, "T^2*Y*Z", "E7"),
    KeyCase(8, 5, 4, "E5", "A2", "left", "eps8", "eps8", 1, _fr(-1, 4), None, "T*Y*Z^2", "E7"),
    KeyCase(8, 6, 3, "E6", "A1", "left", "eps12", "eps12", 1, _fr(1), None, "T*Z^3", "E6"),
    KeyCase(8, 7, 2, "E7", "A0", "left", "eps18", "eps18", 1, _fr(1, 64),
            ("eps8*eps10,eps18", (_fr(-1, 3072), _fr(1, 64))), "T*Z^2", "D4"),
]


def key_case(label: str) -> KeyCase:
    for case in KEY_CASES:
        if case.label == label or case.label.replace(":", "") == label.replace(":", ""):
            return case
    raise KeyError(f"unknown key case {label!r}")


def _case_restricted(case: KeyCase, cache: Optional[RuleCache]) -> RestrictedPoly:
    """The restricted polynomial of the case's side; a right part carries the
    constant term through the root form."""
    side = Spec.from_name(case.left if case.phi_side == "left" else case.right)
    return derive_restricted(side, form="root" if case.phi_side == "right" else "plain",
                             cache=cache)


def case_pullback_poly(case: KeyCase, cache: Optional[RuleCache] = None) -> Polynomial:
    """The pulled-back distinguished polynomial of the parent type.

    It is the vertex product of the restricted polynomial of the case's
    side with the other side at its origin (U^m), at mu = 0 and with
    sigma = lam1, the root of the root form.
    """
    table = LAM_TABLE
    U, lam1 = table.var("U"), table.var("lam1")
    parts = {side: U ** Spec.from_name(name).n if name else table.const(1)
             for side, name in (("left", case.left), ("right", case.right))}
    parts[case.phi_side] = _case_restricted(case, cache).r
    if case.k >= 3 and parts["left"].coeffs_in("U").get(case.k - 1) != lam1:
        raise RestrictionError("restricted polynomial should expose lam1 as its subleading coefficient")
    return vertex_product(Spec("E", case.parent), case.k, parts["left"], parts["right"],
                          table.zero(), lam1)


def case_param(case: KeyCase, cache: Optional[RuleCache] = None) -> RuleSet:
    pf = case_pullback_poly(case, cache)
    n = case.parent
    by_u = pf.coeffs_in("U")
    if by_u.get(n) != LAM_TABLE.const(1) or max(by_u) != n:
        raise RestrictionError("pulled-back distinguished polynomial is not monic")
    return rules_from_monic(pf, n)


def pullback_eps(case: KeyCase, cache: Optional[RuleCache] = None) -> Polynomial:
    """psi* of the target coordinate: the expanded eps pulled back."""
    pipe = VersalPipeline(case.parent, param=case_param(case, cache), cache=cache)
    return pipe.versal_rules([case.target])[case.target]


def phi_pullback(case: KeyCase, cache: Optional[RuleCache] = None) -> Polynomial:
    """psi* of the highest-weight part coordinate named by the case."""
    rp = _case_restricted(case, cache)
    if case.phi_name == rp.constant_name:
        return rp.constant_pullback
    return coord_pullbacks(rp.spec, rp.s_rules, cache, [case.phi_name])[case.phi_name]


@dataclass(frozen=True)
class KeyResult:
    case: KeyCase
    computed: "tuple[Fraction, ...] | None"
    expected: tuple[Fraction, ...]
    eps_pullback: Polynomial
    phi_pullback: Polynomial

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


def _constant_ratio(num: Polynomial, den: Polynomial) -> Optional[Fraction]:
    if den.is_zero:
        return None
    if num.is_zero:
        return Fraction(0)
    # on one table, num == r * den puts both leading terms on one monomial
    table = num.table.merged(den.table)
    (mn, cn), (md, cd) = num.to_table(table).leading_term(), den.to_table(table).leading_term()
    if mn != md:
        return None
    ratio = Fraction(cn) / Fraction(cd)
    return ratio if num == ratio * den else None


def key_constant(case: KeyCase, cache: Optional[RuleCache] = None) -> KeyResult:
    """Verify one row of the key-computation table."""
    eps_pb = pullback_eps(case, cache)
    if case.two_term is None:
        phi_pb = phi_pullback(case, cache)
        ratio = _constant_ratio(eps_pb, phi_pb ** case.degree)
        computed = None if ratio is None else (ratio,)
        return KeyResult(case, computed, (case.constant,), eps_pb, phi_pb)
    names, expected = case.two_term
    side = Spec.from_name(case.left)
    rp = derive_restricted(side, cache=cache)
    # names is "A,B", each a product of coordinates such as delta8^3 or eps8*eps10
    monos = [[(nm, int(e or 1)) for nm, _, e in (f.partition("^") for f in mono.split("*"))]
             for mono in names.split(",")]
    pulls = coord_pullbacks(side, rp.s_rules, cache, [nm for mono in monos for nm, _ in mono])
    A, B = (prod(pulls[nm] ** e for nm, e in mono) for mono in monos)
    computed = _solve_two_term(eps_pb, A, B)
    phi_pb = rp.constant_pullback
    return KeyResult(case, computed, expected, eps_pb, phi_pb)


def _solve_two_term(target: Polynomial, A: Polynomial, B: Polynomial) -> "tuple[Fraction, Fraction] | None":
    """Exact undetermined coefficients for target = c1*A + c2*B."""
    target, A, B = (p.compact() for p in (target, A, B))
    table = target.table.merged(A.table).merged(B.table)
    target, A, B = (dict(p.to_table(table).items()) for p in (target, A, B))
    system = LinearSystem()
    try:
        for m in A.keys() | B.keys() | target.keys():
            system.add({1: A.get(m, 0), 2: B.get(m, 0)}, target.get(m, 0))
    except InconsistentSystemError:
        return None
    if system.rank < 2:
        return None
    c = system.solution()
    return (c[1], c[2])
