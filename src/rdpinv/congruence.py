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
verified constant per row of the key-computation table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .distpoly import g_from_f, rules_from_monic, standard_coords
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
from .rootsys import Spec, vertex_split
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


def _aug_table(base: VarTable) -> VarTable:
    return base.merged(VarTable(["U"], [1]))


def _fprod(U: Polynomial, shifts: list[Polynomial]) -> Polynomial:
    out = U.table.const(1)
    for sh in shifts:
        out = out * (U + sh)
    return out


def dist_relation(spec: Spec, k: int) -> RelationReport:
    """Verify the vertex relation between distinguished polynomials."""
    vs = vertex_split(spec, k)
    n = spec.n
    # all split rules share one table; extend it by U
    table = _aug_table(vs.rules.rules[0][1].table)
    U = table.var("U")
    mu = table.var("mu1")
    sub = vs.rules.mapping()
    lhs = _fprod(U, [sub[f"t{i}"].to_table(table) for i in range(1, n + 1)])

    def tp(i):
        return table.var(f"tp{i}")

    def tq(i):
        return table.var(f"tq{i}")

    left_n = vs.left.n if vs.left else 0
    right_n = vs.right.n if vs.right else 0
    f = Fraction
    fam, kk = spec.family, k
    if fam == "A":
        rhs = _fprod(U + f(1, kk) * mu, [tp(i) if left_n > 1 else table.zero()
                                         for i in range(1, left_n + 1)]) \
            * _fprod(U - f(1, n - kk) * mu, [tq(i) if right_n > 1 else table.zero()
                                             for i in range(1, right_n + 1)])
    elif fam == "D":
        if kk <= n - 2:
            rhs = _fprod(U + f(1, kk) * mu, [tp(i) if left_n > 1 else table.zero()
                                             for i in range(1, left_n + 1)]) \
                * _fprod(U, [tq(i) for i in range(1, right_n + 1)])
        else:
            rhs = _fprod(U + f(2, n) * mu, [tp(i) for i in range(1, left_n + 1)])
    else:
        if kk == 0:
            rhs = _fprod(U - f(9 - n, 3 * n) * mu, [tp(i) for i in range(1, left_n + 1)])
        elif kk == 1:
            rho = table.zero()
            for i in range(1, left_n + 1):
                rho = rho + tp(i)
            head = -U + f(1, 3) * rho - f(9 - n, 6) * mu
            arg = -U - f(1, 6) * rho + f(9 - n, 12) * mu
            rhs = (-1) ** n * head * _fprod(arg, [tp(i) for i in range(1, left_n + 1)])
        elif kk == 2:
            sigma = -tq(1)
            head = _fprod(U + f(2, 3) * sigma + f(9 - n, 6 * n - 6) * mu, [tp(1), tp(2)])
            num = _fprod(U - f(1, 3) * sigma - f(9 - n, 3 * n - 3) * mu,
                         [tq(i) for i in range(1, right_n + 1)])
            den = U - f(4, 3) * sigma - f(9 - n, 3 * n - 3) * mu
            rhs = head * exact_div(num, den, "U")
        else:
            tau = table.zero()
            for i in range(1, left_n + 1):
                tau = tau + tp(i)
            shift = -f(1, 9 - kk) * tau - f(9 - n, (9 - kk) * (n - kk)) * mu
            rhs = _fprod(U, [tp(i) for i in range(1, left_n + 1)]) \
                * _fprod(U + shift, [tq(i) if right_n > 1 else table.zero()
                                     for i in range(1, right_n + 1)])
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


def _fA_sym(table: VarTable, m: int, arg: Polynomial, prefix: str) -> Polynomial:
    """A-type distinguished polynomial in its coordinates: arg^m + sum a_j arg^{m-j}."""
    out = arg ** m
    for j in range(2, m + 1):
        out = out + table.var(f"{prefix}{j}") * arg ** (m - j)
    return out


def low_order_congruences(spec: Spec, k: int) -> dict[str, bool]:
    """The congruences between parent and part coordinates at low order."""
    n = spec.n
    out: dict[str, bool] = {}
    if spec.family == "A":
        if not 1 <= k <= n - 1:
            raise ValueError(f"no splitting of {spec.name} at {k}")
        table = _scf_table("A", k, n - k)
        U, mu = table.var("U"), table.var("mu1")
        f = _fA_sym(table, k, U + Fraction(1, k) * mu, "ap") \
            * _fA_sym(table, n - k, U - Fraction(1, n - k) * mu, "aq")
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
        mu = table.var("mu1")
        gamma = _fA_sym(table, n, Fraction(2, n) * mu, "ap")
        out["gamma"] = gamma.substitute({"mu1": 0}) == table.var(f"ap{n}")
        return out
    right_n = n - k
    table = _scf_table("D", k, right_n)
    U, Z, mu = table.var("U"), table.var("Z"), table.var("mu1")
    fa = _fA_sym(table, k, U + Fraction(1, k) * mu, "ap")
    gtilde = g_from_f(fa, table)
    gq = Z ** right_n
    for j in range(1, right_n):
        gq = gq + table.var(f"dq{2*j}") * Z ** (right_n - j)
    gq = gq + table.var("gq") ** 2
    g = gtilde * gq
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
    return {
        4: ("eps2", "eps3", "eps4"),
        5: ("eps2", "eps4", "eps5"),
        6: ("eps2", "eps5", "eps6"),
        7: ("eps2", "eps6"),
    }[spec.n]


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
    table = LAM_TABLE if n <= 8 else None
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
    r = U ** n
    for i in range(1, n + 1):
        r = r + rule_set[f"s{i}"] * U ** (n - i)
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


def case_pullback_poly(case: KeyCase, cache: Optional[RuleCache] = None) -> Polynomial:
    """The pulled-back distinguished polynomial of the parent type."""
    n = case.parent
    k = case.k
    table = LAM_TABLE
    U = table.var("U")
    f = Fraction
    if k == 0:
        return U ** n + table.var(f"lam{n}")
    if k == 1:
        rp = derive_restricted(Spec.from_name(case.left), cache=cache)
        rho = rp.r.coeffs_in("U").get(n - 2, table.zero())
        head = -U + f(1, 3) * rho
        return (-1) ** n * head * rp.r.substitute({"U": -U - f(1, 6) * rho})
    if k == 2:
        lam1 = table.var("lam1")
        total = table.zero()
        for i in range(n - 1):
            total = total + lam1 ** i * (U - f(1, 3) * lam1) ** (n - 2 - i)
        return (U + f(2, 3) * lam1) ** 2 * total
    rp = derive_restricted(Spec.from_name(case.left), cache=cache)
    tau = rp.r.coeffs_in("U").get(k - 1, table.zero())
    if tau != table.var("lam1"):
        raise RestrictionError("restricted polynomial should expose lam1 as its subleading coefficient")
    return (U - f(1, 9 - k) * table.var("lam1")) ** (n - k) * rp.r


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
    side = Spec.from_name(case.left if case.phi_side == "left" else case.right)
    if case.phi_side == "right":
        # the right part carries the constant term through the root form
        rp = derive_restricted(side, form="root", cache=cache)
    else:
        rp = derive_restricted(side, cache=cache)
    if case.phi_name == rp.constant_name:
        return rp.constant_pullback
    return coord_pullbacks(side, rp.s_rules, cache, [case.phi_name])[case.phi_name]


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
    if case.parent == 8 and case.k == 1:
        pulls = coord_pullbacks(side, rp.s_rules, cache, ["delta8", "delta12"])
        A = pulls["delta8"] ** 3
        B = pulls["delta12"] ** 2
    else:
        pulls = coord_pullbacks(side, rp.s_rules, cache, ["eps8", "eps10", "eps18"])
        A = pulls["eps8"] * pulls["eps10"]
        B = pulls["eps18"]
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
