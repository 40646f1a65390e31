"""Distinguished polynomials and closed-form standard coordinates.

The distinguished polynomial of a type collects its functionals into
prod(U + t_i) = U^n + sum s_i U^{n-i}; for the D family a second
polynomial in an auxiliary weight-2 variable Z captures the invariants of
the full reflection group.  Standard coordinate functions are returned as
exact polynomials in s_1..s_n for every type whose closed form is known
(A, D including D2, E3, E4, E5); the three large E types are produced by
the versal-form pipeline in :mod:`rdpinv.envres`.

The elementary symmetric functions e_1..e_n of the t's come together from
one product recurrence, prod(1 + t_i X).  Both directions between the s_i
and the t's work on partitions, since a symmetric polynomial is
sum c_lam m_lam over the orbit sums m_lam, and both use one table of
products of the e_j kept as orbit totals on partitions (the triangular
m -> e transition; Sturmfels, *Algorithms in Invariant Theory* 1.1,
Macdonald, *Symmetric Functions* I.2, I.6).  Both work in integer
numerators over one denominator, through the kernel's packed read and write
(:meth:`Polynomial.numerators_over`, :meth:`Polynomial.from_numerators`),
never per term.  Expanding a coordinate in the t's sums those products
over its terms and keeps the result as an :class:`~rdpinv.rootsys.OrbitSums`
store, one numerator per orbit of the Young subgroup H of the blocks of t's
it is given (S_n, one block, by default); no t-term is written out.  The
store type lives in :mod:`rdpinv.rootsys`, beside the reflection that
moves it, and writes no terms out either.  Symmetric rewriting (from the t's back to the s_i) reads such a store,
checks that every S_n orbit of exponent vectors is complete and carries one
numerator, which certifies symmetry, and then peels the partitions from the
top against the same products.  The literal invariance check expands a
coordinate on the blocks of t's that the generator treats alike
(:func:`rdpinv.rootsys.reflection_blocks`, S3 x S3 for E6 generator 0),
applies the generator as the rank-one reflection of
:func:`rdpinv.rootsys.weyl_action`, which moves the store on its
representatives, and compares; expansion and reduction share one product
table per n, kept for the life of the process.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, groupby
from math import comb, factorial, lcm, prod
from typing import Optional

from ._record import Record
from .poly import Polynomial, VarTable, parse
from .rootsys import OrbitSums, Spec, part_functionals, reflection_blocks, weyl_action
from .solvelist import RuleSet


class NonSymmetricError(ValueError):
    """Input to symmetric reduction is not a symmetric polynomial."""


def _t_names(n: int) -> list[str]:
    return [f"t{i}" for i in range(1, n + 1)]


def _s_names(n: int) -> list[str]:
    return [f"s{i}" for i in range(1, n + 1)]


def ts_table(n: int) -> VarTable:
    """U, Z plus t- and s-variables for one type, in a single table."""
    names = ["U", "Z"] + _t_names(n) + _s_names(n)
    weights = [1, 2] + [1] * n + list(range(1, n + 1))
    return VarTable(names, weights)


def elementary(values: list[Polynomial]) -> list[Polynomial]:
    """[e_0, e_1, ..., e_n] of the values, all from one product recurrence:
    e_j is the coefficient of X^j in prod(1 + v_i X), built factor by factor."""
    if not values:
        raise ValueError("need at least one value")
    es = [values[0].table.const(1)]
    for v in values:
        es = [es[0]] + [es[k] + es[k - 1] * v for k in range(1, len(es))] + [es[-1] * v]
    return es


def elem_sym(values: list[Polynomial], j: int) -> Polynomial:
    """The elementary symmetric function e_j; 1 for j = 0, zero above len(values)."""
    if j < 0:
        raise ValueError(f"no elementary symmetric function of negative degree {j}")
    es = elementary(values)
    return es[j] if j < len(es) else values[0].table.zero()


def monic(U: Polynomial, coeffs: list[Polynomial]) -> Polynomial:
    """U^m + sum c_i U^(m-i) for coeffs = [c_1, ..., c_m]; the inverse of
    :func:`rules_from_monic`."""
    m = len(coeffs)
    out = U ** m
    for i, c in enumerate(coeffs, 1):
        out = out + c * U ** (m - i)
    return out


def from_roots(U: Polynomial, shifts: list[Polynomial]) -> Polynomial:
    """prod(U + shift) over the shifts; 1 for none."""
    out = U.table.const(1)
    for sh in shifts:
        out = out * (U + sh)
    return out


def f_product(spec: Spec, table: Optional[VarTable] = None) -> Polynomial:
    """prod(U + t_i), the factored form of the distinguished polynomial."""
    table = table or ts_table(spec.n)
    return from_roots(table.var("U"), part_functionals(spec, "t", table))


def f_sform(spec: Spec, table: Optional[VarTable] = None) -> Polynomial:
    """U^n + sum s_i U^{n-i}; the A family drops s_1 (it vanishes there)."""
    table = table or ts_table(spec.n)
    return monic(table.var("U"), [table.zero() if spec.family == "A" and i == 1
                                  else table.var(f"s{i}") for i in range(1, spec.n + 1)])


def s_to_t_rules(n: int, table: Optional[VarTable] = None) -> dict[str, Polynomial]:
    """The rules s_j -> e_j(t_1..t_n); substituting them is what :func:`t_expand` computes."""
    table = table or ts_table(n)
    es = elementary([table.var(f"t{i}") for i in range(1, n + 1)])
    return {f"s{j}": es[j] for j in range(1, n + 1)}


class DistData(Record):
    """Distinguished polynomial in both forms, plus the D-family extras."""

    spec: Spec
    f_t: Polynomial
    f_s: Polynomial
    g: Optional[Polynomial] = None
    P: Optional[Polynomial] = None
    Q: Optional[Polynomial] = None
    S: Optional[Polynomial] = None
    G: Optional[Polynomial] = None
    G_hom: Optional[Polynomial] = None


def _even_odd_in_Z(p: Polynomial, table: VarTable) -> tuple[Polynomial, Polynomial]:
    """Split p(U) = U*P(-U^2) + Q(-U^2); returns (P(Z), Q(Z))."""
    Z = table.var("Z")
    P = table.zero()
    Q = table.zero()
    for e, coeff in p.coeffs_in("U").items():
        k, odd = divmod(e, 2)
        piece = coeff * (-Z) ** k
        if odd:
            P = P + piece
        else:
            Q = Q + piece
    return P, Q


def g_from_f(f_of_U: Polynomial, table: VarTable) -> Polynomial:
    """g(Z) defined by g(-U^2) = f(U) * f(-U)."""
    U = table.var("U")
    minus = f_of_U.substitute({"U": -U})
    prod = f_of_U * minus
    Z = table.var("Z")
    out = table.zero()
    for e, coeff in prod.coeffs_in("U").items():
        if e % 2:
            raise ValueError("f(U)*f(-U) must be even in U")
        out = out + coeff * (-Z) ** (e // 2)
    return out


def g_dist(n: int) -> dict[str, Polynomial]:
    """Second-distinguished coefficients {gamma, delta2, ..., delta_{2n-2}} in s."""
    spec = Spec("D", n)
    table = ts_table(n)
    g = g_from_f(f_sform(spec, table), table)
    byZ = g.coeffs_in("Z")
    out = {"gamma": table.var(f"s{n}")}
    for i in range(1, n):
        out[f"delta{2*i}"] = byZ.get(n - i, table.zero())
    # constant term of g is gamma^2; not an independent generator
    return out


def pq_split(n: int) -> DistData:
    spec = Spec("D", n)
    table = ts_table(n)
    f_s = f_sform(spec, table)
    f_t = f_product(spec, table)
    g = g_from_f(f_s, table)
    P, Q = _even_odd_in_Z(f_s, table)
    Z = table.var("Z")
    U = table.var("U")
    sn = table.var(f"s{n}")
    from .poly import exact_div

    S = exact_div(Q - sn, Z, "Z")
    G = exact_div(U * P + Q - f_s, Z + U ** 2, "Z")
    # homogenize the U-direction: G has degree n-2 in U
    table_uv = table.merged(VarTable(["uu", "vv"], [1, 0]))
    uu, vv = table_uv.var("uu"), table_uv.var("vv")
    G_hom = table_uv.zero()
    for e, coeff in G.to_table(table_uv).coeffs_in("U").items():
        G_hom = G_hom + coeff * uu ** e * vv ** (n - 2 - e)
    return DistData(spec, f_t, f_s, g=g, P=P, Q=Q, S=S, G=G, G_hom=G_hom)


def f_dist(spec: Spec) -> DistData:
    if spec.family == "D":
        return pq_split(spec.n)
    table = ts_table(spec.n)
    return DistData(spec, f_product(spec, table), f_sform(spec, table))


# -- expansion and symmetric reduction on partitions ---------------------------


@lru_cache(maxsize=None)
def _orbit_size(lam: tuple[int, ...]) -> int:
    """The number of distinct rearrangements of the exponent vector lam."""
    return factorial(len(lam)) // prod(map(factorial, Counter(lam).values()))


@lru_cache(maxsize=None)
def _raised(runs: tuple[tuple[int, int], ...], j: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``(mu, ways)`` for each way to raise j places of the partition whose
    runs (value, length) are ``runs`` by one: k_i places of run i become
    v_i + 1, which keeps mu descending, in prod C(m_i, k_i) ways."""
    if not runs:
        return () if j else (((), 1),)
    (v, m), rest = runs[0], runs[1:]
    return tuple(((v + 1,) * k + (v,) * (m - k) + mu, comb(m, k) * ways)
                 for k in range(min(m, j) + 1) for mu, ways in _raised(rest, j - k))


def _times_e(g: dict, j: int) -> Counter:
    """g * e_j, both symmetric and kept as orbit totals on partitions.

    The orbit total at a partition is the sum of the coefficients over the
    terms of its orbit.  Each term t^w of nu's orbit meets as many j-subsets
    S with w + 1_S in a given orbit as nu itself does, so g(nu) moves to
    sort(nu + 1_S) once for every j-subset S of the places; the subsets that
    raise equally many places of each run of nu give one mu, and are
    counted at once (:func:`_raised`).
    """
    out = Counter()
    for nu, total in g.items():
        runs = tuple((v, len(list(run))) for v, run in groupby(nu))
        for mu, ways in _raised(runs, j):
            out[mu] += total * ways
    return out


class _EProducts(dict):
    """prod e_j^d_j in t_1..t_n as orbit totals on partitions, keyed by d.

    A missing d is built from the entry with one fewer factor of its
    highest e_j, by one :func:`_times_e`.  There is one table per n
    (:func:`_e_products`), shared by every expansion and reduction.
    """

    def __missing__(self, d: tuple[int, ...]) -> Counter:
        j = max(i for i, e in enumerate(d) if e)
        out = self[d] = _times_e(self[d[:j] + (d[j] - 1,) + d[j + 1:]], j + 1)
        return out


@lru_cache(maxsize=None)
def _e_products(n: int) -> _EProducts:
    return _EProducts({(0,) * n: {(0,) * n: 1}})


@lru_cache(maxsize=None)
def _dealings(lam: tuple[int, ...], blocks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every distinct dealing of the descending ``lam`` into consecutive
    blocks of sizes ``blocks``, each block descending: the representatives
    of the orbits of the blocks' Young subgroup inside lam's S_n orbit."""
    if len(blocks) < 2:
        return (lam,)
    out = []
    for head in sorted(set(combinations(lam, blocks[0])), reverse=True):
        rest = list(lam)
        for x in head:
            rest.remove(x)
        out += [head + tail for tail in _dealings(tuple(rest), blocks[1:])]
    return tuple(out)


def t_expand(phi: Polynomial, n: int, blocks: Optional[tuple[int, ...]] = None) -> OrbitSums:
    """phi with each s_j replaced by the elementary symmetric function e_j of
    t_1..t_n, as an :class:`OrbitSums` store on ``ts_table(n)`` over the
    blocks ``blocks`` of consecutive t's (one block of all n t's without).

    The expansion is symmetric, so it is built on partitions: each term
    a * s^d (a a numerator over phi's denominator) adds a * prod e_j^d_j,
    kept as orbit totals (the products :func:`symmetric_reduce` peels
    against, from the same table).  With L the lcm of the orbit
    sizes, each orbit carries total * (L / size) over L * den, written once
    for each distinct dealing of its partition into the blocks.  A variable
    other than s_1..s_n raises ``ValueError``.
    """
    extraneous = phi.variables() - set(_s_names(n))
    if extraneous:
        raise ValueError(f"input involves non-s variables {sorted(extraneous)}")
    products = _e_products(n)
    den, rows = phi.numerators_over(_s_names(n))
    totals: Counter = Counter()
    for d, (a,) in rows.items():
        for lam, g in products[d].items():
            totals[lam] += a * g
    sizes = {lam: _orbit_size(lam) for lam, total in totals.items() if total}
    L = lcm(*sizes.values())
    dealt = tuple(blocks or (n,))
    return OrbitSums.of(ts_table(n), _t_names(n), dealt, {
        r: totals[lam] * (L // size) for lam, size in sizes.items() for r in _dealings(lam, dealt)},
        den * L)


def symmetric_reduce(store: OrbitSums, n: int) -> Polynomial:
    """Rewrite an :class:`OrbitSums` store over t_1..t_n, symmetric in them,
    as a polynomial in s_1..s_n.

    A store over other names raises ``ValueError``.  Every S_n orbit of
    t-exponents must carry one numerator and be complete, else
    :class:`NonSymmetricError` is raised.  Representatives are grouped by
    their partition lam: lam's orbit is complete exactly when the orbits of
    the representatives present, under the store's Young subgroup H, add up
    to it (sum |H r| = n! / prod mult!), since distinct representatives have
    disjoint H-orbits inside it.  Then partitions are peeled off a heap in
    descending (degree, lex) order: the top lam with orbit total T gives
    c * prod s_j^(lam_j - lam_{j+1}), c = T / size exactly (a remainder
    raises ``ArithmeticError``), and c times that product of e_j, memoized in
    the table of n that :func:`t_expand` shares, is subtracted.
    """
    names = tuple(_t_names(n))
    if store.names != names:
        raise ValueError(f"a store over {store.names}, not over {names}")
    orbits, counts, spans = {}, Counter(), store.spans
    for r, a in store.numerators.items():
        lam = tuple(sorted(r, reverse=True))
        orbits.setdefault(lam, []).append(a)
        counts[lam] += prod([_orbit_size(r[i:j]) for i, j in spans])
    rest = {}  # orbit totals
    for lam, nums in orbits.items():
        size = _orbit_size(lam)
        if counts[lam] != size or nums.count(nums[0]) != len(nums):
            raise NonSymmetricError(f"{counts[lam]} of the {size} terms of the orbit of {lam}, "
                                    f"{len(set(nums))} coefficients; input not symmetric")
        rest[lam] = nums[0] * size

    products = _e_products(n)
    # ascending by (-degree, -lam): a sorted list is a heap, popped top first
    heap = sorted((-sum(lam), [-a for a in lam], lam) for lam in rest)
    out = {}
    while heap:
        lam = heappop(heap)[2]
        if rest[lam]:
            c, r = divmod(rest[lam], _orbit_size(lam))
            if r:
                raise ArithmeticError(f"the orbit total of {lam} leaves remainder {r}")
            d = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
            out[d] = c
            for mu, g in products[d].items():
                if mu not in rest:  # below lam, so not yet peeled
                    heappush(heap, (-sum(mu), [-a for a in mu], mu))
                rest[mu] = rest.get(mu, 0) - c * g
        del rest[lam]  # its total is zero now
    return Polynomial.from_numerators(ts_table(n), _s_names(n), out, store.den)


# -- standard coordinate functions ----------------------------------------------


_E4_COORDS = {
    "eps2": "s2 - 3/5*s1^2",
    "eps3": "s3 - 1/5*s2*s1 + 2/25*s1^3",
    "eps4": "s4 + 1/5*s3*s1 - 8/25*s2*s1^2 + 12/125*s1^4",
    "eps5": "3/5*s1*s4 - 6/25*s3*s1^2 + 12/125*s2*s1^3 - 72/3125*s1^5",
}

_E5_COORDS = {
    "eps2": "-2*s2 + 5/4*s1^2",
    "eps4": "s2^2 - 2*s2*s1^2 + 5/8*s1^4 + s1*s3 + 2*s4",
    "eps5": "-1/8*s2*s1^3 + 1/32*s1^5 + 1/4*s1^2*s3 - 1/2*s1*s4 + s5",
    # the s3^2 term is positive: the A4/D5 re-derivation (e45_check) and a
    # direct elementary-symmetric evaluation both force this sign
    "eps6": "3/4*s2^2*s1^2 - 3/4*s2*s1^4 - s2*s1*s3 - 2*s2*s4 + 5/32*s1^6"
            " + 3/4*s1^3*s3 + 1/2*s1^2*s4 - 3*s1*s5 + s3^2",
    "eps8": "3/16*s2^2*s1^4 - 1/8*s2*s1^6 - 1/2*s2*s1^3*s3 + 3*s2*s1*s5"
            " + 5/256*s1^8 + 3/16*s1^5*s3 - 1/8*s1^4*s4 - 1/2*s1^3*s5"
            " + 1/2*s1^2*s3^2 - s1*s4*s3 - 2*s5*s3 + s4^2",
}


def standard_coords(spec: Spec) -> dict[str, Polynomial]:
    """Standard coordinate functions as polynomials in s_1..s_n.

    E6/E7/E8 are produced by the versal pipeline, not here.  Each type is
    derived (or parsed) once; every call returns a fresh dict.
    """
    return dict(_standard_coords(spec))


@lru_cache(maxsize=None)
def _standard_coords(spec: Spec) -> dict[str, Polynomial]:
    n = spec.n
    table = ts_table(n)
    if spec.family == "A":
        return {f"alpha{i}": table.var(f"s{i}") for i in range(2, n + 1)}
    if spec.family == "D":
        gd = g_dist(n)
        out = {f"gamma{n}": gd["gamma"]}
        for i in range(1, n):
            out[f"delta{2*i}"] = gd[f"delta{2*i}"]
        return out
    if n == 3:
        s1, s2, s3 = table.var("s1"), table.var("s2"), table.var("s3")
        return {
            "eps2_1": s1 ** 2,
            "eps2_2": s2,
            "eps3": s3 - Fraction(1, 3) * s1 * s2 + Fraction(2, 27) * s1 ** 3,
        }
    if n == 4:
        return {k: parse(v, table) for k, v in _E4_COORDS.items()}
    if n == 5:
        return {k: parse(v, table) for k, v in _E5_COORDS.items()}
    raise ValueError(f"{spec.name} standard coordinates come from the versal pipeline")


class E45Report(Record):
    matches: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.matches.values())


def e45_check() -> E45Report:
    """Re-derive the E4/E5 coordinates through the A4/D5 identifications."""
    matches: dict[str, bool] = {}

    # E4: (U + 3/5 s1) * f_{E4}(U - 2/5 s1) must be the A4 distinguished
    # polynomial; its U^{5-i} coefficients are the coordinates.
    table4 = ts_table(4)
    U, s1 = table4.var("U"), table4.var("s1")
    shifted = f_sform(Spec("E", 4), table4).substitute({"U": U - Fraction(2, 5) * s1})
    a4 = (U + Fraction(3, 5) * s1) * shifted
    by_u = a4.coeffs_in("U")
    matches["e4_s1_zero"] = 4 not in by_u
    e4 = standard_coords(Spec("E", 4))
    for i in range(2, 6):
        matches[f"e4_eps{i}"] = by_u.get(5 - i, table4.zero()) == e4[f"eps{i}"]

    # E5: f_{D5}(U) = f_{E5}(U - 1/2 s1); even coordinates from the second
    # distinguished polynomial, eps5 from the constant term.
    table5 = ts_table(5)
    U, s1 = table5.var("U"), table5.var("s1")
    d5 = f_sform(Spec("E", 5), table5).substitute({"U": U - Fraction(1, 2) * s1})
    e5 = standard_coords(Spec("E", 5))
    matches["e5_eps5"] = d5.coeffs_in("U").get(0, table5.zero()) == e5["eps5"]
    g5 = g_from_f(d5, table5)
    by_z = g5.coeffs_in("Z")
    for i in (1, 2, 3, 4):
        matches[f"e5_eps{2*i}"] = by_z.get(5 - i, table5.zero()) == e5[f"eps{2*i}"]
    return E45Report(matches)


# -- Weyl-invariance checks ------------------------------------------------------


def invariant_under_literal(spec: Spec, phi: Polynomial, generator: int,
                            reduce_back: bool = False) -> bool:
    """Exact invariance test by applying the generator action on t's.

    The moved t-expansion is compared with the unmoved one, or, with
    ``reduce_back``, rewritten in s via symmetric reduction and compared to
    the original coordinate function.  Both modes decide the same, exactly:
    s -> t is injective, so a moved expansion that differs either is not
    symmetric or reduces to another polynomial in s.  The expansion, the
    reflection and the reduction all run on orbit sums of the blocks of
    :func:`rdpinv.rootsys.reflection_blocks`; the action is used only
    through its ``apply``.
    """
    phi = phi.compact()
    pt = t_expand(phi, spec.n, reflection_blocks(spec, generator))
    moved = weyl_action(spec, generator).apply(pt)
    if not reduce_back:
        return moved == pt
    try:
        back = symmetric_reduce(moved, spec.n)
    except NonSymmetricError:
        return False
    return back == phi


def rules_from_monic(f: Polynomial, n: int) -> RuleSet:
    """The rules s_i -> coefficient of U^(n-i) of a monic degree-n polynomial in U.

    Each value is compacted to the variables it uses, so a stale U (or any
    other unused name of f's table) cannot clash with a target table.
    """
    by_u = f.coeffs_in("U")
    zero = f.table.zero()
    return RuleSet.of([(f"s{i}", by_u.get(n - i, zero).compact()) for i in range(1, n + 1)])


def split_params_D(n: int) -> tuple[RuleSet, RuleSet]:
    """s-parametrizations before/after the sign-swap generator of D_n.

    The last two functionals enter only through a = t_{n-1} + t_n and
    b = t_{n-1} t_n; the generator flips the sign of a.  Both rule sets
    substitute the s_i by polynomials in p_1..p_{n-2}, a, b.
    """
    m = n - 2
    names = [f"p{i}" for i in range(1, m + 1)] + ["aa", "bb"]
    weights = list(range(1, m + 1)) + [1, 2]
    ptab = VarTable(["U"] + names, [1] + weights)
    U, aa, bb = ptab.var("U"), ptab.var("aa"), ptab.var("bb")
    head = monic(U, [ptab.var(f"p{i}") for i in range(1, m + 1)])
    plain = head * monic(U, [aa, bb])
    flipped = head * monic(U, [-aa, bb])
    return rules_from_monic(plain, n), rules_from_monic(flipped, n)


def split_params_E(n: int) -> tuple[RuleSet, RuleSet]:
    """s-parametrizations before/after the extra E-family generator.

    Writing f = f3(U; t_1..t_3) * frest(U; t_4..t_n) in the coefficients
    p_i = e_i(t_1..t_3), q_j = e_j(t_4..t_n), the generator shifts the two
    factors by -+ multiples of p_1; both sides stay polynomial in (p, q).
    """
    m = n - 3
    names = ["p1", "p2", "p3"] + [f"q{j}" for j in range(1, m + 1)]
    weights = [1, 2, 3] + list(range(1, m + 1))
    ptab = VarTable(["U"] + names, [1] + weights)
    U, p1 = ptab.var("U"), ptab.var("p1")
    f3 = monic(U, [p1, ptab.var("p2"), ptab.var("p3")])
    frest = monic(U, [ptab.var(f"q{j}") for j in range(1, m + 1)])
    plain = f3 * frest
    shifted = (f3.substitute({"U": U - Fraction(2, 3) * p1})
               * frest.substitute({"U": U + Fraction(1, 3) * p1}))
    return rules_from_monic(plain, n), rules_from_monic(shifted, n)


def invariant_under_split(spec: Spec, phi: Polynomial) -> bool:
    """Invariance under the non-permutation generator via split coordinates."""
    if spec.family == "D":
        plain, moved = split_params_D(spec.n)
    elif spec.family == "E":
        plain, moved = split_params_E(spec.n)
    else:
        return True  # permutations fix every polynomial in the s_i
    phi = phi.compact()
    return phi.substitute(plain.mapping()) == phi.substitute(moved.mapping())
