"""Newton-polygon classification of rational double points.

``rdp_type`` decides the type of an isolated surface double point from a
jet of its defining polynomial, split only as deep as its branch reads
(finite determinacy).  The exact rank of the quadratic part picks the branch
before any split: rank 3 is A1 (the Morse lemma); rank 2 splits off two
squares in the given coordinates (the splitting lemma), after a shear
u -> u + v where only cross terms are left (rank 2 alone needs it), and
reads an A tail off the order of the rest; rank 1 splits off its square to
degree 3, where the binary cubic's factorization shape (read off its
Hessian) gives D4, and to degree 5 for an E or a D tail.  An A or D tail
is split on a ladder of rungs, 5, 7, 10, 14, 20, ... (each the last times
sqrt(2), rounded, in integers), the jet order the last: a split to degree
d shows every tail order up to d, so the next rung runs only if the tail
vanishes through d, each root resumed where the last rung left it.  Both
splits are one closed-form step (``_root``), at the zero of the square's
variable's first derivative or of the D tail's dg/dy, found degree by
degree, exact and truncated; an E tail needs no split, as the orders it is
decided on read the same off the unsplit coefficients.  No square root of
a coefficient is ever needed: the tree consumes ranks, factor
multiplicities and orders.

``section_type`` predicts the best general-hyperplane-section bound from
the vanishing orders of versal-form coefficients along a one-parameter
deformation, via the monomial table of low-degree terms.

``length_type`` maps the length invariant to its associated type.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import sub
from typing import Mapping, Optional

from ._record import Record
from .poly import Polynomial


class RdpType(Record):
    family: str
    rank: int

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.name


class NotRDPError(ValueError):
    """The singularity is not a rational double point."""


class UndecidableError(ValueError):
    """The supplied jet order cannot decide the type."""

    def __init__(self, jet_order: int, message: str):
        super().__init__(f"{message} (jet order {jet_order})")
        self.jet_order = jet_order


def length_type(length: int) -> RdpType:
    """Associated type of the length invariant."""
    table = {1: ("A", 1), 2: ("D", 4), 3: ("E", 6), 4: ("E", 7), 5: ("E", 8), 6: ("E", 8)}
    if length not in table:
        raise ValueError(f"length must be between 1 and 6, got {length}")
    return RdpType(*table[length])


# -- jet utilities ----------------------------------------------------------------


def _root(g: Polynomial, var: str, lead: Polynomial, d: int,
          resume: Optional[tuple[Polynomial, int]] = None) -> Polynomial:
    """phi, free of ``var``, where the ``var``-derivative of g vanishes, to
    degree d // 2 (the splitting lemma).

    That derivative is lead*var + rest, ``lead`` a nonzero constant or a
    constant times one other variable, and phi = -rest(phi)/lead is fixed
    one degree at a time by one truncated substitution and an exact shift
    each.  At each caller, once phi is right below degree k, rest(phi)/lead
    is right to degree k.  An error of order e in phi moves a split square
    only from degree 2e on and a D tail from 2e + 1, so no order that a
    decision reads needs phi beyond degree d // 2.  ``resume`` = (phi, e) is
    what a call for degree e <= d returned, on a g equal to this one to
    degree e; that phi is exact to degree e // 2, and the loop goes on.
    """
    ((mono, c),) = lead.items()
    by, names = sum(mono), g.table.names
    # phi has no constant term, so a term of rest (of g, one degree up) above
    # the last step's bound never reaches a kept degree; -1 and c go in once
    g = g.truncate(d // 2 + by + 1).derivative_along({var: 1})
    rest = (lead * g.table.var(var) - g) / c
    phi, e = resume or (g.table.zero(), 0)
    for k in range(e // 2 + 1, d // 2 + 1):
        # dividing by a variable lowers the degree, so rest(phi) needs one more
        phi = rest.substitute({var: phi}, max_total_degree=k + by)
        if by:
            den, groups = phi.numerators_over(names)
            quotient = {tuple(map(sub, e, mono)): n for e, (n,) in groups.items()}
            if any(min(e) < 0 for e in quotient):
                raise ValueError(f"division by {lead.serialize()} leaves a remainder")
            phi = Polynomial.from_numerators(g.table, names, quotient, den)
    return phi


def _split_off_square(p: Polynomial, var: str, d: int, resume: Optional[tuple] = None
                      ) -> tuple[Polynomial, Polynomial]:
    """The ``var``-free part of p, to degree d, once a*var^2 is split off:
    p(phi, rest), where var = phi(rest) solves dp/dvar = 0, and phi (from
    ``_root``, given ``resume``).  Exact to degree d: a deeper split,
    truncated to d, is the same."""
    a = p.coefficient({var: 2})
    if not a:
        raise ValueError("expected a pure square term")
    phi = _root(p, var, p.table.const(2 * a), d, resume)
    return p.substitute({var: phi}, max_total_degree=d), phi


def _rank(q: Polynomial, names: list[str]) -> int:
    """The rank of the quadratic form q, exactly: twice its denominator times
    its matrix is integral, and a symmetric matrix of rank r has a nonzero
    principal r x r minor."""
    _, num = q.numerators_over(names)
    # the matrix [[a, b, c], [b, d, e], [c, e, f]]
    a, d, f = (2 * num.get(m, [0])[0] for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    b, c, e = (num.get(m, [0])[0] for m in ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    if a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d):
        return 3
    return 2 if a * d - b * b or a * f - c * c or d * f - e * e else int(bool(q))


def _square_to_split(f: Polynomial, q: Polynomial, left: list[str],
                     d: Optional[int] = None) -> tuple[Polynomial, str]:
    """A variable of ``left`` whose square occurs in f, with f made to show it.

    The terms of f lie in the variables of ``left`` and its quadratic part
    q is nonzero.  If q has only cross terms, f is first sheared by
    u -> u + v, c*u*v the one with the largest exponent tuple (so equal
    polynomials take the same path), which adds c*v^2 and no other square,
    and kept to degree d.
    """
    for var in left:
        if q.coefficient({var: 2}):
            return f, var
    m = max(m for m, _ in q.items())
    u, v = (name for name, e in zip(f.table.names, m) if e)
    return f.substitute({u: f.table.var(u) + f.table.var(v)}, max_total_degree=d), v


def _binary_cubic_shape(g3: Polynomial, y: str, z: str):
    """Factor multiplicities of a nonzero binary cubic over the closure.

    For a*y^3 + b*y^2*z + c*y*z^2 + d*z^3 the Hessian is, up to a constant,
    A*y^2 + B*y*z + C*z^2 with A = b^2 - 3ac, B = bc - 9ad, C = c^2 - 3bd.
    It vanishes exactly for a cube, and otherwise is a square (the square of
    the repeated factor) exactly when a factor repeats.  Returns
    ('distinct',), ('double', h) with the rational double factor, or
    ('triple', h).
    """
    table = g3.table
    yi = table.index_of(y)
    coeff = [Fraction(0)] * 4  # a, b, c, d: coefficients of y^(3-k) z^k
    for m, v in g3.items():
        coeff[3 - m[yi]] = Fraction(v)
    a, b, c, d = coeff
    A, B, C = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
    yv, zv = table.var(y), table.var(z)
    if A == B == C == 0:
        return ("triple", yv + b / (3 * a) * zv if a else zv)
    if B * B == 4 * A * C:
        return ("double", yv + B / (2 * A) * zv if A else zv)
    return ("distinct",)


def _straighten_double_factor(g: Polynomial, h: Polynomial, y: str, z: str,
                              d: int) -> Polynomial:
    """Linear change making the repeated factor the first coordinate, to degree d."""
    table = g.table
    a, b = Fraction(h.coefficient({y: 1})), Fraction(h.coefficient({z: 1}))
    yv, zv = table.var(y), table.var(z)
    if a:
        # y -> (y - b z)/a keeps the substitution rational and invertible
        rules = {y: (yv - b * zv) / a}
    else:
        rules = {y: zv / b, z: yv}
    return g.substitute(rules, max_total_degree=d)


def rdp_type(f: Polynomial, jet_order: int = 10) -> RdpType:
    """Classify an isolated double point from a jet of its equation.

    The polynomial must vanish at the origin and involve exactly the three
    variables of its table.  Raises :class:`UndecidableError` when the jet
    is too short and :class:`NotRDPError` when the singularity is not a
    rational double point.  The quadratic rank is read first, then the jet
    to degree 2 for A1, 3 for D4, 5 for E, and for an A or D tail to the
    first rung of the ladder 5, 7, 10, 14, ... (the jet order the last) at
    or above its order.
    """
    names = list(f.table.names[:3])
    if len(f.table) != 3:
        raise ValueError("classifier expects a three-variable polynomial table")
    f = f.truncate(jet_order)
    if f.constant_value() != 0:
        raise ValueError("the origin must lie on the surface")
    if not f.degree_part(1).is_zero:
        return RdpType("A", 0)
    if jet_order < 2:
        raise UndecidableError(jet_order, "the quadratic part needs a degree-2 jet")
    q = f.degree_part(2)
    rank = _rank(q, names)
    if rank == 0:
        raise NotRDPError("multiplicity at least three")
    if rank == 3:
        return RdpType("A", 1)
    # a split to degree d costs about d^2.5, so the A and D tail rungs grow
    # by sqrt(2), rounded (5, 7, 10, 14, ...), up to the jet order
    rungs = [min(jet_order, 5)]
    while rungs[-1] < jet_order:
        rungs.append(min((isqrt(8 * rungs[-1] ** 2) + 1) // 2, jet_order))
    if rank == 2:
        roots = {}
        for d in rungs:
            g, left = f, list(names)
            while len(left) > 1:
                g, var = _square_to_split(g, g.degree_part(2), left, d)
                g, phi = _split_off_square(g, var, d, roots.get(var))
                roots[var] = phi, d
                left.remove(var)
            m = g.order()
            if m is not None:
                return RdpType("A", m - 1)
        raise UndecidableError(jet_order, "residual tail vanishes to jet order")
    if jet_order < 3:
        raise UndecidableError(jet_order, "the cubic part needs a degree-3 jet")
    _, var = _square_to_split(f, q, names)
    y, z = (v for v in names if v != var)
    g, phi = _split_off_square(f, var, 3)
    g3 = g.degree_part(3)
    if g3.is_zero:
        raise NotRDPError("no cubic part after splitting the square")
    shape = _binary_cubic_shape(g3, y, z)
    if shape[0] == "distinct":
        return RdpType("D", 4)
    square, tail_root = (phi, 3), None
    for d in rungs:
        if d > 3:
            g, phi = _split_off_square(f, var, d, square)
            square = phi, d
        g = _straighten_double_factor(g, shape[1], y, z, d)
        if shape[0] == "triple":  # an E tail reads no degree above 5
            break
        c3 = g.coefficient({y: 2, z: 1})
        if not c3:
            raise NotRDPError("double factor did not straighten")
        # the y^0 coefficient of g(y + phi), the tail once y*z^b is split off
        phi = _root(g, y, 2 * c3 * g.table.var(z), d, tail_root)
        tail_root = phi, d
        order = g.substitute({y: phi}, max_total_degree=d).order()
        if order is not None:
            return RdpType("D", order + 1)
    else:  # the D tail vanished on every rung
        raise UndecidableError(jet_order, "pure tail vanishes to jet order")
    c3 = g.coefficient({y: 3})
    if not c3:
        raise NotRDPError("triple factor did not straighten")
    if jet_order < 5:
        raise UndecidableError(jet_order, "the exceptional branch needs a degree-5 jet")
    # g = c3*y^3 + y^2*A(z) + y*B(z) + C(z) + (y^3 and up), ord A >= 2 and
    # ord B >= 3.  A split at the zero y = phi(z) of d2g/dy2 (ord phi >= 2)
    # would change B only from degree 4 on and C from degree ord B + 2 on,
    # 6 once ord B >= 4: each decision below reads the same orders unsplit
    tail = g.coeffs_in(y)
    ordB, ordC = (tail.get(e, g.table.zero()).order() for e in (1, 0))
    if ordC == 4:
        return RdpType("E", 6)
    if ordB == 3:
        return RdpType("E", 7)
    if ordC == 5:
        return RdpType("E", 8)
    raise NotRDPError("tail orders exceed every rational double point")


# -- hyperplane-section bounds from vanishing orders ---------------------------------


#: versal-form monomial (Y-power, Z-power) attached to each coefficient
VERSAL_MONOMIALS = {
    "E6": {"eps2": (1, 2), "eps5": (1, 1), "eps6": (0, 2), "eps8": (1, 0),
           "eps9": (0, 1), "eps12": (0, 0)},
    "E7": {"eps2": (2, 1), "eps6": (2, 0), "eps8": (1, 1), "eps10": (0, 2),
           "eps12": (1, 0), "eps14": (0, 1), "eps18": (0, 0)},
    "E8": {"eps2": (1, 3), "eps8": (1, 2), "eps12": (0, 3), "eps14": (1, 1),
           "eps18": (0, 2), "eps20": (1, 0), "eps24": (0, 1), "eps30": (0, 0)},
}

COLUMNS = ("A0", "A1", "A2", "D4", "Dk", "E6", "E7")

# (Y-power, Z-power, T-power) -> column of the low-degree monomial table
MONOMIAL_COLUMNS = {
    (1, 2, 1): "E7",
    (2, 0, 1): "E6",
    (0, 3, 1): "E6",
    (1, 1, 1): "D4", (1, 1, 2): "E7",
    (0, 2, 1): "D4", (0, 2, 2): "E6",
    (1, 0, 1): "A1", (1, 0, 2): "Dk", (1, 0, 3): "E7",
    (0, 1, 1): "A1", (0, 1, 2): "D4", (0, 1, 3): "E6",
    (0, 0, 1): "A0", (0, 0, 2): "A2", (0, 0, 3): "Dk", (0, 0, 4): "E6",
}


class ValuationProfile(Record):
    """Vanishing orders of versal coefficients along a deformation arc.

    ``orders`` maps coefficient names to positive integers; float('inf')
    marks an identically vanishing pullback, and absent names are treated
    as unknown (they contribute no monomial).
    """

    type_name: str
    orders: Mapping[str, "int | float"]

    def order(self, name: str) -> "int | float | None":
        return self.orders.get(name)


class SectionBound(Record):
    column: Optional[str]
    witness: Optional[tuple[str, int]]

    @property
    def decided(self) -> bool:
        return self.column is not None


def _tilde_orders_e7(orders: Mapping[str, "int | float"]) -> dict[str, "int | float"]:
    """Orders of the two shifted coefficients used by the seven-variable type.

    The shifted weight-12 coefficient differs by a third of the square of
    the weight-6 one, the weight-18 one by further products; an order is
    reported only when the minimum below is strict or forced.
    """
    out = dict(orders)
    o6 = orders.get("eps6")
    o12 = orders.get("eps12")
    o18 = orders.get("eps18")

    def strict_min(cands):
        cands = [c for c in cands if c is not None]
        if not cands:
            return None
        m = min(cands)
        return m if sum(1 for c in cands if c == m) == 1 else None

    if o12 == 1:
        out["eps12t"] = 1
    elif o12 is not None and o6 is not None:
        m = strict_min([o12, 2 * o6])
        if m is not None:
            out["eps12t"] = m
    if o18 is not None and o6 is not None and o12 is not None:
        m = strict_min([o18, o6 + o12, 3 * o6])
        if m is not None:
            out["eps18t"] = m
    elif o18 == 2 and (o12 is not None and o12 > 1):
        out["eps18t"] = 2
    return out


def section_type(profile: ValuationProfile) -> SectionBound:
    """Leftmost monomial-table column reachable from the known orders."""
    tname = profile.type_name
    if tname.startswith("A"):
        n = int(tname[1:]) + 1
        if profile.order(f"alpha{n-1}") == 1 or profile.order(f"alpha{n}") in (1, 2):
            return SectionBound("A1", None)
        return SectionBound(None, None)
    if tname.startswith("D"):
        n = int(tname[1:])
        if profile.order(f"gamma{n}") == 1 or profile.order(f"delta{2*n-4}") == 1 \
                or profile.order(f"delta{2*n-2}") == 1:
            return SectionBound("A1", None)
        if profile.order(f"gamma{n}") == 2 or profile.order(f"delta{2*n-2}") == 3:
            return SectionBound("D4", None)
        return SectionBound(None, None)
    monomials = VERSAL_MONOMIALS.get(tname)
    if monomials is None:
        raise ValueError(f"no section bounds for type {tname!r}")
    orders = dict(profile.orders)
    if tname == "E7":
        orders = _tilde_orders_e7(orders)
        monomials = dict(monomials)
        monomials["eps12t"] = monomials.pop("eps12")
        monomials["eps18t"] = monomials.pop("eps18")
    best = None
    witness = None
    for name, (ypow, zpow) in monomials.items():
        d = orders.get(name)
        if d is None or d == float("inf"):
            continue
        col = MONOMIAL_COLUMNS.get((ypow, zpow, int(d)))
        if col is None:
            continue
        rank = COLUMNS.index(col)
        if best is None or rank < best:
            best = rank
            witness = (name, int(d))
    if best is None:
        return SectionBound(None, None)
    return SectionBound(COLUMNS[best], witness)
