"""ADE root-system combinatorics on distinguished functionals.

Types are pairs (family, n) where n counts the distinguished functionals
t_1..t_n; the Lie-theoretic rank is n-1 for the A family and n otherwise.
The degenerate type A0 (one functional, identically zero) and the
reducible types D2 and E3 are first-class values, and isomorphic types
such as E4 / A4 are never conflated: every construction here depends on
the declared family.

The module knows three layers:

* the ambient basis e_0..e_n with <e_0,e_0> = 1, <e_i,e_i> = -1, in which
  simple roots and the orthogonal-splitting vectors live;
* the dual-basis coordinates vs0..vsn, in which the distinguished
  functionals are expressed and inverted;
* the functionals t_1..t_n themselves, on which each reflection generator
  acts as a rank-one map t -> t + l(t) * c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .poly import Polynomial, VarTable
from .solvelist import RuleSet

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Spec:
    """A root-system type: family in {A, D, E} plus functional count n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family == "A":
            if self.n < 1:
                raise ValueError("A family needs n >= 1")
        elif self.family == "D":
            if self.n < 2:
                raise ValueError("D family needs n >= 2")
        elif self.family == "E":
            if not 3 <= self.n <= 8:
                raise ValueError("E family needs 3 <= n <= 8")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def lie_rank(self) -> int:
        return self.n - 1 if self.family == "A" else self.n

    @property
    def name(self) -> str:
        return f"{self.family}{self.lie_rank}"

    @staticmethod
    def from_name(name: str) -> "Spec":
        if not name[1:].isdigit():
            raise ValueError(f"malformed type name {name!r}")
        family, rank = name[0].upper(), int(name[1:])
        return Spec(family, rank + 1 if family == "A" else rank)

    def __str__(self) -> str:
        return self.name

    def generators(self) -> tuple[int, ...]:
        if self.family == "A":
            return tuple(range(1, self.n))
        if self.family == "D":
            return tuple(range(1, self.n + 1))
        return (0,) + tuple(range(1, self.n))

    # variable tables -----------------------------------------------------

    def t_table(self) -> VarTable:
        return VarTable([f"t{i}" for i in range(1, self.n + 1)], [1] * self.n)

    def dual_table(self) -> VarTable:
        hi = self.n + 1
        return VarTable([f"vs{i}" for i in range(hi)], [1] * hi)


# -- ambient basis ------------------------------------------------------------


def inner(u: Vector, v: Vector) -> Fraction:
    """Pairing with signature (+1, -1, ..., -1)."""
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total -= a * b
    return total


def _basis_vector(dim: int, coeffs: dict[int, Fraction]) -> Vector:
    v = [Fraction(0)] * dim
    for i, c in coeffs.items():
        v[i] = Fraction(c)
    return tuple(v)


def root_basis(spec: Spec) -> dict[int, Vector]:
    """Simple roots as vectors in the ambient span of e_0..e_n."""
    dim = spec.n + 1
    basis: dict[int, Vector] = {}
    for i in range(1, spec.n):
        basis[i] = _basis_vector(dim, {i: 1, i + 1: -1})
    if spec.family == "D":
        basis[spec.n] = _basis_vector(dim, {spec.n - 1: 1, spec.n: 1})
    elif spec.family == "E":
        basis[0] = _basis_vector(dim, {0: 1, 1: -1, 2: -1, 3: -1})
    return basis


def combine(dim: int, parts: list[tuple[Fraction, Vector]]) -> Vector:
    out = [Fraction(0)] * dim
    for c, v in parts:
        for i, x in enumerate(v):
            out[i] += c * x
    return tuple(out)


# -- distinguished functionals and the dual basis -----------------------------


def distinguished_functionals(spec: Spec) -> list[Polynomial]:
    """t_1..t_n as linear forms in the dual-basis coordinates vs*."""
    table = spec.dual_table()
    vs = lambda i: table.var(f"vs{i}")
    n = spec.n
    out: list[Polynomial] = []
    if spec.family == "A":
        # vs0 and vsn are identically zero here
        for i in range(1, n + 1):
            t = table.zero()
            if i > 1:
                t = t - vs(i - 1)
            if i < n:
                t = t + vs(i)
            out.append(t)
    elif spec.family == "D":
        # vs0 is identically zero here
        for i in range(1, n - 1):
            t = vs(i)
            if i > 1:
                t = t - vs(i - 1)
            out.append(t)
        tail = vs(n - 1) + vs(n)
        if n > 2:
            tail = tail - vs(n - 2)
        out.append(tail)
        out.append(-vs(n - 1) + vs(n))
    else:
        # vsn is identically zero here
        out.append(vs(1) - Fraction(2, 3) * vs(0))
        out.append(-Fraction(2, 3) * vs(0) - vs(1) + vs(2))
        t3 = -Fraction(2, 3) * vs(0) - vs(2)
        if n > 3:
            t3 = t3 + vs(3)
        out.append(t3)
        for i in range(4, n + 1):
            t = Fraction(1, 3) * vs(0) - vs(i - 1)
            if i < n:
                t = t + vs(i)
            out.append(t)
    return out


def dual_basis_in_t(spec: Spec) -> RuleSet:
    """Each dual-basis coordinate as a linear form in t_1..t_n."""
    table = spec.t_table()
    t = lambda i: table.var(f"t{i}")
    n = spec.n
    s1 = table.zero()
    for i in range(1, n + 1):
        s1 = s1 + t(i)
    rules: list[tuple[str, Polynomial]] = []
    if spec.family == "A":
        acc = table.zero()
        for i in range(1, n):
            acc = acc + t(i)
            rules.append((f"vs{i}", acc))
    elif spec.family == "D":
        for i in range(1, n - 1):
            v = s1
            for j in range(i + 1, n + 1):
                v = v - t(j)
            rules.append((f"vs{i}", v))
        rules.append((f"vs{n-1}", Fraction(1, 2) * s1 - t(n)))
        rules.append((f"vs{n}", Fraction(1, 2) * s1))
    else:
        rules.append(("vs0", Fraction(3, n - 9) * s1))
        rules.append(("vs1", Fraction(2, n - 9) * s1 + t(1)))
        rules.append(("vs2", Fraction(4, n - 9) * s1 + t(1) + t(2)))
        acc = t(1) + t(2)
        for i in range(3, n):
            acc = acc + t(i)
            rules.append((f"vs{i}", Fraction(9 - i, n - 9) * s1 + acc))
    return RuleSet.of(rules)


@dataclass(frozen=True)
class Reflection(RuleSet):
    """A rank-one reflection t -> t + form(t) * coroot on t_1..t_n.

    Its rules are t_i -> t_i + c_i * form for each nonzero entry c_i of
    the coroot, so it indexes as any other rule set; :meth:`apply` moves a
    polynomial by a Taylor expansion along the coroot, not by substitution.
    """

    form: Polynomial
    coroot: tuple[tuple[str, "int | Fraction"], ...]

    def apply(self, p: Polynomial) -> Polynomial:
        """p(t + form * coroot), exactly, for any p.

        The Taylor expansion along the coroot is finite:
        p(t + l c) = sum_k l^k D_k with D_0 = p and D_k = (c . grad) D_{k-1} / k.
        Each D_k is one directional derivative of D_{k-1}
        (:meth:`Polynomial.derivative_along`, a single pass over its terms).
        The D_k run until one vanishes, then Horner's rule in l sums them.
        The result lives on the table :meth:`RuleSet.apply` would give.
        """
        if not any(name in p.table for name, _ in self.coroot):
            return p
        p = p.to_table(p.table.merged(self.form.table))
        direction = dict(self.coroot)
        parts = [p]
        while True:
            step = parts[-1].derivative_along(direction, len(parts))
            if step.is_zero:
                break
            parts.append(step)
        acc = parts.pop()
        while parts:
            acc = acc * self.form + parts.pop()
        return acc


def weyl_action(spec: Spec, generator: int) -> Reflection:
    """The reflection in the given simple root, acting on the t's.

    A swap of t_i and t_{i+1} has form t_{i+1} - t_i and coroot
    e_i - e_{i+1}; the D-family sign change has form -(t_{n-1} + t_n) and
    coroot e_{n-1} + e_n; the E-family generator has form t_1 + t_2 + t_3
    and coroot (-2/3, -2/3, -2/3, 1/3, ..., 1/3).
    """
    if generator not in spec.generators():
        raise ValueError(f"{generator} is not a generator index of {spec.name}")
    table = spec.t_table()
    t = lambda i: table.var(f"t{i}")
    n = spec.n
    if 1 <= generator <= n - 1:
        i = generator
        form, coroot = t(i + 1) - t(i), {i: 1, i + 1: -1}
    elif spec.family == "D":
        form, coroot = -t(n - 1) - t(n), {n - 1: 1, n: 1}
    else:
        form = t(1) + t(2) + t(3)
        coroot = {i: Fraction(-2, 3) if i <= 3 else Fraction(1, 3) for i in range(1, n + 1)}
    rules = tuple((f"t{i}", t(i) + c * form) for i, c in coroot.items())
    return Reflection(rules, form, tuple((f"t{i}", c) for i, c in coroot.items()))


# -- orthogonal splitting at a vertex ------------------------------------------


@dataclass(frozen=True)
class VertexSplit:
    """Orthogonal decomposition of a root space at one vertex.

    ``rules`` rewrites each t_i of the parent system in terms of mu1 (the
    dual coordinate of the removed vertex) and the distinguished
    functionals tp*/tq* of the two complementary parts.
    """

    spec: Spec
    k: int
    left: Spec
    right: Optional[Spec]
    rules: RuleSet
    tilde_v: Vector
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]


class UnsupportedSplitError(ValueError):
    pass


def part_functionals(part: Optional[Spec], prefix: str, table: VarTable) -> list[Polynomial]:
    """A part's distinguished functionals as the variables prefix1, prefix2, ...;
    A0's one functional is literally zero, and an absent part has none."""
    if part is None:
        return []
    if part.family == "A" and part.n == 1:
        return [table.zero()]
    return [table.var(f"{prefix}{i}") for i in range(1, part.n + 1)]


def supported_splits(spec: Spec) -> list[int]:
    """Every vertex of the diagram but the D family's next-to-last one,
    which the splitting at vertex n covers by symmetry."""
    return [k for k in spec.generators() if spec.family != "D" or k != spec.n - 1]


def vertex_parts(spec: Spec, k: int) -> tuple[Spec, Optional[Spec]]:
    """The two parts of the diagram of ``spec`` with vertex k removed.

    The right part is None where the removed vertex leaves only one part.
    Every other module reads the parts of a splitting from here.
    """
    if k not in supported_splits(spec):
        raise UnsupportedSplitError(f"no splitting of {spec.name} at vertex {k}")
    n = spec.n
    if spec.family == "A":
        return Spec("A", k), Spec("A", n - k)
    if spec.family == "D":
        return (Spec("A", k), Spec("D", n - k)) if k < n else (Spec("A", n), None)
    if k == 0:
        return Spec("A", n), None
    if k == 1:
        return Spec("D", n - 1), None
    if k == 2:
        return Spec("A", 2), Spec("A", n - 1)
    return Spec("E", k), Spec("A", n - k)


def vertex_split(spec: Spec, k: int) -> VertexSplit:
    left, right = vertex_parts(spec, k)
    family, n = spec.family, spec.n
    names = ["mu1"]
    names += [f"tp{i}" for i in range(1, left.n + 1)]
    names += [f"tq{i}" for i in range(1, right.n + 1)] if right else []
    table = VarTable(names, [1] * len(names))
    mu = table.var("mu1")
    tps = part_functionals(left, "tp", table)
    tqs = part_functionals(right, "tq", table)
    sp1 = sum(tps, table.zero())
    f = Fraction
    # each branch gives t_1..t_n, the vertex maps of the parts and the
    # (coefficient, vertex) pairs of tilde_v
    right_map = ()
    if family == "A":
        ts = [f(1, k) * mu + p for p in tps]
        ts += [-f(1, n - k) * mu + q for q in tqs]
        left_map, right_map = range(1, k), range(k + 1, n)
        tilde = [(1, k)] + [(f(i, k), i) for i in range(1, k)]
        tilde += [(f(n - k - i, n - k), k + i) for i in range(1, n - k)]
    elif family == "D" and k < n:
        ts = [f(1, k) * mu + p for p in tps] + tqs
        left_map, right_map = range(1, k), range(k + 1, n + 1)
        tilde = [(1, k)] + [(f(i, k), i) for i in range(1, k)]
        tilde += [(1, k + i) for i in range(1, n - k - 1)]
        tilde += [(f(1, 2), n - 1), (f(1, 2), n)]
    elif family == "D":
        ts = [f(2, n) * mu + p for p in tps]
        left_map = range(1, n)
        tilde = [(1, n)] + [(f(2 * i, n), i) for i in range(1, n - 1)]
        tilde += [(f(n - 2, n), n - 1)]
    elif k == 0:
        ts = [-f(9 - n, 3 * n) * mu + p for p in tps]
        left_map = range(1, n)
        tilde = [(1, 0), (f(n - 3, n), 1), (f(2 * n - 6, n), 2)]
        tilde += [(f(3 * n - 3 * i, n), i) for i in range(3, n)]
    elif k == 1:
        ts = [f(9 - n, 6) * mu - f(1, 3) * sp1]
        ts += [f(n - 9, 12) * mu + f(1, 6) * sp1 - p for p in reversed(tps)]
        left_map = tuple(n - i for i in range(1, n - 1)) + (0,)
        tilde = [(1, 1)] + [(f(i, 2), n - i) for i in range(1, n - 2)]
        tilde += [(f(n - 1, 4), 2), (f(n - 3, 4), 0)]
    elif k == 2:
        ts = [f(9 - n, 6 * n - 6) * mu - f(2, 3) * tqs[0] + p for p in tps]
        ts += [f(n - 9, 3 * n - 3) * mu + f(1, 3) * tqs[0] + q for q in tqs[1:]]
        left_map, right_map = (1,), (0,) + tuple(range(3, n))
        tilde = [(1, 2), (f(1, 2), 1), (f(n - 3, n - 1), 0)]
        tilde += [(f(2 * n - 2 * i - 2, n - 1), i + 1) for i in range(2, n - 1)]
    else:
        shift = f(n - 9, (9 - k) * (n - k)) * mu - f(1, 9 - k) * sp1
        ts = tps + [shift + q for q in tqs]
        left_map, right_map = range(0, k), range(k + 1, n)
        tilde = [(1, k), (f(3, 9 - k), 0), (f(2, 9 - k), 1), (f(4, 9 - k), 2)]
        tilde += [(f(9 - i, 9 - k), i) for i in range(3, k)]
        tilde += [(f(n - k - i, n - k), k + i) for i in range(1, n - k)]
    basis = root_basis(spec)
    rules = RuleSet.of((f"t{i}", t) for i, t in enumerate(ts, 1))
    return VertexSplit(spec, k, left, right, rules,
                       combine(n + 1, [(f(c), basis[i]) for c, i in tilde]),
                       tuple(left_map), tuple(right_map))
