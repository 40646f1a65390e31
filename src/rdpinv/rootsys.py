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

A polynomial in the t's that is symmetric under a Young subgroup, the
permutations within blocks of consecutive t's, is kept as an
:class:`OrbitSums` store, one numerator per orbit.  A generator commutes
with the Young subgroup of :func:`reflection_blocks`, so
:meth:`Reflection.apply` moves such a store on its orbit representatives
without writing a term out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, groupby
from math import factorial, gcd, lcm
from operator import ge, itemgetter
from typing import Mapping, Optional, Sequence

from ._record import Record
from .poly import Polynomial, VarTable
from .solvelist import RuleSet

Vector = tuple[Fraction, ...]


class Spec(Record):
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


# -- orbit sums of a Young subgroup and the reflections that move them ------------


def _spans(blocks: Sequence[int]) -> list[tuple[int, int]]:
    """``(start, end)`` of each block of consecutive places."""
    ends = list(accumulate(blocks))
    return list(zip([0] + ends[:-1], ends))


@lru_cache(maxsize=None)
def _neighbours(blocks: tuple[int, ...]) -> list[tuple[itemgetter, itemgetter]]:
    """Getters of each pair of neighbouring places inside one of ``blocks``."""
    return [(itemgetter(i), itemgetter(i + 1)) for a, b in _spans(blocks) for i in range(a, b - 1)]


class OrbitSums(Record):
    """A polynomial in ``names`` symmetric under H, the permutations within
    each block of consecutive names (``blocks`` gives their sizes), kept as
    one integer numerator over ``den`` per H-orbit of terms.

    An orbit is keyed by its representative, the exponent vector descending
    within each block.  One-element blocks keep every term, one block keeps S_n
    orbits.  A store whose blocks do not split ``names``, with a key that is
    not such a representative, or with a numerator that is not an int or a
    ``den`` that is not a positive int, raises ``ValueError``.  :meth:`of`
    drops zeros and reduces ``den``, so equal polynomials give equal stores.
    """

    table: VarTable
    names: tuple[str, ...]
    blocks: tuple[int, ...]
    numerators: dict
    den: int = 1

    def __post_init__(self):
        m, keys, blocks = len(self.names), self.numerators.keys(), tuple(self.blocks)
        if sum(blocks) != m or not all(type(b) is int and b > 0 for b in blocks):
            raise ValueError(f"blocks {blocks} do not split {m} names")
        if set(map(len, keys)) - {m} or not all(
                all(map(ge, map(a, keys), map(b, keys))) for a, b in _neighbours(blocks)):
            raise ValueError(f"a key is not descending within blocks {blocks} of {m} names")
        den, kinds = self.den, set(map(type, self.numerators.values()))
        if not (type(den) is int and den >= 1) or kinds - {int}:
            raise ValueError(f"not integer numerators over a positive denominator ({den!r})")

    @staticmethod
    def of(table: VarTable, names: Sequence[str], blocks: Sequence[int],
           numerators: Mapping[tuple, int], den: int = 1) -> "OrbitSums":
        nums = {r: a for r, a in numerators.items() if a}
        try:
            g = gcd(den, *nums.values())
        except TypeError:  # not all ints, which the constructor rejects
            g = 1
        if g > 1:
            nums = {r: a // g for r, a in nums.items()}
            den //= g
        return OrbitSums(table, tuple(names), tuple(blocks), nums, den)

    @property
    def spans(self) -> list[tuple[int, int]]:
        """``(start, end)`` of each block."""
        return _spans(self.blocks)


@lru_cache(maxsize=None)
def _lowerings(x: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``(y, w * mult)`` for each distinct w > 0 of the descending block ``x``:
    y lowers its last w by one, and mult counts the w - 1 in y."""
    out = []
    for j, w in enumerate(x):
        if w and (j + 1 == len(x) or x[j + 1] != w):
            y = x[:j] + (w - 1,) + x[j + 1:]
            out.append((y, w * y.count(w - 1)))
    return tuple(out)


@lru_cache(maxsize=None)
def _raisings(x: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``(y, mult)`` for each distinct v of the descending block ``x``: y
    raises its first v by one, and mult counts the v + 1 in y."""
    out = []
    for j, v in enumerate(x):
        if not j or x[j - 1] != v:
            y = x[:j] + (v + 1,) + x[j + 1:]
            out.append((y, y.count(v + 1)))
    return tuple(out)


def _scattered(q: dict, steps: list[tuple[int, int]], moves) -> dict:
    """Each representative of ``q`` (a tuple of descending blocks) adds
    c * mult times its numerator at every (y, mult) of ``moves`` of its
    block i, block i replaced by y, for each (i, c) of ``steps``; zeros
    are dropped."""
    out: dict = {}
    get = out.get
    for key, a in q.items():
        for i, c in steps:
            ca = c * a
            head, tail = key[:i], key[i + 1:]
            for y, mult in moves(key[i]):
                u = head + (y,) + tail
                out[u] = get(u, 0) + mult * ca
    return {u: a for u, a in out.items() if a}


class Reflection(RuleSet):
    """A rank-one reflection t -> t + form(t) * coroot on t_1..t_n.

    Its rules are t_i -> t_i + c_i * form for each nonzero entry c_i of
    the coroot, so it indexes as any other rule set, and :meth:`apply`
    substitutes them into a plain polynomial.  An :class:`OrbitSums` store
    whose blocks the coroot and the form are constant on (such a Young
    subgroup commutes with the reflection) is moved on its orbit
    representatives, with no term written out.
    """

    form: Polynomial
    coroot: tuple[tuple[str, "int | Fraction"], ...]

    def _entries(self, names: Sequence[str]) -> list[tuple["int | Fraction", "int | Fraction"]]:
        """``(coroot entry, form coefficient)`` of each of ``names``, 0 where none."""
        coroot = dict(self.coroot)
        form = {self.form.table.names[e.index(1)]: c for e, c in self.form.items()}
        if not coroot.keys() | form.keys() <= set(names):
            raise ValueError(f"the reflection moves variables outside {names}")
        return [(coroot.get(v, 0), form.get(v, 0)) for v in names]

    def apply(self, p: "Polynomial | OrbitSums") -> "Polynomial | OrbitSums":
        """p(t + form * coroot), exactly: a polynomial by :meth:`RuleSet.apply`,
        a store as a store on the same blocks.

        On a store the Taylor expansion along the coroot is finite:
        p(t + l c) = sum_k l^k D^k p / k!, D = c . grad.  Both D and the
        product by l keep the store's symmetry, and on representatives u
        (c_B and f_B the coroot entry and form coefficient on block B, mult
        counting a value in u's block) they read
        coef(Dq, u) = sum_B c_B sum_{distinct v in u|B} mult(v) (v + 1) q[u, first v in B raised],
        coef(lq, u) = sum_B f_B sum_{distinct v > 0 in u|B} mult(v) q[u, last v in B lowered];
        each is summed by scattering every representative of q to the u it
        reaches.  Everything runs in integers: c and the form are each scaled to
        integers by the lcm of their denominators, g is the product of the
        two, D^k p runs until it vanishes at k = K, Horner's rule in l sums
        the D^k p with weights g^(K-k) K!/k!, and g^K K! joins the
        denominator at the end.
        """
        if not isinstance(p, OrbitSums):
            return super().apply(p)
        spans = p.spans
        entries = self._entries(p.names)
        if any(len(set(entries[a:b])) > 1 for a, b in spans):
            raise ValueError(f"the reflection is not constant on the blocks {p.blocks}")
        cs, fs = zip(*[entries[a] for a, _ in spans])
        gc, gf = (lcm(*[Fraction(x).denominator for x in xs]) for xs in (cs, fs))
        down = [(i, int(c * gc)) for i, c in enumerate(cs) if c]
        up = [(i, int(f * gf)) for i, f in enumerate(fs) if f]
        g = gc * gf
        parts = [{tuple(r[a:b] for a, b in spans): n for r, n in p.numerators.items()}]
        while True:
            step = _scattered(parts[-1], down, _lowerings)
            if not step:
                break
            parts.append(step)
        top = len(parts) - 1
        acc = parts.pop()
        while parts:
            k = len(parts) - 1
            acc = _scattered(acc, up, _raisings)
            w = g ** (top - k) * (factorial(top) // factorial(k))
            get = acc.get
            for u, n in parts.pop().items():
                acc[u] = get(u, 0) + w * n
        return OrbitSums.of(p.table, p.names, p.blocks,
                            {tuple(chain.from_iterable(u)): n for u, n in acc.items()},
                            p.den * g ** top * factorial(top))


@lru_cache(maxsize=None)
def reflection_blocks(spec: Spec, generator: int) -> tuple[int, ...]:
    """The sizes of the maximal runs of consecutive t's with equal (coroot
    entry, form coefficient) under the generator: the blocks of the largest
    such Young subgroup, which the reflection commutes with."""
    entries = weyl_action(spec, generator)._entries(spec.t_table().names)
    return tuple(len(list(run)) for _, run in groupby(entries))


@lru_cache(maxsize=None)
def weyl_action(spec: Spec, generator: int) -> Reflection:
    """The reflection in the given simple root, acting on the t's; one
    (immutable) value per type and generator for the life of the process.

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


class VertexSplit(Record):
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
