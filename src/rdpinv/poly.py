"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every polynomial refers to a :class:`VarTable`, which fixes the variable
order and assigns each variable a nonnegative integer weight (its
eigenvalue exponent under the background torus action).  Coefficients are
Python ints when integral and ``fractions.Fraction`` otherwise, so
identity testing is exact and the common integer case stays fast.

The public contract is the term view: ``p.items()`` yields ``(exps, c)``
with ``exps`` a tuple aligned with ``p.table.names`` and ``c`` nonzero,
and :meth:`Polynomial.from_items` builds a polynomial from such pairs.
``coefficients_over`` splits the terms by their exponents in chosen
variables; ``coeffs_in``, ``coeff_of``, ``truncate`` and ``leading_term``
read through the same exponent tuples.  How a monomial is stored is
private to this module.

Serialization is deterministic: terms are emitted in descending
graded-lexicographic order, graded by total weighted degree with ties
broken lexicographically in the table's variable order.

Two polynomials over different tables may be combined as long as shared
names carry equal weights; the tables are merged by name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

#: the private store: a monomial is a tuple of (table index, exponent) pairs
#: sorted by index, with no zero exponents; () is the constant monomial
Mono = tuple[tuple[int, int], ...]


class PolyError(Exception):
    """Base class for polynomial-layer errors."""


class WeightConflictError(PolyError):
    """Same variable name declared with two different weights."""


class NonLinearError(PolyError):
    """solve_linear target occurs nonlinearly or with a non-constant coefficient."""


class AbsentVariableError(PolyError):
    """solve_linear target does not occur in the expression."""


class InconsistentSystemError(PolyError):
    """A linear system reduced a row to 0 == nonzero."""


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _norm(c):
    """Collapse integral Fractions to int; keep everything else as is."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _coeff_str(c) -> str:
    c = _norm(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


_TABLE_REGISTRY: dict[tuple, "VarTable"] = {}


class VarTable:
    """Ordered variable names with weights.  Interned: equal contents share identity."""

    __slots__ = ("names", "weights", "_index")

    def __new__(cls, names: Sequence[str], weights: Sequence[int]):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        key = (names, weights)
        cached = _TABLE_REGISTRY.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.names = names
        self.weights = weights
        self._index = {n: i for i, n in enumerate(names)}
        _TABLE_REGISTRY[key] = self
        return self

    def index_of(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"VarTable({inner})"

    def merged(self, other: "VarTable") -> "VarTable":
        """Union of the two tables: self's order first, then other's new names."""
        if other is self:
            return self
        key = (id(self), id(other))
        cached = _MERGE_CACHE.get(key)
        if cached is not None:
            return cached
        names = list(self.names)
        weights = list(self.weights)
        for n, w in zip(other.names, other.weights):
            i = self._index.get(n)
            if i is None:
                names.append(n)
                weights.append(w)
            elif self.weights[i] != w:
                raise WeightConflictError(
                    f"variable {n!r} has weight {self.weights[i]} here and {w} there"
                )
        merged = VarTable(names, weights)
        _MERGE_CACHE[key] = merged
        return merged

    def var(self, name: str, exp: int = 1) -> "Polynomial":
        i = self._index[name]
        if exp == 0:
            return Polynomial(self, {(): 1})
        return Polynomial(self, {((i, exp),): 1})

    def const(self, c) -> "Polynomial":
        c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(): c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def _weight(self, m: Mono) -> int:
        w = self.weights
        return sum(e * w[i] for i, e in m)


_MERGE_CACHE: dict[tuple[int, int], VarTable] = {}


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _remap(m: Mono, mapping: Sequence[int]) -> Mono:
    return tuple(sorted((mapping[i], e) for i, e in m))


def _dense(m: Mono, n: int) -> tuple[int, ...]:
    exps = [0] * n
    for i, e in m:
        exps[i] = e
    return tuple(exps)


class Polynomial:
    """Immutable sparse polynomial; all operations return new values."""

    __slots__ = ("table", "terms")  # terms: the private Mono -> coefficient store

    def __init__(self, table: VarTable, terms: dict):
        self.table = table
        self.terms = terms

    @staticmethod
    def from_items(table: VarTable, items: Mapping[tuple, "int | Fraction"]) -> "Polynomial":
        """The polynomial with these terms; each key is an exponent tuple
        aligned with ``table.names``, and zero coefficients are dropped."""
        terms = {}
        for exps, c in items.items():
            if len(exps) != len(table):
                raise ValueError(f"exponent tuple {exps} does not fit {table}")
            if c:
                terms[tuple(compress(enumerate(exps), exps))] = _norm(c)
        return Polynomial(table, terms)

    def items(self) -> Iterator[tuple[tuple[int, ...], "int | Fraction"]]:
        """Each term as ``(exps, c)``, ``exps`` aligned with ``table.names``."""
        n = len(self.table)
        for m, c in self.terms.items():
            yield _dense(m, n), c

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def variables(self) -> set[str]:
        names = self.table.names
        return {names[i] for m in self.terms for i, _ in m}

    def contains_var(self, name: str) -> bool:
        idx = self.table._index.get(name)
        if idx is None:
            return False
        return any(i == idx for m in self.terms for i, _ in m)

    def constant_value(self):
        """The coefficient of the constant monomial."""
        return self.terms.get((), 0)

    def compact(self) -> "Polynomial":
        """Rebuild over a table containing only the variables actually used."""
        used = sorted({i for m in self.terms for i, _ in m})
        if len(used) == len(self.table):
            return self
        names = [self.table.names[i] for i in used]
        weights = [self.table.weights[i] for i in used]
        table = VarTable(names, weights)
        back = {i: table.index_of(self.table.names[i]) for i in used}
        return Polynomial(table, {_remap(m, back): c for m, c in self.terms.items()})

    def to_table(self, table: VarTable) -> "Polynomial":
        if table is self.table:
            return self
        merged = table.merged(self.table)
        if merged is self.table:
            return self
        mapping = [merged.index_of(n) for n in self.table.names]
        return Polynomial(merged, {_remap(m, mapping): c for m, c in self.terms.items()})

    def _align(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if self.table is other.table:
            return self, other
        merged = self.table.merged(other.table)
        return self.to_table(merged), other.to_table(merged)

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.const(other)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        if not a.terms:
            return b
        if not b.terms:
            return a
        out = dict(a.terms)
        for m, c in b.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = _norm(s)
            else:
                out.pop(m, None)
        return Polynomial(a.table, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial(self.table, {})
            other = _norm(other)
            return Polynomial(self.table, {m: _norm(c * other) for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._align(other)
        if not a.terms or not b.terms:
            return Polynomial(a.table, {})
        small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
        out: dict = {}
        get = out.get
        for ms, cs in small.items():
            for mb, cb in big.items():
                m = _mono_mul(ms, mb)
                prev = get(m)
                out[m] = cs * cb if prev is None else prev + cs * cb
        return Polynomial(a.table, {m: _norm(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.table.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    __hash__ = None  # mutable dict inside; equality is structural

    # -- weights and degrees ----------------------------------------------

    def homogeneous_weight(self) -> "int | None":
        """Common weighted degree of all terms, or None if mixed or zero.

        The zero polynomial has every weight; callers distinguish it via
        ``is_zero``.
        """
        w = None
        for m in self.terms:
            mw = self.table._weight(m)
            if w is None:
                w = mw
            elif w != mw:
                return None
        return w

    # -- extraction -------------------------------------------------------

    def coefficients_over(self, names: Iterable[str]) -> dict[tuple[int, ...], "Polynomial"]:
        """Group terms by their exponents in ``names``.

        Keys are exponent tuples aligned with ``names``, e.g. ``(2, 0, 1)``
        for x^2*z over ``("x", "y", "z")``; values are the cofactor
        polynomials in the remaining variables, on this table.
        """
        pos = {self.table.index_of(n): k for k, n in enumerate(names)}
        width = len(pos)
        out: dict[tuple, dict] = {}
        for m, c in self.terms.items():
            key = [0] * width
            rest = []
            for i, e in m:
                k = pos.get(i)
                if k is None:
                    rest.append((i, e))
                else:
                    key[k] = e
            out.setdefault(tuple(key), {})[tuple(rest)] = c
        return {k: Polynomial(self.table, t) for k, t in out.items()}

    def coeffs_in(self, name: str) -> dict[int, "Polynomial"]:
        """View as a univariate polynomial in ``name``: degree -> coefficient."""
        return {k: c for (k,), c in self.coefficients_over((name,)).items()}

    def coeff_of(self, mono: Mapping[str, int], within: Iterable[str]) -> "Polynomial":
        """Coefficient of the exact monomial ``mono`` when viewed over ``within``.

        Variables of ``within`` absent from ``mono`` must appear with
        exponent zero; returns 0 when the monomial is absent.
        """
        within = tuple(within)
        if any(v not in within for v in mono):
            raise ValueError("monomial involves variables outside the given subset")
        key = tuple(mono.get(v, 0) for v in within)
        return self.coefficients_over(within).get(key, self.table.zero())

    # -- substitution ------------------------------------------------------

    def substitute(self, rules: Mapping[str, "Polynomial | int | Fraction"],
                   max_total_degree: "int | None" = None) -> "Polynomial":
        """Simultaneous substitution; variables without rules pass through.

        The result lives on this table merged with every rule value's table.
        A rule value of at most one term (zero, a constant, a scaled
        monomial) is applied to each term directly.  The other ruled
        variables present in the input, v1, ..., vk, go through one
        recursive Horner scheme: split the terms by their exponent of v1,
        substitute v2..vk into each block, and combine the blocks from the
        top exponent down as ``acc = acc * r(v1) + block_e``.  Each block
        comes from the input, so a rule value that contains ruled variables
        (a swap, a reflection) is never substituted into again.  The
        innermost variable is the one whose value uses the fewest variables,
        and each further one adds the fewest new ones, so the inner results
        stay small; for the E6 reflection on t1..t6 that is t6 outermost.

        With ``max_total_degree`` the result is the full result truncated
        to that total degree.  Degrees only add under multiplication, so a
        block multiplied by ``vi^e`` is needed only up to the budget minus
        ``e * low(r(vi))``, the lowest total degree in the value: each
        Horner step is a ``mul_truncated`` at that budget, and a term whose
        image cannot reach below the budget is dropped before any product
        is formed.  This keeps jet computations polynomial-sized.
        """
        live = {n: r for n, r in rules.items() if n in self.table}
        if not live:
            return self if max_total_degree is None else self.truncate(max_total_degree)
        table = self.table
        for r in live.values():
            if isinstance(r, Polynomial):
                table = table.merged(r.table)
        # the merged table lists this table's names first, so indices agree
        direct: dict[int, tuple] = {}  # index -> (monomial, coefficient) or None
        horner: dict[int, Polynomial] = {}
        for n, r in live.items():
            r = r.to_table(table) if isinstance(r, Polynomial) else table.const(r)
            i = self.table.index_of(n)
            if len(r.terms) <= 1:
                direct[i] = next(iter(r.terms.items()), None)
            else:
                horner[i] = r
        present = {i for m in self.terms for i, _ in m}
        uses = {i: {j for m in r.terms for j, _ in m} for i, r in horner.items() if i in present}
        # innermost first, each time the value that brings the fewest new
        # variables into the inner results: they stay over fewer variables
        order: list[int] = []
        seen: set[int] = set()
        while uses:
            i = min(uses, key=lambda i: (len(uses[i] - seen), i))
            seen |= uses.pop(i)
            order.append(i)
        order.reverse()
        slot = {i: k for k, i in enumerate(order)}
        values = [horner[i] for i in order]
        lows = [min(sum(e for _, e in m) for m in r.terms) for r in values]
        bound = max_total_degree

        # split the terms by their exponents of the Horner variables; the
        # rest of each term, with the direct rules applied, forms the block
        blocks: dict[tuple, dict] = {}
        for m, c in self.terms.items():
            key = [0] * len(slot)
            kept = []
            extra: Mono = ()
            for i, e in m:
                k = slot.get(i)
                if k is not None:
                    key[k] = e
                elif i not in direct:
                    kept.append((i, e))
                elif direct[i] is None:
                    break  # a zero value kills the term
                else:
                    rm, rc = direct[i]
                    extra = _mono_mul(extra, tuple((j, d * e) for j, d in rm))
                    c = c * rc ** e
            else:
                rest = _mono_mul(tuple(kept), extra)
                if bound is not None and (sum(e for _, e in rest)
                                          + sum(e * low for e, low in zip(key, lows)) > bound):
                    continue
                block = blocks.setdefault(tuple(key), {})
                s = block.get(rest, 0) + c
                if s:
                    block[rest] = _norm(s)
                else:
                    del block[rest]

        def combine(group: dict, level: int, budget: "int | None") -> Polynomial:
            if level == len(values):
                (block,) = group.values()
                return Polynomial(table, block)
            by_exp: dict[int, dict] = {}
            for key, block in group.items():
                by_exp.setdefault(key[level], {})[key] = block
            r, low = values[level], lows[level]
            acc = None
            for e in range(max(by_exp), -1, -1):
                cap = None if budget is None else budget - e * low
                if acc is not None:
                    acc = acc * r if cap is None else acc.mul_truncated(r, cap)
                if e in by_exp:
                    part = combine(by_exp[e], level + 1, cap)
                    acc = part if acc is None else acc + part
            return acc

        if not blocks:
            return Polynomial(table, {})
        return combine(blocks, 0, bound)

    def truncate(self, bound: int) -> "Polynomial":
        """The terms of total degree at most ``bound``."""
        return Polynomial(self.table,
                          {m: c for m, c in self.terms.items()
                           if sum(e for _, e in m) <= bound})

    def mul_truncated(self, other: "Polynomial", bound: int) -> "Polynomial":
        """Product with every monomial of total degree above ``bound`` dropped.

        Skips doomed pairs before forming them, which is what makes jet
        arithmetic cheap.
        """
        a, b = self._align(other)
        if not a.terms or not b.terms:
            return Polynomial(a.table, {})
        if len(a.terms) > len(b.terms):
            a, b = b, a
        bdeg = sorted(((sum(e for _, e in m), m, c) for m, c in b.terms.items()))
        out: dict = {}
        get = out.get
        for ma, ca in a.terms.items():
            rem = bound - sum(e for _, e in ma)
            if rem < 0:
                continue
            for db, mb, cb in bdeg:
                if db > rem:
                    break
                m = _mono_mul(ma, mb)
                prev = get(m)
                out[m] = ca * cb if prev is None else prev + ca * cb
        return Polynomial(a.table, {m: _norm(c) for m, c in out.items() if c})

    def evaluate(self, values: Mapping[str, "int | Fraction"]) -> Fraction:
        missing = self.variables() - set(values)
        if missing:
            raise ValueError(f"no values for variables {sorted(missing)}")
        names = self.table.names
        total = Fraction(0)
        for m, c in self.terms.items():
            term = Fraction(c)
            for i, e in m:
                term *= Fraction(values[names[i]]) ** e
            total += term
        return total

    def derivative(self, name: str) -> "Polynomial":
        idx = self.table.index_of(name)
        out: dict = {}
        for m, c in self.terms.items():
            for pos, (i, e) in enumerate(m):
                if i == idx:
                    rest = m[:pos] + ((i, e - 1),) + m[pos + 1:] if e > 1 else m[:pos] + m[pos + 1:]
                    s = out.get(rest, 0) + c * e
                    if s:
                        out[rest] = _norm(s)
                    else:
                        out.pop(rest, None)
                    break
        return Polynomial(self.table, out)

    # -- solving -----------------------------------------------------------

    def solve_linear(self, name: str) -> "Polynomial":
        """Solve ``self == 0`` for ``name``.

        Requires self = c*name + r with c a nonzero rational constant and r
        free of the variable; returns -r/c.
        """
        idx = self.table.index_of(name)
        c = None
        rest: dict = {}
        for m, coeff in self.terms.items():
            exps = dict(m)
            e = exps.get(idx, 0)
            if e == 0:
                rest[m] = coeff
            elif e >= 2 or len(m) > 1:
                raise NonLinearError(
                    f"{name} appears with exponent >= 2 or a non-constant coefficient"
                )
            else:
                c = coeff
        if c is None:
            raise AbsentVariableError(f"{name} does not appear in the expression")
        inv = Fraction(-1, 1) / Fraction(c)
        return Polynomial(self.table, {m: _norm(co * inv) for m, co in rest.items()})

    # -- ordering and serialization -----------------------------------------

    def _glex_key(self, m: Mono):
        sentinel = len(self.table)
        return (-self.table._weight(m), tuple((i, -e) for i, e in m) + ((sentinel, 0),))

    def _sorted(self) -> list[tuple[Mono, "int | Fraction"]]:
        return sorted(self.terms.items(), key=lambda item: self._glex_key(item[0]))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], "int | Fraction"]]:
        """The :meth:`items` in descending graded-lex order (weighted grading)."""
        n = len(self.table)
        return [(_dense(m, n), c) for m, c in self._sorted()]

    def leading_term(self) -> tuple[tuple[int, ...], "int | Fraction"]:
        """The first of :meth:`sorted_terms`, as ``(exps, c)``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=self._glex_key)
        return _dense(m, len(self.table)), self.terms[m]

    def serialize(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names
        parts = []
        for k, (m, c) in enumerate(self._sorted()):
            c = _norm(c)
            neg = c < 0
            mag = -c if neg else c
            factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in m]
            if not factors or mag != 1:
                factors.insert(0, _coeff_str(mag))
            body = "*".join(factors)
            if k == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"{' - ' if neg else ' + '}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        s = self.serialize()
        return s if len(s) <= 120 else f"<Polynomial with {len(self.terms)} terms>"

    def to_json(self) -> dict:
        return {
            "vars": list(self.table.names),
            "weights": list(self.table.weights),
            "terms": [
                {"m": {self.table.names[i]: e for i, e in m}, "c": _coeff_str(c)}
                for m, c in self._sorted()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Polynomial":
        table = VarTable(data["vars"], data["weights"])
        terms: dict = {}
        for t in data["terms"]:
            m = tuple(sorted((table.index_of(v), int(e)) for v, e in t["m"].items() if int(e)))
            terms[m] = _norm(Fraction(t["c"]))
        return Polynomial(table, terms)


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.lastgroup is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:pos+1]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


def parse(text: str, table: VarTable) -> Polynomial:
    """Parse the canonical text format back into a polynomial.

    Grammar: signed terms joined by + / -, each term a '*'-separated list
    of an optional rational coefficient p or p/q and variable powers
    name or name^e.  Round-trips with :meth:`Polynomial.serialize`.
    """
    tokens = _tokenize(text)
    n = len(tokens)
    if n == 0:
        raise ParseError("empty input", 0)
    acc: dict = {}
    i = 0
    first = True
    while i < n:
        sign = 1
        kind, val, pos = tokens[i]
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        elif not first:
            raise ParseError(f"expected '+' or '-', got {val!r}", pos)
        first = False
        if i >= n:
            raise ParseError("dangling sign", pos)
        coeff = Fraction(sign)
        mono: dict[int, int] = {}
        saw_factor = False
        while True:
            kind, val, pos = tokens[i]
            if kind == "num":
                num = int(val)
                den = 1
                if i + 2 < n and tokens[i + 1][:2] == ("op", "/") and tokens[i + 2][0] == "num":
                    den = int(tokens[i + 2][1])
                    if den == 0:
                        raise ParseError("zero denominator", tokens[i + 2][2])
                    i += 2
                coeff *= Fraction(num, den)
                i += 1
            elif kind == "name":
                if val not in table:
                    raise ParseError(f"unknown variable {val!r}", pos)
                idx = table.index_of(val)
                exp = 1
                if i + 2 < n and tokens[i + 1][:2] == ("op", "^") and tokens[i + 2][0] == "num":
                    exp = int(tokens[i + 2][1])
                    i += 2
                elif i + 1 < n and tokens[i + 1][:2] == ("op", "^"):
                    raise ParseError("expected integer exponent after '^'", tokens[i + 1][2])
                mono[idx] = mono.get(idx, 0) + exp
                i += 1
            else:
                raise ParseError(f"expected coefficient or variable, got {val!r}", pos)
            saw_factor = True
            if i < n and tokens[i][:2] == ("op", "*"):
                i += 1
                if i >= n:
                    raise ParseError("dangling '*'", tokens[i - 1][2])
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", pos)
        key = tuple(sorted((v, e) for v, e in mono.items() if e))
        s = acc.get(key, 0) + coeff
        if s:
            acc[key] = _norm(s)
        else:
            acc.pop(key, None)
        if i < n and tokens[i][0] != "op":
            raise ParseError(f"expected operator, got {tokens[i][1]!r}", tokens[i][2])
    return Polynomial(table, acc)


# -- univariate-style helpers -------------------------------------------------


def univar_divmod(num: Polynomial, den: Polynomial, name: str) -> tuple[Polynomial, Polynomial]:
    """Long division in the variable ``name``.

    The divisor's leading coefficient (in ``name``) must be a nonzero
    rational constant; coefficients from the other variables ride along
    exactly.
    """
    num, den = num._align(den)
    dc = den.coeffs_in(name)
    d = max(dc)
    lead = dc[d]
    if lead.variables():
        raise ValueError(f"divisor leading coefficient in {name} is not constant")
    lc = Fraction(lead.constant_value())
    if lc == 0:
        raise ZeroDivisionError("zero divisor")
    table = num.table
    quot = table.zero()
    rem = num
    var = table.var(name)
    while not rem.is_zero:
        rc = rem.coeffs_in(name)
        e = max(rc)
        if e < d:
            break
        piece = rc[e] * (Fraction(1) / lc)
        shift = var ** (e - d)
        q = piece * shift
        quot = quot + q
        rem = rem - q * den
    return quot, rem


def exact_div(num: Polynomial, den: Polynomial, name: str) -> Polynomial:
    quot, rem = univar_divmod(num, den, name)
    if not rem.is_zero:
        raise ValueError(f"division by {den.serialize()} in {name} leaves remainder")
    return quot


# -- exact linear systems -----------------------------------------------------


def _sub_scaled(row: dict, factor, other: dict) -> None:
    """row -= factor * other in place, dropping zero entries."""
    for v, c in other.items():
        s = row.get(v, 0) - factor * c
        if s:
            row[v] = s
        else:
            row.pop(v, None)


class LinearSystem:
    """Sparse rational Gauss-Jordan elimination, one row at a time.

    A row is a mapping unknown -> coefficient, read as sum c*u == rhs;
    unknowns are any mutually orderable keys.  Pivot rows are kept fully
    reduced: each is stored without its pivot and mentions no other pivot.
    """

    def __init__(self):
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, row: Mapping, rhs=0) -> bool:
        """Insert one equation; True when it was independent of the earlier ones.

        Raises :class:`InconsistentSystemError` when it contradicts them.
        """
        row = {u: Fraction(c) for u, c in row.items() if c}
        rhs = Fraction(rhs)
        # pivot rows mention no pivot, so one pass over the original support
        # clears every pivot from the row
        for u in [u for u in row if u in self._pivots]:
            factor = row.pop(u)
            prow, prhs = self._pivots[u]
            _sub_scaled(row, factor, prow)
            rhs -= factor * prhs
        if not row:
            if rhs:
                raise InconsistentSystemError("inconsistent linear system")
            return False
        pv = min(row)
        inv = 1 / row.pop(pv)
        row = {v: c * inv for v, c in row.items()}
        rhs *= inv
        for u, (prow, prhs) in self._pivots.items():
            f = prow.pop(pv, None)
            if f is not None:
                _sub_scaled(prow, f, row)
                self._pivots[u] = (prow, prhs - f * rhs)
        self._pivots[pv] = (row, rhs)
        return True

    def solution(self) -> dict:
        """Values of the pivot unknowns with every free unknown set to zero."""
        return {u: rhs for u, (_, rhs) in self._pivots.items()}
