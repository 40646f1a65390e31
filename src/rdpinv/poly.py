"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every polynomial refers to a :class:`VarTable`, which fixes the variable
order and assigns each variable a nonnegative integer weight (its
eigenvalue exponent under the background torus action).  Coefficients
are exact rationals: the kernel accepts ``int`` and ``fractions.Fraction``
values and raises ``TypeError`` for anything else, a float included.

The public contract is the term view and a packed read and write.
``p.items()`` yields ``(exps, c)`` with ``exps`` a tuple aligned with
``p.table.names`` and ``c`` nonzero, an ``int`` when integral and a reduced
``Fraction`` otherwise, and :meth:`Polynomial.from_items` builds a
polynomial from such pairs.  ``coefficients_over`` splits the terms by
their exponents in chosen variables; ``coeffs_in`` and ``truncate`` read
through the same exponent tuples.  ``coefficient`` reads one coefficient
by one lookup of its packed key, and ``order`` the least total degree
through the degree reader.
``numerators_over`` instead gives the integer numerators over the common
denominator, grouped by exponents in chosen variables read straight off
the keys, and :meth:`Polynomial.from_numerators` packs such groups
straight into keys and normalizes once.

The store behind the view is private to this module; it follows the packed
exponent vectors of Monagan & Pearce (CASC 2007, and Maple 14, 2009):

* A monomial is one int.  The exponent of table index ``i`` sits in the
  bit field ``[i*s, (i+1)*s)``, where ``s`` is the polynomial's field
  width (``shift``): 8 bits, doubled for as long as an exponent needs
  more.  The top bit of each field is a guard bit, clear in every stored
  key, so an exponent stays below ``2**(s-1)``.  Adding two keys adds
  their exponents, so before a product or a substitution forms any key it
  bounds the result's exponents from its operands (the top field of their
  keys OR'd together) and doubles the width until that bound clears the
  guard bit: exponents never wrap.  Decoding a key reads it only up to its
  highest nonzero field.  As 2**s is 1 mod m = 2**s - 1, a key is its
  field sum mod m, so a total degree is read as one ``k % m`` when the
  field sums of the keys read are bounded below m: for a term set by the
  fields of its keys OR'd together, for the blocks of a substitution by
  the input's kept fields plus each one-term value's degree times the top
  exponent of its variable.  Above that the fields are decoded and summed.
* Coefficients are integer numerators over one denominator ``den`` per
  polynomial, positive and coprime to the gcd of the numerators.  That
  makes the store canonical (``den`` is the lcm of the coefficients'
  denominators), so equality compares dicts, and an inner product loop
  multiplies and adds plain ints; each op normalizes once per result.  A
  substitution's Horner steps, or its one sum of products when the input is
  affine in the multi-term values, run through the same pair loop on bare
  numerator dicts with a running denominator, and normalize once per call.
* Moving a polynomial onto another table shifts each run of fields that
  stays consecutive with one mask and one shift, planned once per pair of
  tables and width.

Serialization is deterministic: terms are emitted in descending
graded-lexicographic order, graded by total weighted degree with ties
broken lexicographically in the table's variable order.  :func:`parse`
reads the layout ``serialize`` writes with string splits, each distinct
factor once; any other spelling its grammar allows goes through the
grammar walk, which alone reports a :class:`ParseError` and its position.

Two polynomials over different tables may be combined as long as shared
names carry equal weights; the tables are merged by name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter, lshift, mul, or_
from typing import Iterable, Iterator, Mapping, Sequence


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


def _check_rational(c) -> None:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


# -- packed monomials ---------------------------------------------------------

#: the field width of a fresh key, in bits, guard bit included
_S = 8


def _fit(s: int, top: int) -> int:
    """Width ``s``, doubled until an exponent up to ``top`` stays below the guard bit."""
    while top >= 1 << (s - 1):
        s *= 2
    return s


def _width_for(exps: list[int]) -> int:
    """The narrowest field width (8, 16, 32, ...) that holds every exponent."""
    if exps and min(exps) < 0:
        raise ValueError(f"negative exponent {min(exps)}")
    return _fit(_S, max(exps, default=0))


def _fields(k: int, s: int):
    """The fields of key ``k``, lowest index first, up to its top nonzero one."""
    if s == 8:
        return k.to_bytes((k.bit_length() + 7) >> 3, "little")
    out = []
    mask = (1 << s) - 1
    while k:
        out.append(k & mask)
        k >>= s
    return out


def _pairs(k: int, s: int) -> Iterator[tuple[int, int]]:
    """``(index, exponent)`` for each nonzero field of ``k``, by index."""
    f = _fields(k, s)
    return compress(enumerate(f), f)


def _pack(pairs: Iterable[tuple[int, int]], s: int) -> int:
    return sum(e << i * s for i, e in pairs)


def _degree(k: int, s: int) -> int:
    """Total degree of key ``k``."""
    return sum(_fields(k, s))


def _reader(bound: int, s: int):
    """The total degree of a key whose fields sum to at most ``bound``:
    ``k % m`` when ``bound`` < m = 2**s - 1, else the exact decode."""
    m = (1 << s) - 1
    return m.__rmod__ if bound < m else lambda k: _degree(k, s)


def _degrees(keys: Iterable[int], s: int):
    """The degree reader for ``keys``; the fields of their OR bound their field sums."""
    return _reader(_degree(reduce(or_, keys, 0), s), s)


def _top(keys: Iterable[int], s: int) -> int:
    """An upper bound on every exponent in ``keys``, below twice the largest."""
    return max(_fields(reduce(or_, keys, 0), s), default=0)


def _dense(f, n: int) -> tuple[int, ...]:
    """Fields ``f`` as the exponent tuple of a table of ``n`` variables."""
    return tuple(f) + (0,) * (n - len(f))


def _coeff(n: int, d: int) -> "int | Fraction":
    """``n/d`` as an int when integral, else as a reduced Fraction."""
    if d == 1:
        return n
    return n // d if n % d == 0 else Fraction(n, d)


def _coeff_str(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


_TABLE_REGISTRY: dict[tuple, "VarTable"] = {}


class VarTable:
    """Ordered variable names with weights.  Interned: equal contents share identity."""

    __slots__ = ("names", "weights", "_index")

    def __new__(cls, names: Sequence[str], weights: Sequence[int]):
        names, weights = tuple(names), tuple(weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if not all(type(v) is str for v in names):
            raise ValueError(f"variable names {names} are not all strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if not all(type(w) is int and w >= 0 for w in weights):
            raise ValueError(f"weights {weights} are not all nonnegative ints")
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

    def __reduce__(self):
        # rebuilt through the interning constructor: the same object in one process
        return VarTable, (self.names, self.weights)

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
        s = _width_for([exp])
        return Polynomial(self, {exp << i * s: 1}, 1, s)

    def const(self, c) -> "Polynomial":
        _check_rational(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {0: c.numerator}, c.denominator)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})


_MERGE_CACHE: dict[tuple[int, int], VarTable] = {}
#: (source table, target table, field width) -> the moves of ``Polynomial._moved``
_MOVE_CACHE: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}


def _moves(source: VarTable, target: VarTable, s: int) -> list[tuple[int, int, int]]:
    """``(mask, up, down)`` per maximal run of consecutive fields of ``source``
    whose names sit in consecutive fields of ``target``: a key moves as the sum
    of ``(k & mask) << up >> down``; empty when no field moves."""
    runs: list[list[int]] = []  # [first index, last index, target index - index]
    for i, v in enumerate(source.names):
        j = target._index.get(v)
        if j is not None and runs and runs[-1][1:] == [i - 1, j - i]:
            runs[-1][1] = i
        elif j is not None:
            runs.append([i, i, j - i])
    if len(runs) == 1 and runs[0][::2] == [0, 0]:
        return []
    return [(((1 << (b - a + 1) * s) - 1) << a * s, max(d, 0) * s, max(-d, 0) * s)
            for a, b, d in runs]


def _reduced(table: VarTable, terms: dict, den: int, s: int) -> "Polynomial":
    """The polynomial ``terms / den``; no numerator may be zero."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: n // g for k, n in terms.items()}
            den //= g
    return Polynomial(table, terms, den, s)


def _grouped(terms: dict, part) -> dict[int, list[tuple[int, int]]]:
    """The ``(key, numerator)`` pairs of ``terms``, grouped by ``part(key)``."""
    groups: dict = {}
    for k, n in terms.items():
        groups.setdefault(part(k), []).append((k, n))
    return groups


def _over_common(coeffs: dict) -> tuple[dict, int]:
    """``(terms, common)``: the ints and Fractions of ``coeffs`` as integer
    numerators over their least common denominator, zero values dropped."""
    common = lcm(*[c.denominator for c in coeffs.values() if type(c) is not int])
    return {k: c.numerator * (common // c.denominator) for k, c in coeffs.items() if c}, common


def _repacked(terms: dict, s: int, s2: int) -> dict:
    """``terms`` with the fields of their keys moved from ``s`` to ``s2`` bits."""
    return {_pack(_pairs(k, s), s2): n for k, n in terms.items()}


def _product(blocks) -> dict:
    """The nonzero sums over the term pairs of ``blocks``, each block two
    runs of ``(key, numerator)``, one per factor: the one pair loop behind
    ``*``, ``mul_truncated``, ``image_coefficients`` and the Horner steps of
    ``substitute``."""
    out: dict = {}
    get = out.get
    for ta, tb in blocks:
        for ka, na in ta:
            for kb, nb in tb:
                k = ka + kb
                out[k] = get(k, 0) + na * nb
    return {k: n for k, n in out.items() if n} if 0 in out.values() else out


def _add_into(acc: dict, terms: dict, f: int) -> None:
    """Add ``f`` times ``terms`` into ``acc`` in place; a sum that cancels drops out."""
    get = acc.get
    for k, n in terms.items():
        t = get(k, 0) + n * f
        if t:
            acc[k] = t
        else:
            del acc[k]


def _routed(ga: dict, gb: dict, sums: dict) -> dict:
    """``sums``, each cell's list extended by the pairs of runs of ``ga``
    and ``gb``, both by cell, whose cells sum to it, the shorter run first."""
    for ca, ta in ga.items():
        for cb, tb in gb.items():
            run = sums.get(ca + cb)
            if run is not None:
                run.append((ta, tb) if len(ta) <= len(tb) else (tb, ta))
    return sums


def _within(ga: dict, gb: dict, bound: int) -> list:
    """The pairs of degree groups of ``ga`` and ``gb`` whose degrees sum to at most ``bound``."""
    return [(ta, tb) for da, ta in ga.items() for db, tb in gb.items() if da + db <= bound]


class _HornerValue:
    """A rule value of two or more terms in :meth:`Polynomial.substitute`:
    its numerators over ``den``, for a bounded call grouped by total degree
    once, and the lowest total degree of its terms."""

    __slots__ = ("offset", "terms", "den", "shift", "top", "groups", "low")

    def __init__(self, offset: int, r: "Polynomial", bounded: bool):
        self.offset, self.terms, self.den, self.shift = offset, r.terms, r.den, r.shift
        f = _fields(reduce(or_, r.terms, 0), r.shift)  # bounds each key's fields
        self.top = max(f)
        self.groups = _grouped(r.terms, _reader(sum(f), r.shift)) if bounded else None
        self.low = min(self.groups) if bounded else 0

    def times(self, acc: dict, w: int, cap: "int | None", bound: "int | None") -> tuple[list, int]:
        """The pair-loop blocks of ``acc`` times the value, with every term
        above total degree ``cap`` left out, and the product's field width:
        the width ``w`` of ``acc``, doubled until no exponent it keeps reaches
        a guard bit.  In a call bounded by ``bound``, no key of ``acc`` is
        above that degree."""
        if cap is None or cap >= 1 << w - 1:
            top = _top(acc, w) + self.top
            s = _fit(w, top if cap is None else min(top, cap))
            if s != w:
                acc, w = _repacked(acc, w, s), s
        terms, groups = self.terms, self.groups
        if w != self.shift:
            terms = _repacked(terms, self.shift, w)
            groups = groups and _grouped(terms, _degrees(terms, w))
        if cap is None:
            small, big = (acc, terms) if len(acc) <= len(terms) else (terms, acc)
            return [(small.items(), list(big.items()))], w
        return _within(_grouped(acc, _reader(bound, w)), groups, cap), w


class Polynomial:
    """Immutable sparse polynomial; all operations return new values."""

    # the private store: packed monomial -> nonzero integer numerator, over
    # the common denominator ``den``, with fields ``shift`` bits wide
    __slots__ = ("table", "terms", "den", "shift")

    def __init__(self, table: VarTable, terms: dict, den: int = 1, shift: int = _S):
        self.table = table
        self.terms = terms
        self.den = den
        self.shift = shift

    @staticmethod
    def from_items(table: VarTable, items: Mapping[tuple, "int | Fraction"]) -> "Polynomial":
        """The polynomial with these terms; each key is an exponent tuple
        aligned with ``table.names``, and zero coefficients are dropped
        before any key is packed from the nonzero exponents."""
        for exps, c in items.items():
            if len(exps) != len(table):
                raise ValueError(f"exponent tuple {exps} does not fit {table}")
            _check_rational(c)
        items = {exps: c for exps, c in items.items() if c}
        s = _width_for([e for exps in items for e in exps])
        coeffs = {_pack(compress(enumerate(e), e), s): c for e, c in items.items()}
        return _reduced(table, *_over_common(coeffs), s)

    @staticmethod
    def from_numerators(table: VarTable, names: Sequence[str], numerators: Mapping[tuple, int],
                        den: int = 1) -> "Polynomial":
        """The sum of ``n/den * prod(names ** exps)`` over ``numerators``, each int
        ``n`` keyed by its ``exps`` aligned with ``names``, zeros dropped;
        ``ValueError`` unless the numerators are ints keyed by tuples of
        ``len(names)`` and ``den`` is a positive int."""
        if not (type(den) is int and den >= 1 and all(
                type(n) is int and len(exps) == len(names) for exps, n in numerators.items())):
            raise ValueError(f"not integer numerators over {names} and a positive denominator")
        s = _width_for([e for exps in numerators for e in exps])
        offsets = [table.index_of(v) * s for v in names]
        keys = {sum(map(lshift, e, offsets)): n for e, n in numerators.items() if n}
        return _reduced(table, keys, den, s)

    def items(self) -> Iterator[tuple[tuple[int, ...], "int | Fraction"]]:
        """Each term as ``(exps, c)``, ``exps`` aligned with ``table.names``."""
        n, s, d = len(self.table), self.shift, self.den
        for k, c in self.terms.items():
            yield _dense(_fields(k, s), n), _coeff(c, d)

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def _used(self) -> list[int]:
        """The table indices of the variables that occur."""
        return [i for i, _ in _pairs(reduce(or_, self.terms, 0), self.shift)]

    def variables(self) -> set[str]:
        names = self.table.names
        return {names[i] for i in self._used()}

    def contains_var(self, name: str) -> bool:
        idx = self.table._index.get(name)
        if idx is None:
            return False
        s = self.shift
        field = ((1 << s) - 1) << idx * s
        return any(k & field for k in self.terms)

    def constant_value(self):
        """The coefficient of the constant monomial."""
        return self.coefficient({})

    def coefficient(self, mono: Mapping[str, int]) -> "int | Fraction":
        """The coefficient of ``mono``, names to exponents (every other name to
        the power 0): one lookup of its packed key; 0 for an exponent no field
        holds or a positive power of a name not in the table."""
        s, at = self.shift, self.table._index
        if not all(0 <= e < 1 << s - 1 and (not e or v in at) for v, e in mono.items()):
            return 0
        n = self.terms.get(sum(e << at[v] * s for v, e in mono.items() if e))
        return 0 if n is None else _coeff(n, self.den)

    def order(self) -> "int | None":
        """The least total degree of a term; None for the zero polynomial."""
        return min(map(_degrees(self.terms, self.shift), self.terms), default=None)

    def _moved(self, table: VarTable) -> "Polynomial":
        """This polynomial on ``table``, which holds every variable that occurs;
        each run of fields that stays consecutive moves with one mask and shift."""
        s = self.shift
        key = (id(self.table), id(table), s)
        moves = _MOVE_CACHE.get(key)
        if moves is None:
            moves = _MOVE_CACHE[key] = _moves(self.table, table, s)
        if not moves:
            terms = self.terms
        elif len(moves) == 1:
            ((mask, up, down),) = moves
            terms = {(k & mask) << up >> down: n for k, n in self.terms.items()}
        else:
            terms = {sum([(k & mask) << up >> down for mask, up, down in moves]): n
                     for k, n in self.terms.items()}
        return Polynomial(table, terms, self.den, s)

    def _widened(self, s: int) -> "Polynomial":
        """This polynomial with fields ``s`` bits wide."""
        if s == self.shift:
            return self
        return Polynomial(self.table, _repacked(self.terms, self.shift, s), self.den, s)

    def compact(self) -> "Polynomial":
        """Rebuild over a table containing only the variables actually used."""
        used = self._used()
        if len(used) == len(self.table):
            return self
        table = VarTable([self.table.names[i] for i in used],
                         [self.table.weights[i] for i in used])
        return self._moved(table)

    def to_table(self, table: VarTable) -> "Polynomial":
        if table is self.table:
            return self
        merged = table.merged(self.table)
        if merged is self.table:
            return self
        return self._moved(merged)

    def _align(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        a, b = self, other
        if a.table is not b.table:
            merged = a.table.merged(b.table)
            a, b = a.to_table(merged), b.to_table(merged)
        if a.shift != b.shift:
            s = max(a.shift, b.shift)
            a, b = a._widened(s), b._widened(s)
        return a, b

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
        if a.den == b.den:
            out, fa, fb = dict(a.terms), 1, 1
        else:
            g = gcd(a.den, b.den)
            fa, fb = b.den // g, a.den // g
            out = dict(a.terms) if fa == 1 else {k: n * fa for k, n in a.terms.items()}
        get = out.get
        for k, n in b.terms.items():
            s = get(k, 0) + n * fb
            if s:
                out[k] = s
            else:
                del out[k]
        return _reduced(a.table, out, a.den * fa, a.shift)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {k: -n for k, n in self.terms.items()}, self.den, self.shift)

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
            p = other.numerator
            terms = {k: n * p for k, n in self.terms.items()}
            return _reduced(self.table, terms, self.den * other.denominator, self.shift)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._factors(other)
        small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
        return a._times(b, [(small.items(), list(big.items()))])

    __rmul__ = __mul__

    def _factors(self, other: "Polynomial", bound: "int | None" = None):
        """Both factors on one table, widened so that no exponent of their
        product reaches a guard bit; ``bound`` caps the total degree of
        the product terms that are kept."""
        a, b = self._align(other)
        s = a.shift
        top = _top(a.terms, s) + _top(b.terms, s)
        s = _fit(s, top if bound is None else min(top, bound))
        return a._widened(s), b._widened(s)

    def _times(self, other: "Polynomial", blocks) -> "Polynomial":
        """The product over the term pairs of ``blocks`` of the two aligned factors."""
        return _reduced(self.table, _product(blocks), self.den * other.den, self.shift)

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
        return a.den == b.den and a.terms == b.terms

    __hash__ = None  # mutable dict inside; equality is structural

    # -- weights and degrees ----------------------------------------------

    def homogeneous_weight(self) -> "int | None":
        """Common weighted degree of all terms, or None if mixed or zero.

        The zero polynomial has every weight; callers distinguish it via
        ``is_zero``.
        """
        s, w = self.shift, self.table.weights
        found = {sum(map(mul, _fields(k, s), w)) for k in self.terms}
        return found.pop() if len(found) == 1 else None

    # -- extraction -------------------------------------------------------

    def coefficients_over(self, names: Iterable[str]) -> dict[tuple[int, ...], "Polynomial"]:
        """Group terms by their exponents in ``names``.

        Keys are exponent tuples aligned with ``names``, e.g. ``(2, 0, 1)``
        for x^2*z over ``("x", "y", "z")``; values are the cofactor
        polynomials in the remaining variables, on this table.
        """
        s = self.shift
        field = (1 << s) - 1
        offsets = [self.table.index_of(n) * s for n in names]
        rest = ~sum(field << o for o in offsets)
        out: dict[tuple, dict] = {}
        for k, c in self.terms.items():
            key = tuple([(k >> o) & field for o in offsets])
            out.setdefault(key, {})[k & rest] = c
        return {key: _reduced(self.table, t, self.den, s) for key, t in out.items()}

    def numerators_over(self, names: Sequence[str]) -> tuple[int, dict[tuple[int, ...], list[int]]]:
        """``(den, groups)``: the terms' integer numerators over their common
        ``den``, grouped by their exponents in ``names`` (0 for a name not in
        the table); :meth:`from_numerators` inverts it over every name."""
        s, m = self.shift, len(self.table) + 1
        at = [self.table._index.get(v, m - 1) for v in names]  # no key has a field m - 1
        get = itemgetter(*at) if len(at) > 1 else lambda f: tuple([f[i] for i in at])
        row = (lambda k: k.to_bytes(m, "little")) if s == 8 else lambda k: _dense(_fields(k, s), m)
        groups: dict = {}
        for k, n in self.terms.items():
            groups.setdefault(get(row(k)), []).append(n)
        return self.den, groups

    def coeffs_in(self, name: str) -> dict[int, "Polynomial"]:
        """View as a univariate polynomial in ``name``: degree -> coefficient."""
        return {k: c for (k,), c in self.coefficients_over((name,)).items()}

    # -- substitution ------------------------------------------------------

    def substitute(self, rules: Mapping[str, "Polynomial | int | Fraction"],
                   max_total_degree: "int | None" = None) -> "Polynomial":
        """Simultaneous substitution; variables without rules pass through.

        The result lives on this table merged with every rule value's table.
        A zero value drops its variable's terms, and a value of one term (a
        constant, a scaled monomial) is applied to each term directly.  The
        other ruled variables present in the input, v1, ..., vk, go through
        one Horner scheme: the terms split into blocks by their exponents of
        v1..vk, and each variable runs one loop from its top exponent present
        down to 0, ``acc = acc * r(vi) + part_e``, each part added into the
        running numerators in place: for the innermost variable vk a part is
        one block, for an outer one the image of its inner group.  Each
        block comes from the input, so a rule value that
        contains ruled variables (a swap, a reflection) is never substituted
        into again.  The innermost variable is the one whose value uses the
        fewest variables, and each further one adds the fewest new ones, so
        the inner results stay small; for the E6 reflection on t1..t6 that is
        t6 outermost.  When no term carries two of v1..vk or one of them
        squared, as in an elimination, the image is ``block_0 + sum block_i *
        r(vi)``: one pair loop sums every block, scaled to the common
        denominator, times its value's terms.

        The scheme runs on integer numerators over a running denominator:
        a step multiplies the numerators of ``acc`` by those of the value
        and the denominators likewise, a block joins over their common
        multiple, and only the result is normalized.  A one-term value's
        denominator d stays an integer too: every block is over the
        product of d ** (the input's top exponent of its variable), and a
        term with a lower exponent is scaled up to it.  Each value is
        grouped by total degree once per call, and the fields widen only
        when a step's exponents could reach a guard bit.

        With ``max_total_degree`` the result is the full result truncated
        to that total degree.  Degrees only add under multiplication, so a
        block multiplied by ``vi^e`` is needed only up to the budget minus
        ``e * low(r(vi))``, the lowest total degree in the value: a Horner
        step forms only the pairs of degree groups of ``acc`` and the value
        whose degrees stay within that budget, and a term whose image
        cannot reach below the budget is dropped before any product is
        formed.  This keeps jet computations polynomial-sized.
        """
        for r in rules.values():
            if not isinstance(r, Polynomial):
                _check_rational(r)
        bound = max_total_degree
        live = {self.table.index_of(n): r if isinstance(r, Polynomial) else self.table.const(r)
                for n, r in rules.items() if n in self.table}
        if not live:
            return self if bound is None else self.truncate(bound)
        table = self.table
        for r in live.values():
            if r.table is not table:
                table = table.merged(r.table)
        # the merged table lists this table's names first, so indices agree;
        # tops[i] bounds the exponents of index i in the input
        tops = _fields(reduce(or_, self.terms, 0), self.shift)
        live = {i: r for i, r in live.items() if i < len(tops) and tops[i]}
        kept = [e for i, e in enumerate(tops) if i not in live]
        # a field of a block key holds an exponent kept from the input plus
        # what the one-term values bring; widen so that it stays clear of
        # the guard bit
        top = max(kept, default=0) + sum(
            tops[i] * _top(r.terms, r.shift) for i, r in live.items() if len(r.terms) == 1)
        s = _fit(max([self.shift] + [r.shift for r in live.values()]), top)
        field = (1 << s) - 1
        horner: dict[int, Polynomial] = {}
        # each nonzero one-term value: its field's offset, key, numerator and
        # denominator
        ruled: list[tuple[int, int, int, int]] = []
        dead = 0  # the fields of the variables whose value is zero
        for i, r in live.items():
            if r.table is not table or r.shift != s:
                r = r.to_table(table)._widened(s)
            if len(r.terms) > 1:
                horner[i] = r
            elif r.terms:
                ((k, n),) = r.terms.items()
                ruled.append((i * s, k, n, r.den))
            else:
                dead |= field << i * s
        own = self._widened(s).terms
        if bound is not None:
            # the field sum of a block key: the input's kept exponents plus what
            # each one-term value brings at the input's top exponent of its variable
            degree = _reader(sum(kept) + sum(tops[o // s] * _degree(k, s) for o, k, *_ in ruled), s)
        if dead:
            own = {k: n for k, n in own.items() if not k & dead}
        values = [_HornerValue(i * s, r, bound is not None) for i, r in horner.items()]
        hmask = sum(field << v.offset for v in values)
        keep = ~(hmask | sum(field << o for o, *_ in ruled))
        costs: dict[int, int] = {}  # Horner part of a key -> its image's least degree
        # every block's numerators are over this, times the input's denominator:
        # each one-term value's denominator to the input's top exponent of its variable
        one_den = reduce(mul, [rd ** tops[o // s] for o, *_, rd in ruled], 1)

        # split the terms by their exponents of the Horner variables; the
        # rest of each term, with the one-term values applied, forms the block
        blocks: dict[int, dict] = {}
        for k, c in own.items():
            rest = k & keep
            if ruled:
                q = 1
                for o, rk, rn, rd in ruled:
                    e = k >> o & field
                    if e:
                        rest += rk * e
                        c *= rn ** e
                        q *= rd ** e
                if q != one_den:
                    c *= one_den // q
            h = k & hmask
            if bound is not None:
                cost = costs.get(h)
                if cost is None:
                    cost = costs[h] = sum((h >> v.offset & field) * v.low for v in values)
                if degree(rest) + cost > bound:
                    continue
            block = blocks.setdefault(h, {})
            block[rest] = block.get(rest, 0) + c if ruled else c  # only a one-term value merges terms
        if not blocks:
            return Polynomial(table, {})
        one_den *= self.den

        # a Horner part 0, or one Horner variable to the first power: the bit
        # at the start of its field (2 << offset is a power of two as well)
        units = {1 << v.offset: v for v in values}
        units[0] = None
        if values and blocks.keys() <= units.keys():
            # affine in the Horner variables: one sum of products, each block
            # over the common denominator paired with its value's terms
            common = lcm(*[units[h].den for h in blocks if h])
            w = s
            for h, block in blocks.items():
                if h:
                    top = _top(block, s) + units[h].top
                    w = max(w, _fit(s, top if bound is None else min(top, bound)))
            pairs = []
            for h, block in blocks.items():
                v = units[h]
                f = common // v.den if v else common
                if f != 1:
                    block = {k: n * f for k, n in block.items()}
                if w != s:
                    block = _repacked(block, s, w)
                pairs += v.times(block, w, bound, bound)[0] if v else [([(0, 1)], block.items())]
            return _reduced(table, _product(pairs), one_den * common, w)
        if ruled:  # the merged terms' sums that cancelled drop out
            blocks = {h: {k: n for k, n in block.items() if n} for h, block in blocks.items()}
        if not values:  # one-term values only: the one block is the image
            return _reduced(table, blocks[0], one_den, s)
        if len(values) > 1:
            # innermost first, each time the value that brings the fewest new
            # variables into the inner results: they stay over fewer variables
            uses = {v: set(horner[v.offset // s]._used()) for v in values}
            order, seen = [], set()
            while uses:
                v = min(uses, key=lambda v: (len(uses[v] - seen), v.offset))
                seen |= uses.pop(v)
                order.append(v)
            values = order[::-1]

        def combine(group: dict, level: int, budget: "int | None") -> tuple[dict, int, int]:
            """The group's image: its numerators, their denominator and field width."""
            v = values[level]
            inner = level + 1 == len(values)
            # the parts by exponent of v: at the innermost level one block
            # each, over one_den, else the group that the next level images
            parts: dict = {}
            for h, block in group.items():
                if inner:
                    parts[h >> v.offset & field] = block, one_den, s
                else:
                    parts.setdefault(h >> v.offset & field, {})[h] = block
            # from the top exponent present down to 0, each part is added
            # into the running numerators in place
            top = max(parts)
            acc, den, w = parts[top] if inner else combine(
                parts[top], level + 1, None if budget is None else budget - top * v.low)
            for e in range(top - 1, -1, -1):
                cap = None if budget is None else budget - e * v.low
                part = parts.get(e)
                if part is not None:
                    terms, d, wp = part if inner else combine(part, level + 1, cap)
                    if terms:
                        # scale acc first, so that the product's den is a multiple of d
                        f = d // gcd(den * v.den, d)
                        if f != 1:
                            acc, den = {k: n * f for k, n in acc.items()}, den * f
                pairs, w = v.times(acc, w, cap, bound)
                acc = _product(pairs)
                den *= v.den
                if part is not None:
                    if w < wp:
                        acc, w = _repacked(acc, w, wp), wp
                    elif wp < w:
                        terms = _repacked(terms, wp, w)
                    _add_into(acc, terms, den // d)
            return acc, den, w

        return _reduced(table, *combine(blocks, 0, bound))

    def _of_degree(self, low: int, high: int) -> "Polynomial":
        """The terms of total degree from ``low`` to ``high``."""
        degree = _degrees(self.terms, self.shift)
        return _reduced(self.table,
                        {k: n for k, n in self.terms.items() if low <= degree(k) <= high},
                        self.den, self.shift)

    def truncate(self, bound: int) -> "Polynomial":
        """The terms of total degree at most ``bound``."""
        return self._of_degree(0, bound)

    def degree_part(self, d: int) -> "Polynomial":
        """The terms of total degree exactly ``d``."""
        return self._of_degree(d, d)

    def mul_truncated(self, other: "Polynomial", bound: int) -> "Polynomial":
        """Product with every monomial of total degree above ``bound`` dropped.

        Both factors are grouped by total degree once, and a pair of groups
        whose degrees sum past ``bound`` is skipped before any of its terms
        is formed, which is what makes jet arithmetic cheap.
        """
        a, b = self._factors(other, max(bound, 0))
        s = a.shift
        ga, gb = (_grouped(p.terms, _degrees(p.terms, s)) for p in (a, b))
        return a._times(b, _within(ga, gb, bound))

    def image_coefficients(self, rules: Mapping[str, "Polynomial"], names: Sequence[str],
                           monos: Sequence[Mapping[str, int]]) -> list["Polynomial"]:
        """The coefficient over ``names`` of each of ``monos`` in
        ``self.substitute(rules)``, as :meth:`coefficients_over` gives it
        (zero for a monomial off ``names``), with the image never formed.

        A cell is a term's exponents in ``names``; cells add under
        multiplication.  The image sums cofactors times products of rule
        values, each a smaller product times one value, so a product is
        needed only at a monomial less a cell of its cofactor, the smaller
        one only at those cells less a cell of the value.  A product is kept
        as cell -> terms over one unnormalized denominator, formed only where
        needed; a pair of cells of a cofactor and its product that reaches a
        monomial goes straight into its sum, over one common denominator.
        Keys are packed once, wide enough for each value's top exponent
        times its top exponent here plus those here of the other variables.
        """
        live = {self.table.index_of(v): r for v, r in rules.items() if v in self.table}
        table = reduce(VarTable.merged, (r.table for r in live.values()), self.table)
        tops = _fields(reduce(or_, self.terms, 0), self.shift)
        live = {i: r for i, r in live.items() if i < len(tops) and tops[i]}
        top = max([e for i, e in enumerate(tops) if i not in live], default=0) + sum(
            tops[i] * _top(r.terms, r.shift) for i, r in live.items())
        s = _fit(max([self.shift] + [r.shift for r in live.values()]), top)
        field, half = (1 << s) - 1, 1 << s - 1
        at = {v: table.index_of(v) * s for v in names}
        cell, guard = sum(field << o for o in at.values()), sum(half << o for o in at.values())
        values = {i * s: _grouped(r.to_table(table)._widened(s).terms, cell.__and__)
                  for i, r in live.items()}
        ruled = sum(field << o for o in values)
        # each ruled part of the terms -> its cofactor, by cell
        groups = {h: _grouped({k - h: n for k, n in t}, cell.__and__)
                  for h, t in _grouped(self._widened(s).terms, ruled.__and__).items()}
        # a monomial with an exponent no field holds is never reached
        targets = [sum(e << at[v] for v, e in m.items())
                   if m.keys() <= at.keys() and all(0 <= e < half for e in m.values()) else None
                   for m in monos]
        sums: dict = {t: [] for t in targets if t is not None}

        def less(need, cells) -> set:
            # n - c borrows the guard bit of a field where c exceeds n
            return {n - c for n in need for c in cells if (n | guard) - c & guard == guard}

        need = {h: less(sums, g) for h, g in groups.items()}
        steps = {}  # a product's ruled part -> (the offset of its last value, the part it extends)
        # every consumer of a product has a higher total degree than it
        degree = _reader(sum(tops[i] for i in live), s)
        for d in range(max(map(degree, need), default=0), 0, -1):
            for h in [h for h in need if degree(h) == d]:
                o = max(o for o in values if h >> o & field)
                steps[h] = o, h - (1 << o)
                need.setdefault(steps[h][1], set()).update(less(need[h], values[o]))
        products, dens = {0: {0: {0: 1}.items()}}, {0: 1}
        for h, (o, low) in reversed(steps.items()):
            blocks = _routed(products[low], values[o], {c: [] for c in need[h]})
            products[h] = {c: _product(b).items() for c, b in blocks.items()}
            dens[h] = dens[low] * live[o // s].den
        common = lcm(*(dens[h] for h in groups))
        for h, cofactor in groups.items():
            f = common // dens[h]
            _routed({c: [(k, n * f) for k, n in t] for c, t in cofactor.items()}, products[h], sums)
        found = {t: _product(b) for t, b in sums.items()}
        return [_reduced(table, {k - t: n for k, n in found[t].items()}, self.den * common, s)
                if t is not None and found[t] else table.zero() for t in targets]

    def derivative_along(self, direction: Mapping[str, int]) -> "Polynomial":
        """``sum c_v * d/dv`` of this polynomial over ``direction``, whose
        entries are ints, in one pass over the terms."""
        if not all(type(c) is int for c in direction.values()):
            raise TypeError(f"direction {direction!r} has an entry that is not an int")
        s, index = self.shift, self.table._index
        steps = [(index[v] * s, 1 << index[v] * s, c) for v, c in direction.items() if c]
        mask = (1 << s) - 1
        out: dict = {}
        get = out.get
        for k, n in self.terms.items():
            for offset, unit, a in steps:
                e = (k >> offset) & mask
                if e:
                    key = k - unit
                    out[key] = get(key, 0) + n * a * e
        return _reduced(self.table, {k: n for k, n in out.items() if n}, self.den, s)

    # -- solving -----------------------------------------------------------

    def solve_linear(self, name: str) -> "Polynomial":
        """Solve ``self == 0`` for ``name``.

        Requires self = c*name + r with c a nonzero rational constant and r
        free of the variable; returns -r/c.
        """
        s = self.shift
        offset = self.table.index_of(name) * s
        field, unit = ((1 << s) - 1) << offset, 1 << offset
        c = None
        rest: dict = {}
        for k, n in self.terms.items():
            if not k & field:
                rest[k] = n
            elif k != unit:
                raise NonLinearError(
                    f"{name} appears with exponent >= 2 or a non-constant coefficient"
                )
            else:
                c = n
        if c is None:
            raise AbsentVariableError(f"{name} does not appear in the expression")
        # (r/den) / (c/den) = r/c
        sign = -1 if c > 0 else 1
        return _reduced(self.table, {k: sign * n for k, n in rest.items()}, abs(c), s)

    # -- ordering and serialization -----------------------------------------

    def _sorted(self) -> list[tuple[int, "bytes | list[int]", int]]:
        """``(weight, fields, numerator)`` per term, in descending graded-lex
        order: fields compare from index 0 like exponent tuples, a shorter
        run of fields reading as zero-padded."""
        s, w = self.shift, self.table.weights
        ranked = []
        for k, n in self.terms.items():
            f = _fields(k, s)
            ranked.append((sum(map(mul, f, w)), f, n))
        return sorted(ranked, reverse=True)

    def serialize(self) -> str:
        if not self.terms:
            return "0"
        names, d = self.table.names, self.den
        parts = []
        for _, f, n in self._sorted():
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in compress(enumerate(f), f)]
            if not factors or abs(n) != d:
                factors.insert(0, _coeff_str(abs(n), d))
            body = "*".join(factors)
            if parts:
                parts.append(f"{' - ' if n < 0 else ' + '}{body}")
            else:
                parts.append(f"-{body}" if n < 0 else body)
        return "".join(parts)

    def __repr__(self) -> str:
        s = self.serialize()
        return s if len(s) <= 120 else f"<Polynomial with {len(self.terms)} terms>"

    def to_json(self) -> dict:
        names, d = self.table.names, self.den
        return {
            "vars": list(names),
            "weights": list(self.table.weights),
            "terms": [
                {"m": {names[i]: e for i, e in compress(enumerate(f), f)},
                 "c": _coeff_str(n, d)}
                for _, f, n in self._sorted()
            ],
        }

    def to_rows(self) -> tuple[int, int, list[int]]:
        """The private store as JSON integers: ``(den, shift, [k1, n1, k2, n2, ...])``,
        each packed key ``k`` followed by its numerator, keys ascending."""
        return self.den, self.shift, [x for term in sorted(self.terms.items()) for x in term]

    @staticmethod
    def from_rows(table: VarTable, den: int, shift: int, flat: list) -> "Polynomial":
        """The polynomial on ``table`` that :meth:`to_rows` gave.  Raises
        ``ValueError`` unless the rows are a canonical store on ``table``."""
        keys, nums = flat[::2], flat[1::2]
        if not (all(type(x) is int for x in (den, shift, *flat)) and den >= 1
                and shift >= _S and not shift & (shift - 1) and min(keys, default=0) >= 0):
            raise ValueError("not a polynomial store")
        # the guard bits of the fields below the top key's bit length
        top = max(keys, default=0).bit_length()
        guards = _pack(((i, 1 << shift - 1) for i in range(top // shift)), shift)
        terms = dict(zip(keys, nums))
        # each key distinct and with its numerator, no field past the table
        if (2 * len(terms) != len(flat) or top > len(table) * shift
                or any(k & guards for k in keys) or not all(nums) or gcd(den, *nums) != 1):
            raise ValueError("not a canonical polynomial store")
        return Polynomial(table, terms, den, shift)


def _summed(table: VarTable, terms: Iterable[tuple[int, "int | Fraction"]], s: int) -> Polynomial:
    """The sum of ``c`` times the monomial of key ``k`` over ``(k, c)`` in ``terms``."""
    coeffs: dict = {}
    for k, c in terms:
        coeffs[k] = coeffs.get(k, 0) + c
    return _reduced(table, *_over_common(coeffs), s)


# -- parsing ----------------------------------------------------------------

def _read_serialized(text: str, table: VarTable) -> "Polynomial | None":
    """``text`` read with string splits in the one layout :meth:`Polynomial.serialize`
    writes, or None at the first piece outside it.

    The layout: terms joined by ' + ' and ' - ', a '-' before the first term
    only, each term a '*'-joined list of coefficients p or p/q (decimal, q
    not 0) and of variables name or name^e (an ASCII identifier of the table,
    a decimal exponent), each variable at most once.
    Each distinct factor is read once, and each key packed once, at the width
    :func:`_width_for` gives the exponents.
    """
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    rows = []
    for chunk in body[sign < 0:].split(" + "):
        first, *rest = chunk.split(" - ")
        rows.append((sign, first.split("*")))
        rows += [(-1, piece.split("*")) for piece in rest]
        sign = 1
    index, numbers, powers = table._index, {}, {}
    try:
        for f in set(chain.from_iterable([factors for _, factors in rows])):
            p, slash, q = f.partition("/")
            name, hat, e = f.partition("^")
            if p.isdecimal() and (not slash or q.isdecimal() and int(q)):
                numbers[f] = int(p), int(q) if slash else 1
            elif (name in index and name.isascii() and name.isidentifier()
                  and (not hat or e.isdecimal())):
                powers[f] = index[name], int(e) if hat else 1
            else:
                return None
    except ValueError:  # a digit run past int's limit: the walk raises it
        return None
    s = _fit(_S, max([e for _, e in powers.values()], default=0))
    # each variable factor as the mask of its field and its key
    powers = {f: (((1 << s) - 1) << i * s, e << i * s) for f, (i, e) in powers.items()}
    terms = []
    for num, factors in rows:
        den, k = 1, 0
        for f in factors:
            power = powers.get(f)
            if power is None:
                n, d = numbers[f]
                num *= n
                den *= d
            elif k & power[0]:  # a variable the term already raised to a power
                return None
            else:
                k += power[1]
        terms.append((k, num if den == 1 else Fraction(num, den)))
    return _summed(table, terms, s)


# the grammar walk's factor: a coefficient p or p/q, or a variable name or name^e
_FACTOR_TEXT = r"(\d+)(?:\s*/\s*(\d+))?|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+))?"
#: a term, optionally signed (group 1), its '*'-joined factors (group 2)
_TERM = re.compile(rf"\s*([-+]?)\s*((?:{_FACTOR_TEXT})(?:\s*\*\s*(?:{_FACTOR_TEXT}))*)")
#: one factor of a term, with the '*' before it
_FACTOR = re.compile(rf"\s*\*?\s*(?:{_FACTOR_TEXT})")


def _syntax_error(text: str, pos: int, first: bool) -> ParseError:
    """The error for ``text[pos:]``, which does not start with a term
    (after the first term, with a signed one)."""
    rest = text[pos:].lstrip()
    expected = "a coefficient or variable" if first else "'+' or '-'"
    if rest[:1] in ("+", "-"):
        rest, expected = rest[1:].lstrip(), "a coefficient or variable"
    got = repr(rest[0]) if rest else "end of input"
    return ParseError(f"expected {expected}, got {got}", len(text) - len(rest))


def _walk(text: str, table: VarTable) -> Polynomial:
    """``text`` read term by term with the grammar of :func:`parse`."""
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty input", 0)
    index = table._index
    terms: list[tuple[dict, "int | Fraction"]] = []
    pos = 0
    while pos < end:
        m = _TERM.match(text, pos, end)
        if m is None or (terms and not m[1]):
            raise _syntax_error(text, pos, not terms)
        num, den = -1 if m[1] == "-" else 1, 1
        mono: dict[int, int] = {}
        for f in _FACTOR.finditer(text, m.start(2), m.end()):
            p, q, name, e = f.groups()
            if name is None:
                num *= int(p)
                if q is not None:
                    den *= int(q)
                    if not den:
                        raise ParseError("zero denominator", f.start(2))
                continue
            i = index.get(name)
            if i is None:
                raise ParseError(f"unknown variable {name!r}", f.start(3))
            mono[i] = mono.get(i, 0) + (1 if e is None else int(e))
        terms.append((mono, num if den == 1 else Fraction(num, den)))
        pos = m.end()
    s = _width_for([e for m, _ in terms for e in m.values()])
    return _summed(table, ((_pack(m.items(), s), c) for m, c in terms), s)


def parse(text: str, table: VarTable) -> Polynomial:
    """Parse the canonical text format back into a polynomial.

    Grammar: signed terms joined by + / -, each term a '*'-separated list
    of an optional rational coefficient p or p/q and variable powers
    name or name^e, with whitespace allowed between any two of these.
    Round-trips with :meth:`Polynomial.serialize`.  Text in the layout
    ``serialize`` writes is read with string splits; any other spelling
    goes through the grammar walk, which alone raises ``ParseError``, with
    the position of the first piece outside the grammar.
    """
    p = _read_serialized(text, table)
    return _walk(text, table) if p is None else p


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


def _whole(c):
    """``c`` as an int when integral; a Fraction otherwise."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class LinearSystem:
    """Sparse rational Gauss-Jordan elimination, one row at a time.

    A row is a mapping unknown -> coefficient, read as sum c*u == rhs;
    unknowns are any mutually orderable keys.  Pivot rows are kept fully
    reduced: each is stored without its pivot and mentions no other pivot.
    Integral entries stay ``int``; a row becomes fractional only when it is
    divided by a pivot coefficient other than 1.  An occurrence index maps
    each unknown to the pivots whose rows mention it, so a new pivot
    rewrites only those rows.
    """

    def __init__(self):
        self._pivots: dict = {}
        self._uses: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, row: Mapping, rhs=0) -> bool:
        """Insert one equation; True when it was independent of the earlier ones.

        Raises :class:`InconsistentSystemError` when it contradicts them.
        """
        pivots, uses = self._pivots, self._uses
        row = {u: c if type(c) is int else _whole(Fraction(c)) for u, c in row.items() if c}
        rhs = rhs if type(rhs) is int else _whole(Fraction(rhs))
        # pivot rows mention no pivot, so one pass over the original support
        # clears every pivot from the row
        for u in [u for u in row if u in pivots]:
            factor = row.pop(u)
            prow, prhs = pivots[u]
            for v, c in prow.items():
                s = row.get(v, 0) - factor * c
                if s:
                    row[v] = _whole(s)
                else:
                    del row[v]
            rhs = _whole(rhs - factor * prhs)
        if not row:
            if rhs:
                raise InconsistentSystemError("inconsistent linear system")
            return False
        pv = min(row)
        p = row.pop(pv)
        if p != 1:
            row = {v: _whole(Fraction(c, p)) for v, c in row.items()}
            rhs = _whole(Fraction(rhs, p))
        for u in uses.pop(pv, ()):
            prow, prhs = pivots[u]
            f = prow.pop(pv)
            for v, c in row.items():
                s = prow.get(v, 0) - f * c
                if s:
                    if v not in prow:
                        uses.setdefault(v, set()).add(u)
                    prow[v] = _whole(s)
                else:
                    del prow[v]
                    uses[v].discard(u)
                    if not uses[v]:
                        del uses[v]
            pivots[u] = (prow, _whole(prhs - f * rhs))
        for v in row:
            uses.setdefault(v, set()).add(pv)
        pivots[pv] = (row, rhs)
        return True

    def solution(self) -> dict:
        """Values of the pivot unknowns, as Fractions, with every free unknown set to zero."""
        return {u: Fraction(rhs) for u, (_, rhs) in self._pivots.items()}
