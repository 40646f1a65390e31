"""Substitution rule sets and the solve-list elimination engine.

A :class:`RuleSet` is an ordered collection of rules ``variable -> value``
applied simultaneously.  A :class:`SolveList` packages a rule set, a
template polynomial and an ordered list of (monomial, unknown) pairs; it
determines further rules lazily: substitute the base rules into the
template, then walk the pairs in order, each time reading off the
coefficient of the monomial, solving it for the unknown (which must occur
linearly with a nonzero rational constant coefficient) and eliminating
that unknown from the remaining coefficients.

The substituted template is never built whole.  Its coefficients are
computed in (Q[parameters, unknowns])[monomial variables] modulo the
monomial ideal spanned by everything that divides none of the pairs'
monomials: exponents only grow under multiplication, so such a term
never reaches a pair's monomial, and dropping it (before or after any
product) changes no coefficient that is read.  Typically this keeps a
tenth of the image or less.

Expanded rule sets can be persisted in a content-addressed cache keyed by
a hash of (base, template, pairs, extraction variables, expansion
version), so repeated runs of the heavy eliminations are free.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .poly import (
    AbsentVariableError,
    Mono,
    NonLinearError,
    Polynomial,
    PolyError,
    VarTable,
    _mono_mul,
    parse,
)


class ValidityViolation(Exception):
    """A solve-list pair failed the linearity or ordering condition."""

    def __init__(self, index: int, variable: str, reason: str):
        super().__init__(f"pair {index} ({variable}): {reason}")
        self.index = index
        self.variable = variable
        self.reason = reason


@dataclass(frozen=True)
class RuleSet:
    """Ordered substitution rules; no variable is defined twice."""

    rules: tuple[tuple[str, Polynomial], ...]

    def __post_init__(self):
        names = [v for v, _ in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"variable defined twice in rule set: {names}")

    @staticmethod
    def of(items: "Mapping[str, Polynomial] | Iterable[tuple[str, Polynomial]]") -> "RuleSet":
        if isinstance(items, Mapping):
            items = items.items()
        return RuleSet(tuple(items))

    @staticmethod
    def identity() -> "RuleSet":
        return RuleSet(())

    @cached_property
    def _by_name(self) -> dict[str, Polynomial]:
        # built once; never handed out, so no caller can mutate it
        return dict(self.rules)

    def mapping(self) -> dict[str, Polynomial]:
        return dict(self._by_name)

    def domain(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, name: str) -> Polynomial:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def apply(self, p: Polynomial) -> Polynomial:
        return p.substitute(self._by_name)

    def compose(self, inner: "RuleSet") -> "RuleSet":
        """Rules whose application equals: apply ``inner``, then ``self``."""
        m = self._by_name
        out: list[tuple[str, Polynomial]] = []
        seen = set()
        for v, p in inner.rules:
            out.append((v, p.substitute(m)))
            seen.add(v)
        for v, p in self.rules:
            if v not in seen:
                out.append((v, p))
        return RuleSet(tuple(out))

    def restricted(self, names: Iterable[str]) -> "RuleSet":
        names = set(names)
        return RuleSet(tuple((v, p) for v, p in self.rules if v in names))

    def to_json(self) -> dict:
        tables: list[VarTable] = []
        for _, p in self.rules:
            if p.table not in tables:
                tables.append(p.table)
        table = tables[0] if tables else VarTable((), ())
        for t in tables[1:]:
            table = table.merged(t)
        return {
            "format": "rdpinv-rules-v1",
            "vars": list(table.names),
            "weights": list(table.weights),
            "rules": [[v, p.to_table(table).serialize()] for v, p in self.rules],
        }

    @staticmethod
    def from_json(data: dict) -> "RuleSet":
        table = VarTable(data["vars"], data["weights"])
        return RuleSet(tuple((v, parse(text, table)) for v, text in data["rules"]))

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True).encode()

    def content_key(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def compose(outer: RuleSet, inner: RuleSet) -> RuleSet:
    return outer.compose(inner)


# Part of every solve-list cache key.  Bump it whenever a change to the
# expansion could give different rules for the same solve list (the order
# of solving, the clean-up of late pairs, the rule format), so that entries
# written by older code are never read.  A change that only computes the
# same rules faster, such as the divisor truncation, keeps it.
EXPANSION_VERSION = 1

MonoSpec = tuple[tuple[str, int], ...]


def _mono_spec(mono: "Mapping[str, int] | MonoSpec") -> MonoSpec:
    if isinstance(mono, Mapping):
        return tuple(sorted((v, int(e)) for v, e in mono.items() if e))
    return tuple(sorted((v, int(e)) for v, e in mono if e))


def _divisors(mono: Mono) -> list[Mono]:
    out: list[Mono] = [()]
    for i, e in mono:
        out = [d + ((i, k),) if k else d for d in out for k in range(e + 1)]
    return out


Cells = dict[Mono, Polynomial]  # monomial-variable part -> cofactor


def _add_product(acc: Cells, a: Cells, b: Cells, keep: set[Mono]) -> None:
    """Add to ``acc`` the cells of a*b whose key is in ``keep``."""
    for ka, pa in a.items():
        for kb, pb in b.items():
            k = _mono_mul(ka, kb)
            if k in keep:
                prod = pa * pb
                acc[k] = acc[k] + prod if k in acc else prod


@dataclass(frozen=True)
class SolveList:
    """Base rules + template + ordered (monomial, unknown) pairs."""

    base: RuleSet
    template: Polynomial
    pairs: tuple[tuple[MonoSpec, str], ...]
    monomial_vars: tuple[str, ...]

    @staticmethod
    def of(base, template, pairs, monomial_vars) -> "SolveList":
        pairs = tuple((_mono_spec(m), v) for m, v in pairs)
        return SolveList(base, template, pairs, tuple(monomial_vars))

    def unknowns(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.pairs)

    def pull_back(self, param: RuleSet) -> "SolveList":
        """Rewrite base and template by ``param`` (typically rules on the
        coefficient parameters), leaving the pair structure alone."""
        m = param.mapping()
        base = RuleSet(tuple((v, p.substitute(m)) for v, p in self.base.rules))
        return SolveList(base, self.template.substitute(m), self.pairs, self.monomial_vars)

    def coefficient_equations(self) -> list[Polynomial]:
        """The raw coefficients c_i before any unknown is eliminated.

        c_i is the coefficient of the i-th pair's monomial in
        ``base.apply(template)`` viewed over the monomial variables.  Only
        the terms that can reach one of these monomials are formed:
        exponents only grow under multiplication, so a term whose
        monomial-variable part divides no target contributes nothing to
        any c_i, and neither does any product containing it.  Working
        modulo the ideal of non-divisors is exact, and the result equals
        reading the coefficients off the whole image.
        """
        template = self.template
        live = [(v, p) for v, p in self.base.rules if v in template.table]
        # the table of the whole image, so every c_i is over the same one
        table = template.table
        for _, p in live:
            table = table.merged(p.table)
        # a monomial off the monomial variables is never reached
        targets = [tuple(sorted((table.index_of(v), e) for v, e in mono))
                   if all(v in self.monomial_vars for v, _ in mono) else None
                   for mono, _ in self.pairs]
        keep = set().union(*(_divisors(t) for t in targets if t is not None))

        def cells(p: Polynomial) -> Cells:
            split = p.to_table(table).coefficients_over(self.monomial_vars)
            return {k: c for k, c in split.items() if k in keep}

        def times(a: Cells, b: Cells) -> Cells:
            acc: Cells = {}
            _add_product(acc, a, b, keep)
            return {k: c for k, c in acc.items() if c}

        ruled = {table.index_of(v): cells(p) for v, p in live}
        products: dict[Mono, Cells] = {(): {(): table.const(1)}}

        def product(key: Mono) -> Cells:
            """The product of rule values whose exponents ``key`` lists."""
            got = products.get(key)
            if got is None:
                i, e = key[-1]
                got = times(product(key[:-1] + (((i, e - 1),) if e > 1 else ())), ruled[i])
                products[key] = got
            return got

        wanted = {t for t in targets if t is not None}
        found: Cells = {}
        groups = template.to_table(table).coefficients_over(table.names[i] for i in ruled)
        for key, cofactor in groups.items():
            _add_product(found, cells(cofactor), product(key), wanted)
        zero = table.zero()
        return [found.get(t, zero) for t in targets]

    def expand(self, upto: Optional[int] = None) -> RuleSet:
        """Solve the pairs in order, eliminating each unknown as found.

        ``upto`` solves only the first ``upto`` pairs (partial expansion).
        Raises :class:`ValidityViolation` naming the first offending pair.
        """
        coeffs = self.coefficient_equations()
        pairs = self.pairs if upto is None else self.pairs[:upto]
        coeffs = coeffs[: len(pairs)]
        solved: list[tuple[str, Polynomial]] = []
        for i, (mono, var) in enumerate(pairs):
            ci = coeffs[i]
            try:
                value = ci.solve_linear(var)
            except (NonLinearError, AbsentVariableError) as exc:
                raise ValidityViolation(i, var, str(exc)) from exc
            for w, wval in solved:
                if wval.contains_var(var):
                    raise ValidityViolation(
                        i, var, f"already occurs in the coefficient solved for {w}"
                    )
            solved.append((var, value))
            sub = {var: value}
            for j in range(i + 1, len(coeffs)):
                if coeffs[j].contains_var(var):
                    coeffs[j] = coeffs[j].substitute(sub)
        # late pairs may appear in earlier solutions; clean in reverse order
        for i in range(len(solved) - 2, -1, -1):
            var, value = solved[i]
            later = {w: wval for w, wval in solved[i + 1:] if value.contains_var(w)}
            if later:
                solved[i] = (var, value.substitute(later))
        return RuleSet(tuple(solved))

    def to_json(self) -> dict:
        return {
            "format": "rdpinv-solvelist-v1",
            "base": self.base.to_json(),
            "template": self.template.to_json(),
            "pairs": [[list(map(list, m)), v] for m, v in self.pairs],
            "monomial_vars": list(self.monomial_vars),
        }

    def content_key(self, upto: Optional[int] = None) -> str:
        payload = (json.dumps(self.to_json(), sort_keys=True)
                   + f"|upto={upto}|expansion={EXPANSION_VERSION}")
        return hashlib.sha256(payload.encode()).hexdigest()


# -- cache --------------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get("CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rdpinv"


class RuleCache:
    """File-backed store of expanded rule sets, keyed by content hash."""

    def __init__(self, directory: "Path | str | None" = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self._memory: dict[str, RuleSet] = {}

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[RuleSet]:
        """The stored rules, or None when the entry is absent or unreadable."""
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        path = self.path_for(key)
        # a missing entry is a quiet miss; a truncated, garbled or foreign
        # one is a miss with a warning: expand() recomputes it and put()
        # overwrites the file
        try:
            data = json.loads(path.read_text())
            if data.get("key") != key:
                print(f"warning: rule cache entry {path} carries another key; recomputing",
                      file=sys.stderr)
                return None
            rules = RuleSet.from_json(data["rules"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, LookupError, TypeError, AttributeError, PolyError) as exc:
            print(f"warning: rule cache entry {path} is unreadable ({type(exc).__name__});"
                  " recomputing", file=sys.stderr)
            return None
        self._memory[key] = rules
        return rules

    def put(self, key: str, rules: RuleSet) -> None:
        self._memory[key] = rules
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {"format": "rdpinv-cache-v1", "key": key, "rules": rules.to_json()}
        # a private temp file per writer, so concurrent writers of one key
        # each publish a whole entry with one atomic rename
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self.path_for(key))
        except BaseException:
            os.unlink(tmp)
            raise

    def expand(self, sl: SolveList, upto: Optional[int] = None) -> RuleSet:
        key = sl.content_key(upto=upto)
        hit = self.get(key)
        if hit is not None:
            return hit
        rules = sl.expand(upto=upto)
        self.put(key, rules)
        return rules
