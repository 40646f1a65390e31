"""Substitution rule sets and the solve-list elimination engine.

A :class:`RuleSet` is an ordered collection of rules ``variable -> value``
applied simultaneously.  A :class:`SolveList` packages a rule set, a
template polynomial and an ordered list of (monomial, unknown) pairs; it
determines further rules lazily: read each pair's monomial's coefficient
off the substituted template, then solve them in order, each for its
unknown (which must occur linearly with a nonzero rational constant
coefficient) once the earlier solutions are substituted into it.  That
ordered elimination, :func:`solve_in_order`, is the one exact triangular
solver: it also inverts the change of generators and solves the
restricted polynomials.

The substituted template is never built whole: the kernel's
:meth:`Polynomial.image_coefficients` sums only the terms that reach a
pair's monomial, for the plain E8 versal stage 4,871 of its 9,641.  The
bar and versal equations hold each earlier unknown to the first power and
never two in one term, so :meth:`Polynomial.substitute` puts the earlier
solutions into them in one pair loop (a few psi equations and key-case
restrictions hold a square or a product and take its Horner scheme).

Expanded rule sets can be persisted in a cache keyed by a hash of
(base, template, pairs, extraction variables, expansion version), or by
a caller's hash of a recipe that determines them, so repeated runs of
the heavy eliminations are free; so are their pull-backs through a
parameter.  An entry holds the rules in the kernel's own form, read
back without the text parser once checked to be a canonical store.
Entries live in ``<cache>/rdpinv-cache-v2/``; files of older formats sit
outside it and are never read.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from functools import cached_property, reduce
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ._record import Record
from .poly import (
    AbsentVariableError,
    NonLinearError,
    Polynomial,
    PolyError,
    VarTable,
)


class ValidityViolation(Exception):
    """An equation of :func:`solve_in_order`, such as a solve-list pair's
    coefficient, failed the linearity or ordering condition."""

    def __init__(self, index: int, variable: str, reason: str):
        super().__init__(f"pair {index} ({variable}): {reason}")
        self.index = index
        self.variable = variable
        self.reason = reason


class RuleSet(Record):
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

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, name: str) -> Polynomial:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def apply(self, p: Polynomial) -> Polynomial:
        return p.substitute(self._by_name)

    @cached_property
    def _table(self) -> VarTable:
        """The merged table of the rule values, in order of first use."""
        return reduce(VarTable.merged, (p.table for _, p in self.rules), VarTable((), ()))

    def to_json(self) -> dict:
        table = self._table
        return {
            "format": "rdpinv-rules-v1",
            "vars": list(table.names),
            "weights": list(table.weights),
            "rules": [[v, p.to_table(table).serialize()] for v, p in self.rules],
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True).encode()


def solve_in_order(equations: Sequence[Polynomial], unknowns: Sequence[str]) -> RuleSet:
    """Solve equation i for unknown i, in order, after substituting into it
    at once every earlier solution it mentions.

    Each unknown must occur linearly with a nonzero rational constant
    coefficient and in no earlier solution.  Raises
    :class:`ValidityViolation` naming the first offending equation.  No
    solution then mentions a solved unknown, so substituting them at once
    equals substituting each in turn into every later equation.
    """
    solved: list[tuple[str, Polynomial]] = []
    mentions: list[set[str]] = []  # the variables of each solution
    for i, var in enumerate(unknowns):
        eq = equations[i]
        used = eq.variables()
        eq = eq.substitute({w: wval for w, wval in solved if w in used})
        try:
            value = eq.solve_linear(var)
        except (NonLinearError, AbsentVariableError) as exc:
            raise ValidityViolation(i, var, str(exc)) from exc
        for (w, _), names in zip(solved, mentions):
            if var in names:
                raise ValidityViolation(
                    i, var, f"already occurs in the coefficient solved for {w}"
                )
        solved.append((var, value))
        mentions.append(value.variables())
    return RuleSet(tuple(solved))


# Part of every solve-list cache key, and of every key made from a
# recipe.  Bump it whenever a change to the expansion could give different
# rules for the same solve list (the order of solving, the rule format),
# or a change to how the stages combine could give different rules for the
# same recipe (psi_rules, mu_inverse, r_pi, the z = 0 choices in envres),
# so that entries written by older code are never read.  A change that
# only computes the same rules faster, such as forming products only
# where a pair can still read them, keeps it.
EXPANSION_VERSION = 1

MonoSpec = tuple[tuple[str, int], ...]


def _mono_spec(mono: "Mapping[str, int] | MonoSpec") -> MonoSpec:
    if isinstance(mono, Mapping):
        return tuple(sorted((v, int(e)) for v, e in mono.items() if e))
    return tuple(sorted((v, int(e)) for v, e in mono if e))


class SolveList(Record):
    """Base rules + template + ordered (monomial, unknown) pairs."""

    base: RuleSet
    template: Polynomial
    pairs: tuple[tuple[MonoSpec, str], ...]
    monomial_vars: tuple[str, ...]

    @staticmethod
    def of(base, template, pairs, monomial_vars) -> "SolveList":
        pairs = tuple((_mono_spec(m), v) for m, v in pairs)
        return SolveList(base, template, pairs, tuple(monomial_vars))

    def pull_back(self, param: RuleSet) -> "SolveList":
        """Rewrite base and template by ``param`` (typically rules on the
        coefficient parameters), leaving the pair structure alone."""
        m = param.mapping()
        base = RuleSet(tuple((v, p.substitute(m)) for v, p in self.base.rules))
        return SolveList(base, self.template.substitute(m), self.pairs, self.monomial_vars)

    def coefficient_equations(self) -> list[Polynomial]:
        """The raw coefficients c_i before any unknown is eliminated: c_i is the
        i-th pair's monomial's coefficient in ``base.apply(template)`` over the
        monomial variables (:meth:`Polynomial.image_coefficients`)."""
        return self.template.image_coefficients(self.base.mapping(), self.monomial_vars,
                                                [dict(m) for m, _ in self.pairs])

    def expand(self) -> RuleSet:
        """Solve the pairs in order, eliminating each unknown as found.

        Raises :class:`ValidityViolation` naming the first offending pair.
        """
        return solve_in_order(self.coefficient_equations(), [v for _, v in self.pairs])

    def to_json(self) -> dict:
        return {
            "format": "rdpinv-solvelist-v1",
            "base": self.base.to_json(),
            "template": self.template.to_json(),
            "pairs": [[list(map(list, m)), v] for m, v in self.pairs],
            "monomial_vars": list(self.monomial_vars),
        }

    def content_key(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True) + f"|expansion={EXPANSION_VERSION}"
        return hashlib.sha256(payload.encode()).hexdigest()


def pull_back_key(sl_key: str, param: RuleSet, names: Iterable[str]) -> str:
    """The key of rules ``names`` of the expansion keyed ``sl_key``, pulled back."""
    payload = b"|".join([sl_key.encode(), param.canonical_bytes(),
                         json.dumps(list(names)).encode()])
    return hashlib.sha256(payload).hexdigest()


# -- cache --------------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get("CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rdpinv"


#: the format of a cache entry, and the subdirectory that holds the entries: its key,
#: the merged table of its rules, and per rule ``[name, den, shift, [k1, n1, k2, n2, ...]]``,
#: the kernel's own store; another format's entries are never read
ENTRY_FORMAT = "rdpinv-cache-v2"


class RuleCache:
    """File-backed store of expanded rule sets, keyed by hash; every rule
    set it reads or writes is kept in memory as well."""

    def __init__(self, directory: "Path | str | None" = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self._memory: dict[str, RuleSet] = {}

    def path_for(self, key: str) -> Path:
        return self.directory / ENTRY_FORMAT / f"{key}.json"

    def get(self, key: str) -> Optional[RuleSet]:
        """The stored rules, or None when the entry is absent or unreadable."""
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        path = self.path_for(key)
        # a missing entry is a quiet miss; a truncated, garbled or foreign one, one of
        # another format, or one whose rules are not a canonical store, is a miss with
        # a warning: fetch() recomputes it and put() overwrites the file
        try:
            data = json.loads(path.read_text())
            if data.get("format") != ENTRY_FORMAT or data.get("key") != key:
                print(f"warning: rule cache entry {path} carries another format or key;"
                      " recomputing", file=sys.stderr)
                return None
            names, weights = data["vars"], data["weights"]
            # VarTable checks each name and weight, but would read a string
            # as its characters; RuleSet does not ask for string rule names
            if not (type(names) is list and type(weights) is list
                    and all(type(v) is str for v, *_ in data["rules"])):
                raise ValueError("not lists of names and weights, or a rule name not a string")
            table = VarTable(names, weights)
            rules = RuleSet(tuple((v, Polynomial.from_rows(table, *row))
                                  for v, *row in data["rules"]))
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
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        table = rules._table
        payload = {"format": ENTRY_FORMAT, "key": key, "vars": table.names, "weights": table.weights,
                   "rules": [[v, *p.to_table(table).to_rows()] for v, p in rules.rules]}
        # a private temp file per writer, so concurrent writers of one key
        # each publish a whole entry with one atomic rename
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def fetch(self, key: str, compute: Callable[[], RuleSet]) -> RuleSet:
        """The rules stored under ``key``; on a miss, computed and stored."""
        rules = self.get(key)
        if rules is None:
            rules = compute()
            self.put(key, rules)
        return rules

    def pull_back(self, key: str, expand: Callable[[], RuleSet], param: RuleSet,
                  names: Iterable[str]) -> RuleSet:
        """The rules ``names`` of the expansion keyed ``key`` pulled back
        through ``param``; ``expand`` computes that expansion on a miss.

        Pulling back is a ring map that fixes the unknowns and the monomial
        variables and keeps the constant pivots, so whenever a solve list
        ``sl`` expands this equals ``sl.pull_back(param).expand()``.  A hit
        neither loads nor builds the expansion.  Each value is compacted
        first, so no stale variable clashes with the parameter's table.
        """
        names = tuple(names)

        def compute() -> RuleSet:
            plain = self.fetch(key, expand)
            return RuleSet(tuple((nm, param.apply(plain[nm].compact())) for nm in names))

        return self.fetch(pull_back_key(key, param, names), compute)
