import os
from fractions import Fraction
from itertools import chain, permutations, product

import pytest

from rdpinv.distpoly import monic, rules_from_monic, split_params_E, ts_table
from rdpinv.envres import VersalPipeline
from rdpinv.poly import Polynomial, VarTable
from rdpinv.rootsys import Spec
from rdpinv.solvelist import RuleCache, RuleSet, SolveList


@pytest.fixture(scope="session", autouse=True)
def cache_dir(tmp_path_factory):
    """The suite's rule-cache directory, for the fixtures below and for every
    CLI call and pipeline built without a cache: CACHE_DIR when it is set,
    so repeated suite runs reuse the heavy expansions, else a fresh
    directory of the session's own, never the user's default cache."""
    if os.environ.get("CACHE_DIR"):
        yield os.environ["CACHE_DIR"]
        return
    with pytest.MonkeyPatch.context() as mp:
        path = str(tmp_path_factory.mktemp("rule-cache"))
        mp.setenv("CACHE_DIR", path)
        yield path


@pytest.fixture(scope="session")
def cache(cache_dir):
    return RuleCache(cache_dir)


@pytest.fixture(scope="session")
def pipe6(cache):
    return VersalPipeline(6, cache=cache)


@pytest.fixture(scope="session")
def pipe7(cache):
    return VersalPipeline(7, cache=cache)


@pytest.fixture(scope="session")
def pipe8(cache):
    return VersalPipeline(8, cache=cache)


def written(store):
    """Every term of an orbit-sum store written out, through the public API
    alone: each distinct rearrangement of each representative within each
    block, at the representative's numerator over the store's denominator,
    summed through ``Polynomial.from_items``."""
    names = store.table.names
    items: dict = {}
    for r, n in store.numerators.items():
        c = Fraction(n, store.den)
        for w in product(*[set(permutations(r[a:b])) for a, b in store.spans]):
            exps = dict(zip(store.names, chain.from_iterable(w)))
            items[tuple(exps.get(v, 0) for v in names)] = c
    return Polynomial.from_items(store.table, items)


def elementary(values: list[Polynomial]) -> list[Polynomial]:
    """[e_0, e_1, ..., e_n] of the values, all from one product recurrence:
    e_j is the coefficient of X^j in prod(1 + v_i X), built factor by factor."""
    if not values:
        raise ValueError("need at least one value")
    es = [values[0].table.const(1)]
    for v in values:
        es = [es[0]] + [es[k] + es[k - 1] * v for k in range(1, len(es))] + [es[-1] * v]
    return es


def s_to_t_rules(n: int, table: "VarTable | None" = None) -> dict[str, Polynomial]:
    """The rules s_j -> e_j(t_1..t_n); substituting them is what
    ``distpoly.t_expand`` computes."""
    table = table or ts_table(n)
    es = elementary([table.var(f"t{i}") for i in range(1, n + 1)])
    return {f"s{j}": es[j] for j in range(1, n + 1)}


def elem_sym(values, j):
    """The elementary symmetric function e_j of ``values``, read off
    :func:`elementary`: 1 for j = 0, zero above ``len(values)``."""
    if j < 0:
        raise ValueError(f"no elementary symmetric function of negative degree {j}")
    es = elementary(values)
    return es[j] if j < len(es) else values[0].table.zero()


def dual_table(spec: Spec) -> VarTable:
    """The dual-basis coordinates vs0..vsn of ``spec``."""
    hi = spec.n + 1
    return VarTable([f"vs{i}" for i in range(hi)], [1] * hi)


def distinguished_functionals(spec: Spec) -> list[Polynomial]:
    """t_1..t_n as linear forms in the dual-basis coordinates vs*."""
    table = dual_table(spec)
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


# extension pairs for the full barred expansion of E6, whose solutions the
# paper displays; the pipeline's own bar stage stops before them
BAR_EXTENSION = {
    6: [({"x": 7, "y": 2}, "ebar8"), ({"x": 6, "y": 2, "z": 1}, "ebar9"), ({"x": 9}, "ebar12")],
}


def full_bar_rules(pipe: VersalPipeline) -> RuleSet:
    """The barred stage of ``pipe`` solved for its pairs and then the
    extension pairs of its rank."""
    bar = pipe.bar_solvelist()
    return SolveList.of(bar.base, bar.template, bar.pairs + tuple(BAR_EXTENSION[pipe.n]),
                        bar.monomial_vars).expand()
