import os
from fractions import Fraction
from itertools import chain, permutations, product

import pytest

from rdpinv.distpoly import elementary
from rdpinv.envres import VersalPipeline
from rdpinv.poly import Polynomial
from rdpinv.solvelist import RuleCache


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


def elem_sym(values, j):
    """The elementary symmetric function e_j of ``values``, read off
    ``distpoly.elementary``: 1 for j = 0, zero above ``len(values)``."""
    if j < 0:
        raise ValueError(f"no elementary symmetric function of negative degree {j}")
    es = elementary(values)
    return es[j] if j < len(es) else values[0].table.zero()
