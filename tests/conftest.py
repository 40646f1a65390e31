import os

import pytest

from rdpinv.envres import VersalPipeline
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
