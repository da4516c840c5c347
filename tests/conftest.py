"""Test-session setup shared by every test module."""

import warnings

# When a hypothesis test fails, hypothesis imports its patching module (and
# with it libcst, where installed) to explain the failure.  libcst touches
# mypy_extensions.TypedDict, whose DeprecationWarning under `-W error` is
# raised in pluggy's report teardown: the run ends in an INTERNALERROR and
# the falsifying example is never printed.  Importing the module here, with
# that warning ignored for this one import, leaves `-W error` in force for
# everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

import pytest  # noqa: E402

from klrblocks import tableaux  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_tableaux_caches():
    """Each test starts and ends with no lattice and no walk cached: a cached
    walk answers a pair query without reaching the limit checks a test may
    lower, and a full cache left behind holds its bytes into later tests.
    A hypothesis test shares one run of this across its examples."""
    tableaux._degree_table.cache_clear()
    tableaux._walk.cache_clear()
    yield
    tableaux._degree_table.cache_clear()
    tableaux._walk.cache_clear()
