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
