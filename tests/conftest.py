"""Test-session setup shared by every test module."""

import contextlib
import warnings

# When a @given test fails, hypothesis imports this module to suggest an
# explicit example.  With some installed versions of its dependencies that
# import raises a DeprecationWarning (from mypy_extensions), which the
# suite's "error" warning filter turns into a pytest INTERNALERROR: the
# falsifying example is never printed and no later test runs.  Importing the
# module once here, with DeprecationWarning ignored for this import only,
# leaves it cached for that moment and every other filter as it is.  A
# hypothesis without the module has nothing to import later either.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
