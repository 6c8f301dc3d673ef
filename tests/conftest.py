"""Hypothesis imports `libcst.metadata` when it reports a falsifying example,
and that import raises a DeprecationWarning (mypy_extensions' TypedDict).
Under `-W error` the warning escapes the report as a pytest INTERNALERROR
instead of the example, so the module is imported here first, with the
warning ignored."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata  # noqa: F401
    except ImportError:
        pass
