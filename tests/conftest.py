"""One hypothesis profile for every run: each run draws the same examples
(derandomize), keeps no example database and caches nothing, so a run
writes no .hypothesis/ directory: the storage directory is the null device,
under which no directory can be made.

hypothesis reports a failing example from a pytest hook that imports
hypothesis.extra._patching, and through it libcst, whose import warns that
mypy_extensions.TypedDict is deprecated.  Under a test's -W error filter
that warning ended the run in INTERNALERROR with no falsifying example, so
the module is imported here once, with that one warning ignored."""

import contextlib
import os
import warnings

from hypothesis import configuration, settings

configuration.set_hypothesis_home_dir(os.devnull)
settings.register_profile("qig", derandomize=True, database=None)
settings.load_profile("qig")

with warnings.catch_warnings(), contextlib.suppress(ImportError):  # no libcst
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
