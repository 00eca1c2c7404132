"""One hypothesis profile for every run: each run draws the same examples
(derandomize), keeps no example database and caches nothing, so a run
writes no .hypothesis/ directory: the storage directory is the null device,
under which no directory can be made."""

import os

from hypothesis import configuration, settings

configuration.set_hypothesis_home_dir(os.devnull)
settings.register_profile("qig", derandomize=True, database=None)
settings.load_profile("qig")
