"""Hypothesis profiles for the test suite.

`tier1`, loaded by default, derandomizes every property test and keeps no
example database, so two runs of the suite draw the same examples and a
failure reproduces from the test name alone.  `explore`, chosen with
HYPOTHESIS_PROFILE=explore, draws fresh random examples on every run, 500
for each test that sets no max_examples of its own; a test's own count
holds under either profile.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
