"""One hypothesis profile for every property test.

Each test draws the same examples on every run, from no example database, so
a failure reproduces as it was reported; `@settings` then sets only how many
examples a test draws.  No deadline: a slow machine fails no test.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
