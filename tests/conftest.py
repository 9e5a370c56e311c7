"""One Hypothesis profile for the whole suite: every property test draws the
same examples on every run, and no example database is kept between runs.
Each test's own ``@settings`` still sets its number of examples."""

from hypothesis import settings

settings.register_profile("mcld", derandomize=True, database=None)
settings.load_profile("mcld")
