"""Shared test configuration.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples, like the rest of the package, where each random
draw is seeded.
"""

from hypothesis import settings

settings.register_profile("hypercount", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("hypercount")
