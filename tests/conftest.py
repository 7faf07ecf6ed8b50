"""Property tests draw the same examples on every run and keep no example
database, so a run's result depends only on the code under test."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
