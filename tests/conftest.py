"""Test-wide settings: property tests draw the same examples on every run
and have no per-example deadline; each test sets only its max_examples."""

from hypothesis import settings

settings.register_profile("igusa", derandomize=True, deadline=None)
settings.load_profile("igusa")
