"""Test-suite configuration shared by every test module."""

from hypothesis import settings

# CI runs with --hypothesis-profile=ci: every property draws the same
# examples on every run, so a failure there replays locally with that flag
settings.register_profile("ci", derandomize=True)
