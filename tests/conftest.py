"""Shared test settings: one hypothesis profile, derandomized and without
a per-example deadline, so every run of the suite draws the same examples
and a slow machine cannot turn a passing property into a flaky one."""

from hypothesis import settings

settings.register_profile("lowdisc", derandomize=True, deadline=None)
settings.load_profile("lowdisc")
