"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
