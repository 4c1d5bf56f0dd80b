"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run."""

import os
import warnings

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# When a property test fails, Hypothesis's pytest plugin imports this module to write a
# patch, and with it libcst, whose import warns of a deprecation.  Under -W error that
# warning would replace the falsifying example with a plugin INTERNALERROR, so the module
# is imported here, once, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch
        pass
