"""Hypothesis profiles for the test suite.

``tier1``, loaded by default, derandomizes every property test: the
examples are a function of the test alone, so one commit passes or
fails the same way in every checkout.  ``explore`` draws fresh examples
on each run; select it with ``--hypothesis-profile=explore`` to keep
searching for new counterexamples.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
