import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# property failure reproduces, and at least as many as any test asks for.
settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
