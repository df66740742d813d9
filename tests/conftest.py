"""Test-session settings.

`pytest --hypothesis-profile=ci` (the CI tests job) derandomizes every
property test, so a failure seen in CI replays locally with the same
examples under the same flag.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
