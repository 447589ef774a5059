"""Test-suite configuration.

The `ci` hypothesis profile makes property tests draw the same examples
on every run and print a reproduction blob for any failure; CI selects
it with `--hypothesis-profile=ci`.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
