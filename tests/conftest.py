"""Shared test settings.

The hypothesis profile draws the same examples on every run and keeps no
example database, so a rerun is deterministic and writes nothing into the
checkout.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    settings.register_profile("fermatreg", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("fermatreg")
