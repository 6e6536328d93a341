from hypothesis import settings

# Derandomized, so that every run draws the same examples; no deadline, so
# that a slow machine cannot turn a correct result into a failure.
settings.register_profile("delta-forge", derandomize=True, deadline=None, database=None)
settings.load_profile("delta-forge")
