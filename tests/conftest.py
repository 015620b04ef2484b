"""One ``hypothesis`` profile for every property in the suite: examples
drawn from a fixed seed, no example database, no per-example deadline,
so a run gives the same examples on any machine and under any load."""

from hypothesis import settings

settings.register_profile("ilgl", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ilgl")
