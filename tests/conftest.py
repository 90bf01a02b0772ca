import sys
from functools import lru_cache
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from weightlab import LatticeSpec, build_root_datum

# the same examples on every run, no wall-clock deadline (the first draw on a
# type pays for cold caches) and a bounded example count per test
settings.register_profile("weightlab", derandomize=True, deadline=None,
                          max_examples=20, database=None)
settings.load_profile("weightlab")


@lru_cache(maxsize=None)
def get_datum(type_string: str, mode: str = "sc", generators=()):
    """Session-cached data so character/tensor caches are shared across tests."""
    return build_root_datum(type_string, LatticeSpec(mode, tuple(generators)))
