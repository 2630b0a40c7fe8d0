import random

# Separ._message takes a key's tables from _BULK_THRESHOLD words once numpy
# is loaded, and from eight times that before.  The in-process tests pin
# the first rule, so they all run with numpy loaded, whichever files are
# collected; the process without numpy is tested in child processes.
import numpy  # noqa: F401
import pytest

from separ.core import SubkeySet


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_subkeys(rng: random.Random, n: int = 1) -> SubkeySet:
    return SubkeySet.from_halves(n,
                                 rng.randrange(1 << 16), rng.randrange(1 << 16),
                                 rng.randrange(1 << 16), rng.randrange(1 << 16))
