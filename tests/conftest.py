import random

# Separ._message takes a key's tables from _BULK_THRESHOLD words once numpy
# is loaded, and from eight times that before.  The in-process tests pin
# the first rule, so they all run with numpy loaded, whichever files are
# collected; the process without numpy is tested in child processes.
import numpy  # noqa: F401
import pytest

from separ import core
from separ.core import Separ, SubkeySet


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def table_builds(monkeypatch):
    """The direction (`inverse`) of every per-stage table build, in
    order: a spy on the two builders that `Separ._message` calls."""
    built = []
    for name, inverse in (("enc_block_table", False), ("dec_block_table", True)):
        def spy(sk, build=getattr(core, name), inverse=inverse):
            built.append(inverse)
            return build(sk)
        monkeypatch.setattr(core, name, spy)
    return built


def random_subkeys(rng: random.Random, n: int = 1) -> SubkeySet:
    return SubkeySet.from_halves(n,
                                 rng.randrange(1 << 16), rng.randrange(1 << 16),
                                 rng.randrange(1 << 16), rng.randrange(1 << 16))


def with_key_tables(cipher: Separ) -> Separ:
    """`cipher`, after a threshold-length message each way has built its
    key's tables for both directions."""
    data = bytes(2 * Separ._BULK_THRESHOLD)
    cipher.encrypt(bytes(16), data)
    cipher.decrypt(bytes(16), data)
    return cipher
