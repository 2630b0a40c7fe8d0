"""The cipher core's record classes: SubkeySet, LfsrSpec and CipherState
construct, compare, hash, print, copy and refuse changes as a frozen
(for CipherState, a mutable) dataclass with the same fields would."""

import copy
import pickle

import pytest

from separ.core import CipherState, LfsrSpec, SubkeySet

# Per class: fields and values, the exact repr, whether it is frozen (and
# hashable), a value for the first field that makes another equal-shaped
# record, and the constructions that raise ValueError with their text.
CASES = {
    "SubkeySet": (
        SubkeySet,
        {"n": 3, "sk1": 0x1234, "sk2": 0xABCD, "sk3": 7, "sk4": 0xFFFF,
         "sk5": 0xB9F9, "sk6": 0xFFF8},
        "SubkeySet(n=3, sk1=4660, sk2=43981, sk3=7, sk4=65535, sk5=47609, sk6=65528)",
        True,
        4,
        [((0, 0, 0, 0, 0, 0, 0), "stage index out of range: 0"),
         ((9, 0, 0, 0, 0, 0, 0), "stage index out of range: 9"),
         ((1, 0x10000, 0, 0, 0, 0x10000, 0), "sk1 out of range: 0x10000"),
         ((1, 0, 0, 0, -1, 0, -1), "sk4 out of range: -0x1"),
         ((1, 1, 2, 0, 0, 0, 0), "sk5 must equal sk1 XOR sk2"),
         ((1, 1, 2, 4, 8, 3, 4), "sk6 must equal sk3 XOR sk4")],
    ),
    "LfsrSpec": (
        LfsrSpec,
        {"taps": 0xD008},
        "LfsrSpec(taps=53256)",
        True,
        0xB400,
        [((0,), "taps mask out of range: 0x0"),
         ((0x10000,), "taps mask out of range: 0x10000"),
         ((0x0001,), "taps 0x0001 do not generate a maximal-length sequence")],
    ),
    "CipherState": (
        CipherState,
        {"states": [1, 2, 3, 4, 5, 6, 7, 0xFFFF], "lfsr": 0x100, "t": 5},
        "CipherState(states=[1, 2, 3, 4, 5, 6, 7, 65535], lfsr=256, t=5)",
        False,
        [0] * 8,
        [(([0] * 7, 1), "a state holds eight words, got 7"),
         (([0] * 8, 0), "state words must be 16-bit words and the LFSR a nonzero one")],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_behaviour(name):
    cls, fields, text, frozen, other_first, errors = CASES[name]
    values = tuple(fields.values())
    record = cls(*values)
    assert repr(record) == text
    assert cls(**fields) == record
    assert tuple(getattr(record, f) for f in fields) == values
    first = next(iter(fields))
    assert cls(**{**fields, first: other_first}) != record
    assert record.__eq__(values) is NotImplemented and record != values
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text

    if frozen:
        assert hash(record) == hash(cls(**fields)) == hash(values)
        for attribute in (*fields, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{attribute}'"):
                setattr(record, attribute, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(record, first)
        assert record == cls(*values)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        twin = record.copy()
        assert twin == record and twin.states is not record.states
        twin.states[0] ^= 1
        twin.t += 1
        assert twin != record and repr(record) == text

    for args, message in errors:
        with pytest.raises(ValueError) as info:
            cls(*args)
        assert str(info.value) == message


def test_default_lfsr_spec():
    assert LfsrSpec() == LfsrSpec(0xD008) == LfsrSpec(taps=0xD008)
    assert SubkeySet.from_halves(3, 0x1234, 0xABCD, 7, 0xFFFF) == SubkeySet(
        *CASES["SubkeySet"][1].values())
