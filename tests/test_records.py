"""The package's value types: compared by value, immutable, picklable."""

import copy
import pickle

import pytest

from mary import (
    ColourSpec,
    Digits,
    ExactSeries,
    GapFreeDecomposition,
    HypothesisCheck,
    ModSeries,
    PartitionProblem,
    Residue,
    check_hypothesis,
)
from mary.congruence import _bottoms

SPEC = ColourSpec((2, 1), 3)

# (type, every field in constructor order, how many are required,
#  the arguments of a different value)
RECORDS = [
    (ExactSeries, dict(truncation_degree=2, coeffs=(1, 2, 3)), 2, (2, (1, 2, 4))),
    (ModSeries, dict(modulus=5, truncation_degree=1, coeffs=(4, 0)), 3, (7, 1, (4, 0))),
    (ColourSpec, dict(explicit=(2, 1), tail=3), 2, ((2, 1), 1)),
    (PartitionProblem, dict(m=5, colours=SPEC), 2, (7, SPEC)),
    (Digits, dict(base=3, digits=(2, 0, 1)), 2, (3, (2, 1))),
    (Residue, dict(value=1, modulus=3), 2, (2, 3)),
    (HypothesisCheck, dict(ok=True, prime=None, index=None), 1, (False, 3, 2)),
    (GapFreeDecomposition, dict(n_prime=7, d0=2, n=9, base=3, s=2, t=2, digits=(1,)), 7,
     (8, 1, 9, 3, 2, 2, (1,))),
]


def digit_table(prob):
    """The problem's digit table, filled by a public call."""
    check_hypothesis(prob, 0)
    return _bottoms(prob)


# type -> what fills and reads its private slots before the pickle and
# copy round trips
FILLS = {PartitionProblem: digit_table}


@pytest.mark.parametrize("cls, fields, required, other_args", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, fields, required, other_args):
    names, values = list(fields), list(fields.values())
    # the later fields take their defaults
    record = cls(*values[:required])
    assert [getattr(record, name) for name in names] == values
    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{name}={value!r}" for name, value in fields.items())
                            + ")")

    # by value: a fresh record with equal fields, built by position or by keyword
    twin = cls(*values)
    assert twin is not record and twin == record and not twin != record
    assert cls(**fields) == record
    assert cls(*other_args) != record
    # never equal to another type holding the same values, subclasses included
    subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
    for stranger in (tuple(values), values, subclass(*values)):
        assert record != stranger and stranger != record

    assert hash(twin) == hash(record)
    assert len({record, twin, cls(*other_args)}) == 2
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, name) for name in names] == values

    # rebuilt through the constructor by pickle and copy: a filled private
    # slot is not carried over, but the clone fills it alike
    fill = FILLS.get(cls, lambda record: None)
    filled = fill(record)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for clone in copies:
        assert type(clone) is cls and clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        assert fill(clone) == filled
