"""The argument checks of the records and builders, each pinned by its message."""

import pytest

from mary import (
    ColourSpec,
    Digits,
    GapFreeDecomposition,
    ModSeries,
    PartitionProblem,
    Residue,
    binom_lift,
    coprimality_witness,
    decompose_gapfree,
    expand_b_theorem,
    geometric_inverse_mod,
    neg_pow_series_mod,
)

PROB = PartitionProblem(3, ColourSpec((2, 1), 1))

# a valid GapFreeDecomposition is (7, 2, 9, 3, 2, 2, (1,)): 7 = 9 - 2, 9 = 1 * 3^2
# (callable, its arguments, the message of the plain ValueError it raises)
REFUSALS = [
    (Digits, (1, (0,)), "base must be at least 2"),
    (Digits, (3, ()), "digit tuple must be nonempty"),
    (Residue, (0, 1), "modulus must be at least 2"),
    (Residue, (3, 3), "3 is not canonical mod 3"),
    (Residue, (-1, 3), "-1 is not canonical mod 3"),
    (GapFreeDecomposition, (7, 2, 9, 1, 2, 2, (1,)), "base must be at least 2"),
    (GapFreeDecomposition, (0, 0, 0, 3, 1, 1, (1,)), "n_prime must be positive"),
    (GapFreeDecomposition, (7, 3, 9, 3, 2, 2, (1,)), "d0 out of range"),
    (GapFreeDecomposition, (7, 2, 10, 3, 2, 2, (1,)),
     "n must be n_prime + d0 and divisible by the base"),
    (GapFreeDecomposition, (8, 2, 10, 3, 2, 2, (1,)),
     "n must be n_prime + d0 and divisible by the base"),
    (GapFreeDecomposition, (7, 2, 9, 3, 0, 2, (0, 0, 1)), "need 1 <= s <= t"),
    (GapFreeDecomposition, (7, 2, 9, 3, 3, 2, ()), "need 1 <= s <= t"),
    (GapFreeDecomposition, (7, 2, 9, 3, 2, 2, (1, 0)), "digit window must cover s..t"),
    (GapFreeDecomposition, (7, 2, 9, 3, 2, 2, (0,)),
     "lowest nonzero digit must be in [1, base - 1]"),
    (GapFreeDecomposition, (7, 2, 9, 3, 2, 2, (3,)),
     "lowest nonzero digit must be in [1, base - 1]"),
    (binom_lift, (3, 1, 1), "modulus must be at least 2"),
    (decompose_gapfree, (5, 1), "base must be at least 2"),
    (expand_b_theorem, (PROB, -1), "truncation must be nonnegative"),
    (coprimality_witness, (1, 5), "coprimality_witness needs a modulus of at least 2"),
    (ModSeries, (3, -1, ()), "truncation degree must be nonnegative"),
    (neg_pow_series_mod, (1, 2, 1, 3), "modulus must be at least 2"),
    (neg_pow_series_mod, (1, 2, 3, -1), "truncation must be nonnegative"),
    (geometric_inverse_mod, (1, 1, 3), "modulus must be at least 2"),
    (geometric_inverse_mod, (1, 3, -1), "truncation must be nonnegative"),
]


@pytest.mark.parametrize(
    "call, args, message", REFUSALS, ids=[f"{c.__name__}{a}" for c, a, _ in REFUSALS]
)
def test_refusal_message(call, args, message):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
