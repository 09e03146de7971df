"""Coloured m-ary partition counts and their residues modulo m.

The package counts partitions of n into parts that are powers of a base
m >= 2, where part m^j is available in k_j colours, both unrestricted
(b) and gap-free (c, every used power drags in all smaller ones).  It
evaluates digit-driven closed forms for those counts modulo m, expands
the series identities behind the closed forms over Z_m, and verifies
formula against oracle across configurable grids.
"""

from .congruence import (
    Digits,
    GapFreeDecomposition,
    HypothesisCheck,
    Residue,
    binom_lift,
    check_hypothesis,
    decompose_gapfree,
    expand_b_product,
    expand_b_theorem,
    expand_c_product,
    expand_c_theorem,
    residue_b,
    residue_c,
    residues_b,
    residues_c,
    to_digits,
)
from .counting import (
    ENUMERATION_CAP,
    ColourSpec,
    EnumerationCapError,
    PartitionProblem,
    count_b_enum,
    count_b_series,
    count_c_enum,
    count_c_series,
)
from .series import (
    CoprimalityError,
    ExactSeries,
    ModSeries,
    SeriesMismatchError,
    coprimality_witness,
    geometric_inverse_mod,
    mul,
    neg_pow_series_exact,
    neg_pow_series_mod,
    reduce,
    smallest_prime_factor,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_CAP",
    "ColourSpec",
    "CoprimalityError",
    "Digits",
    "EnumerationCapError",
    "ExactSeries",
    "GapFreeDecomposition",
    "HypothesisCheck",
    "ModSeries",
    "PartitionProblem",
    "Residue",
    "SeriesMismatchError",
    "binom_lift",
    "check_hypothesis",
    "coprimality_witness",
    "count_b_enum",
    "count_b_series",
    "count_c_enum",
    "count_c_series",
    "decompose_gapfree",
    "expand_b_product",
    "expand_b_theorem",
    "expand_c_product",
    "expand_c_theorem",
    "geometric_inverse_mod",
    "mul",
    "neg_pow_series_exact",
    "neg_pow_series_mod",
    "reduce",
    "residue_b",
    "residue_c",
    "residues_b",
    "residues_c",
    "smallest_prime_factor",
    "to_digits",
]
