"""Exact counting of coloured m-ary partitions, with and without gaps.

A partition of n here is a multiset of pairs (part, colour) where every
part is a power m^j and part m^j may take any of k_j colours.  The
unrestricted count is written b(n); the gap-free count c(n) keeps only
partitions whose set of used part sizes is {m^0, ..., m^i} for some i,
so a larger power never appears without every smaller one.

Two deliberately independent oracles live here.  The series oracle builds
exact generating functions out of (1 - q^{m^j})^{-k_j} factors, through
the m-ary functional equation; its builders can also reduce each level
mod m, for the product side of the congruence expansions.  The
enumeration oracle recurses over powers and counts colour multisets
directly, in one walk that takes at least 0 parts of each power for b
and at least 1 for c.  They share no code beyond binomials, so one can
check the other.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from itertools import accumulate
from math import comb
from operator import sub

from .series import ExactSeries, _Record

__all__ = [
    "ENUMERATION_CAP",
    "ColourSpec",
    "EnumerationCapError",
    "PartitionProblem",
    "count_b_enum",
    "count_b_series",
    "count_c_enum",
    "count_c_series",
]

# Direct enumeration is exponential-ish in the digit length of n; above
# this bound the series oracle is the supported route.
ENUMERATION_CAP = 300


class EnumerationCapError(ValueError):
    """The requested n is too large for the enumeration oracle."""


class ColourSpec(_Record):
    """Colour counts per part size: explicit k_0..k_r, then a constant tail.

    count(j) is the number of colours available for part m^j.  Indices past
    the explicit prefix all use the tail value, so a spec describes every
    power at once.
    """

    __slots__ = ("explicit", "tail")

    def __init__(self, explicit: tuple[int, ...], tail: int) -> None:
        explicit = tuple(explicit)
        if not explicit:
            raise ValueError("colour spec needs at least one explicit entry")
        for k in explicit:
            if k < 1:
                raise ValueError(f"colour counts must be positive, got {k}")
        if tail < 1:
            raise ValueError(f"tail colour count must be positive, got {tail}")
        object.__setattr__(self, "explicit", explicit)
        object.__setattr__(self, "tail", tail)

    def count(self, index: int) -> int:
        """Number of colours for part m^index."""
        if index < 0:
            raise ValueError("part index must be nonnegative")
        if index < len(self.explicit):
            return self.explicit[index]
        return self.tail

    def normalized(self) -> ColourSpec:
        """Equivalent spec with trailing explicit entries equal to the tail dropped."""
        entries = list(self.explicit)
        while len(entries) > 1 and entries[-1] == self.tail:
            entries.pop()
        return ColourSpec(tuple(entries), self.tail)

    @classmethod
    def parse(cls, text: str) -> ColourSpec:
        """Parse the literal 'k0,k1,...;tail'.

        The ';tail' part is optional and defaults to the last explicit
        entry, so '2,1' means colours 2, 1, 1, 1, ...
        """
        body, sep, tail_text = text.partition(";")
        try:
            entries = tuple(int(piece) for piece in body.split(","))
            tail = int(tail_text) if sep else entries[-1]
        except (ValueError, IndexError):
            raise ValueError(
                f"colour spec must look like 'k0,k1,...;tail', got {text!r}"
            ) from None
        return cls(entries, tail)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.explicit) + f";{self.tail}"


class PartitionProblem(_Record):
    """A base m >= 2 together with the colour counts for its powers."""

    # _digit_table is filled by congruence._bottoms on first use
    __slots__ = ("m", "colours", "_digit_table")

    def __init__(self, m: int, colours: ColourSpec) -> None:
        if m < 2:
            raise ValueError(f"base must be at least 2, got {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "colours", colours)


def count_b_series(prob: PartitionProblem, truncation: int) -> ExactSeries:
    """Exact generating series of the unrestricted counts b(0..truncation).

    The series is the product over j >= 0 of (1 - q^{m^j})^{-k_j}, which
    is D_0 of _series_coeffs with least = 0: B_j, the product over the
    powers from m^j up with q^{m^j} renamed q, obeys the m-ary functional
    equation B_j(q) = (1 - q)^{-k_j} * B_{j+1}(q^m).
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return ExactSeries(truncation, _series_coeffs(prob, truncation, 0, 0))


def count_c_series(prob: PartitionProblem, truncation: int) -> ExactSeries:
    """Exact generating series of the gap-free counts c(0..truncation).

    The series is the sum over i >= 0 of the products
    prod_{j=0..i} ((1 - q^{m^j})^{-k_j} - 1), where term i collects the
    partitions whose used part sizes are exactly {m^0, ..., m^i}.  Writing
    C_j for the same sum over the powers from m^j up, taken with q^{m^j}
    renamed q, 1 + C_j is D_j of _series_coeffs with least = 1:

        C_j(q) = ((1 - q)^{-k_j} - 1) * (1 + C_{j+1}(q^m)).

    The constant term is zero: the empty partition is not counted, c(0) = 0.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    coeffs = _series_coeffs(prob, truncation, 0, 1)
    coeffs[0] = 0
    return ExactSeries(truncation, coeffs)


def count_b_enum(prob: PartitionProblem, n: int) -> int:
    """Unrestricted count b(n) by direct recursion over powers.

    Walks the powers of m from the largest one at most n downward; at each
    power it chooses how many parts of that size appear and multiplies by
    C(parts + k - 1, k - 1), the number of colour multisets of that size.
    Refuses n above ENUMERATION_CAP, where the series oracle should be used.
    """
    ways, top = _enum_walk(prob, n, 0)
    return ways(n, top)


def count_c_enum(prob: PartitionProblem, n: int) -> int:
    """Gap-free count c(n) by direct recursion over powers.

    For each candidate top power m^i up to n, counts the partitions in
    which every size m^0..m^i appears at least once; a top power that n
    cannot afford together with every smaller one (1 + m + ... + m^i > n)
    counts 0 by itself.  Colour multisets per size are counted as in
    count_b_enum.
    """
    if n < 1:
        raise ValueError(f"gap-free counts are defined for n >= 1, got {n}")
    ways, top = _enum_walk(prob, n, 1)
    return sum(ways(n, i) for i in range(top + 1))


def _enum_walk(
    prob: PartitionProblem, n: int, least: int
) -> tuple[Callable[[int, int], int], int]:
    """The enumeration recursion ways(r, i), and the index of the largest power at most n.

    ways(r, i) counts the coloured partitions of r into the powers
    m^0..m^i in which each power appears at least `least` times: 0 for
    the unrestricted count, 1 for the gap-free one.  Refuses a negative n
    and an n above ENUMERATION_CAP.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"n = {n} exceeds the enumeration cap {ENUMERATION_CAP}; "
            f"use the series oracle (count_b_series / count_c_series) instead"
        )
    m = prob.m
    top = 0
    while m ** (top + 1) <= n:
        top += 1

    @cache
    def ways(remaining: int, index: int) -> int:
        k = prob.colours.count(index)
        if index == 0:
            return comb(remaining + k - 1, k - 1) if remaining >= least else 0
        p = m**index
        return sum(
            comb(parts + k - 1, k - 1) * ways(remaining - parts * p, index - 1)
            for parts in range(least, remaining // p + 1)
        )

    return ways, top


def _series_coeffs(
    prob: PartitionProblem, truncation: int, index: int, least: int, modulus: int | None = None
) -> list[int]:
    """Coefficients 0..truncation of D_index, mod modulus if given.

    D_j counts, with q^{m^j} renamed q, the partitions into the powers from
    m^j up in which each power up to the largest one used appears at least
    `least` times, as in _enum_walk.  It obeys the m-ary functional equation

        D_j(q) = least + ((1 - q)^{-k_j} - least) * D_{j+1}(q^m),

    so D_{j+1} is only needed up to truncation // m.  Its coefficients are
    spread onto every m-th slot and multiplied by (1 - q)^{-k_j} as k_j
    prefix-sum passes, which costs about (k_0 + k_1/m + k_2/m^2 + ...)
    * truncation big-integer additions in all.  A modulus reduces each
    level once, before the next one spreads it: reduction is a ring map,
    so it commutes with the functional equation.
    """
    if truncation == 0:
        return [1]
    inner = _series_coeffs(prob, truncation // prob.m, index + 1, least, modulus)
    coeffs = [0] * (truncation + 1)
    coeffs[:: prob.m] = inner
    # least * D_{j+1}(q^m) lives on the m-lattice; at q^0 the added least
    # cancels it, since D_{j+1}(0) = 1.  Keep only what is subtracted:
    # holding all of D_{j+1} through the passes slows them.
    inner = inner[1:] if least else None
    for _ in range(prob.colours.count(index)):
        coeffs = list(accumulate(coeffs))
    if least:
        coeffs[prob.m :: prob.m] = map(sub, coeffs[prob.m :: prob.m], inner)
    return coeffs if modulus is None else [c % modulus for c in coeffs]
