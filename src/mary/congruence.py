"""Digit-driven residues modulo m and the expansion identities behind them.

Both counting families admit closed forms modulo m that read nothing but
the base-m digits of n, provided every prime factor of m exceeds the
relevant colour counts (k_0 - 1 for the unit parts, k_j for the rest).
Each formula hands the top digit position it reads to one gate, which
enforces the hypothesis through it and returns the digit helpers' bottoms.
This module evaluates those closed forms, and also expands both sides of
the series identities they come from, so each identity instance can be
checked coefficient by coefficient against the counting series, built mod m.
"""

from __future__ import annotations

from math import comb

from . import series
from .counting import PartitionProblem, _series_coeffs
from .series import CoprimalityError, ModSeries, _kron, _Record, coprimality_witness

__all__ = [
    "Digits",
    "GapFreeDecomposition",
    "HypothesisCheck",
    "Residue",
    "binom_lift",
    "check_hypothesis",
    "decompose_gapfree",
    "expand_b_product",
    "expand_b_theorem",
    "expand_c_product",
    "expand_c_theorem",
    "residue_b",
    "residue_c",
    "residues_b",
    "residues_c",
    "to_digits",
]

class Digits(_Record):
    """Base-m digits of a nonnegative integer, least significant first.

    The digit tuple never has a trailing zero except for the single digit
    of zero itself, so top_index is well defined.
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]) -> None:
        digits = tuple(digits)
        if base < 2:
            raise ValueError("base must be at least 2")
        if not digits:
            raise ValueError("digit tuple must be nonempty")
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")
        if len(digits) > 1 and digits[-1] == 0:
            raise ValueError("trailing zero digit")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    @property
    def top_index(self) -> int:
        return len(self.digits) - 1

    @property
    def value(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.base + d
        return total


class Residue(_Record):
    """A canonical residue value in [0, modulus - 1]."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if not 0 <= value < modulus:
            raise ValueError(f"{value} is not canonical mod {modulus}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", modulus)


class HypothesisCheck(_Record):
    """Outcome of a coprimality check, with a witness on failure.

    prime is the smallest prime factor of m at fault and index the first
    digit position where it offends; both are None when the check passes.
    """

    __slots__ = ("ok", "prime", "index")

    def __init__(self, ok: bool, prime: int | None = None, index: int | None = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "index", index)

    def __bool__(self) -> bool:
        return self.ok


class GapFreeDecomposition(_Record):
    """Presentation of a query n' as n - d0 with base | n and 0 <= d0 < base.

    n is the least multiple of the base at or above n'; s and t index the
    lowest and highest nonzero base digits of n, and digits holds d_s..d_t.
    Since n is a positive multiple of the base, s >= 1 and d_s >= 1 always.
    """

    __slots__ = ("n_prime", "d0", "n", "base", "s", "t", "digits")

    def __init__(
        self, n_prime: int, d0: int, n: int, base: int, s: int, t: int, digits: tuple[int, ...]
    ) -> None:
        digits = tuple(digits)
        if base < 2:
            raise ValueError("base must be at least 2")
        if n_prime < 1:
            raise ValueError("n_prime must be positive")
        if not 0 <= d0 < base:
            raise ValueError("d0 out of range")
        if n != n_prime + d0 or n % base != 0:
            raise ValueError("n must be n_prime + d0 and divisible by the base")
        if not 1 <= s <= t:
            raise ValueError("need 1 <= s <= t")
        if len(digits) != t - s + 1:
            raise ValueError("digit window must cover s..t")
        if not 1 <= digits[0] < base:
            raise ValueError("lowest nonzero digit must be in [1, base - 1]")
        for name, value in zip(self._fields, (n_prime, d0, n, base, s, t, digits)):
            object.__setattr__(self, name, value)


def to_digits(n: int, base: int) -> Digits:
    """Base digits of n, least significant first; zero has the single digit 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if base < 2:
        raise ValueError("base must be at least 2")
    return Digits(base, _digits(n, base))


def _digits(n: int, base: int) -> list[int]:
    """to_digits(n, base).digits as a list, for n >= 0 and base >= 2 unchecked."""
    digits = []
    while True:
        n, d = divmod(n, base)
        digits.append(d)
        if not n:
            return digits


def check_hypothesis(prob: PartitionProblem, max_index: int) -> HypothesisCheck:
    """Check gcd(m, (k_0 - 1)!) = 1 and gcd(m, k_j!) = 1 for 1 <= j <= max_index.

    Equivalently, every prime factor of m must exceed k_0 - 1 and each k_j
    through max_index.  The first index where that fails is found once
    per problem, so this is one comparison with max_index.
    """
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    failure = _bottoms(prob)[1]
    if failure is not None and failure[0] <= max_index:
        return HypothesisCheck(False, failure[1], failure[0])
    return HypothesisCheck(True)


def binom_lift(top: int, bottom: int, modulus: int) -> Residue:
    """C(top, bottom) mod modulus, lifting small tops by modulus steps.

    Requires gcd(modulus, bottom!) = 1; a search for it past the
    trial-division limit of coprimality_witness raises ValueError.  When
    top < bottom (negative tops included), top is raised by the least
    number of modulus steps that reaches bottom; under the gcd condition
    the residue is the same for every admissible number of steps, so the
    convention is canonical.
    """
    if bottom < 0:
        raise ValueError("bottom must be nonnegative")
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    series._require_coprime(modulus, bottom, f"{bottom}!")
    if top < bottom:
        top += (bottom - top + modulus - 1) // modulus * modulus
    return Residue(comb(top, bottom) % modulus, modulus)


def residue_b(n: int, prob: PartitionProblem, *, enforce_hypothesis: bool = True) -> Residue:
    """Digit formula for the unrestricted count modulo m.

    With d_0..d_t the base-m digits of n, returns

        C(k_0 - 1 + d_0, k_0 - 1) * prod_{j=1..t} C(k_j + d_j, k_j)  (mod m),

    which equals b(n) mod m whenever the coprimality hypothesis holds
    through index t.  Passing enforce_hypothesis=False evaluates the same
    product without that guarantee, for diagnostic probes only.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    digits = _digits(n, prob.m)
    bottoms = _require_hypothesis(prob, len(digits) - 1, enforce_hypothesis)
    return Residue(_level_at(bottoms, prob.m, 0, digits, 0), prob.m)


def residues_b(
    prob: PartitionProblem, limit: int, *, enforce_hypothesis: bool = True
) -> list[int]:
    """residue_b(n, prob).value for every n in 0..limit, in O(limit) steps.

    The formula is a product of one digit-row entry per base-m digit, so
    with n = m x + d it is position 0's row at d times the product V_1(x)
    over the digits of x, the level that _levels tabulates top digit
    first: one _kron step, as in expand_c_theorem.  The hypothesis is
    checked once, through the top digit index of limit, and fails exactly
    as the first failing residue_b call would.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    m = prob.m
    bottoms = _require_hypothesis(prob, len(_digits(limit, m)) - 1, enforce_hypothesis)
    # at most limit + 1 entries: m entries would never finish at a huge m
    row = _digit_row(bottoms, m, 0, min(m, limit + 1))
    return list(_kron(_levels(bottoms, m, limit, 0)[0], row, 0, m)[: limit + 1])


def decompose_gapfree(n_prime: int, base: int) -> GapFreeDecomposition:
    """Write a positive query as n - d0 with base | n and 0 <= d0 < base.

    n is the least multiple of the base at or above n_prime.  The returned
    record also locates the lowest (s) and highest (t) nonzero digits of
    n.  These are the quantities in which the README states the gap-free
    formula, and the tests check residue_c against them; residue_c itself
    reads the rounded-up digits directly.
    """
    if n_prime < 1:
        raise ValueError(f"decomposition is defined for n >= 1, got {n_prime}")
    if base < 2:
        raise ValueError("base must be at least 2")
    d0 = (-n_prime) % base
    n = n_prime + d0
    digits = _digits(n, base)
    s = next(j for j, d in enumerate(digits) if d)
    t = len(digits) - 1
    return GapFreeDecomposition(
        n_prime=n_prime,
        d0=d0,
        n=n,
        base=base,
        s=s,
        t=t,
        digits=digits[s:],
    )


def residue_c(n_prime: int, prob: PartitionProblem, *, enforce_hypothesis: bool = True) -> Residue:
    """Digit formula for the gap-free count modulo m.

    Decomposes the query as n - d_0 with m | n, locates the lowest and
    highest nonzero digits d_s and d_t of n, and evaluates

        C(k_0 - 1 - d_0, k_0 - 1)
          * (eps_s + (-1)^(s-1) * (C(k_s + d_s - 1, k_s) - 1)
                   * sum_{i=s..t} prod_{j=s+1..i} (C(k_j + d_j, k_j) - 1))

    in Z_m, where eps_s is 1 for odd s and 0 for even s.  The leading
    binomial, lifted through the modulus, is the index-0 digit entry at
    n' mod m.  Since d_s >= 1, the tail sum U_s of _levels (add = 1) at
    y - 1, y = n // m^s, is 1 + (C(k_s + d_s - 1, k_s) - 1) times the
    i-sum.  So the bracket is U_s(y - 1) at odd s and 1 - U_s(y - 1) at
    even s, one walk of _level_at.  The result equals c(n') mod m under
    the coprimality hypothesis through index t.
    """
    if n_prime < 1:
        raise ValueError(f"the gap-free residue formula covers n >= 1, got {n_prime}")
    m = prob.m
    digits = _digits(-(-n_prime // m) * m, m)
    bottoms = _require_hypothesis(prob, len(digits) - 1, enforce_hypothesis)
    s = 1
    while not digits[s]:
        s += 1
    digits[s] -= 1
    tail = _level_at(bottoms, m, s, digits[s:], 1)
    k = bottoms[0]
    return Residue(comb(k + n_prime % m, k) * (tail if s % 2 else 1 - tail) % m, m)


def residues_c(
    prob: PartitionProblem, limit: int, *, enforce_hypothesis: bool = True
) -> list[int]:
    """residue_c(n, prob).value for every n in 1..limit, with 0 at index 0.

    A query n' = m x - d_0 factors as lead(d_0) * F(x).  With x = y m^(s-1)
    and y % m >= 1, F(x) is U_s(y - 1) at odd s and 1 - U_s(y - 1) at
    even s (see residue_c), so each level s - 1 of _levels with add = 1
    is written to every multiple of m^(s-1), the higher ones last.

    Costs O(limit) steps.  The hypothesis is checked once, through the
    top digit index of the largest rounded-up n, and fails exactly as the
    first failing residue_c call would.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit == 0:
        return [0]
    m = prob.m
    top_n = -(-limit // m) * m
    bottoms = _require_hypothesis(prob, len(_digits(top_n, m)) - 1, enforce_hypothesis)
    tails = _levels(bottoms, m, top_n, 1)
    body = [0] * (top_n // m + 1)
    # level s - 1 is V_s; the last, V_{top+1} = [1], has no multiple to fill
    for s, level in enumerate(tails[:-1], 1):
        step = m ** (s - 1)
        tail = level[: top_n // m**s]
        # 1 + (m - 1) * U = 1 - U mod m
        body[step::step] = tail if s % 2 else _kron(tail, (m - 1,), 1, m)
    # lead(d_0) for d_0 = m - 1, ..., 1, 0, the order n' ascends within a block
    lead = _digit_row(bottoms, m, 0, min(m, limit + 1))
    lead = lead[1:] + lead[:1]
    return [0, *_kron(body[1:], lead, 0, m)[:limit]]


def expand_b_product(prob: PartitionProblem, truncation: int) -> ModSeries:
    """The unrestricted counting series mod m, built mod m level by level.

    Equal to reducing count_b_series, since _series_coeffs reduces each
    level of the same functional equation before spreading it.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return ModSeries(prob.m, truncation, _series_coeffs(prob, truncation, 0, 0, prob.m))


def expand_b_theorem(
    prob: PartitionProblem, truncation: int, *, enforce_hypothesis: bool = True
) -> ModSeries:
    """Digit-polynomial expansion of the unrestricted series over Z_m.

    Product of one polynomial per digit position: position 0 contributes
    sum_{l=0..m-1} C(k_0 - 1 + l, k_0 - 1) q^l and position j >= 1
    contributes sum_{l=0..m-1} C(k_j + l, k_j) q^(l m^j).  A position is
    included exactly while its minimal nonzero exponent m^j fits under the
    truncation.  The product of these polynomials has coefficient
    residue_b(n) at q^n, so it is built directly by residues_b.
    Coefficientwise equal to expand_b_product under the coprimality
    hypothesis.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return ModSeries(
        prob.m, truncation, residues_b(prob, truncation, enforce_hypothesis=enforce_hypothesis)
    )


def expand_c_product(prob: PartitionProblem, truncation: int) -> ModSeries:
    """The gap-free counting series mod m, built mod m level by level, leading with 1.

    The identity being verified is stated for the series
    1 + sum_{n>=1} c(n) q^n, which is D_0 of _series_coeffs with least = 1,
    so this equals reducing count_c_series with its constant set to 1.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return ModSeries(prob.m, truncation, _series_coeffs(prob, truncation, 0, 1, prob.m))


def expand_c_theorem(
    prob: PartitionProblem, truncation: int, *, enforce_hypothesis: bool = True
) -> ModSeries:
    """Digit-polynomial expansion of the gap-free series over Z_m.

    Expands 1 + L(q) * sum_{i>=0} G_{i+1}(q) * prod_{j=1..i} D_j(q), where
    L runs over l = 1..m with coefficients C(k_0 - 1 + l, k_0 - 1) at q^l
    (note the shifted range, ending at l = m rather than m - 1),
    G_{i+1} is the geometric series in q^(m^(i+1)), and D_j has coefficient
    C(k_j + l, k_j) - 1 at q^(l m^j) for l = 0..m-1, hence no constant
    term.  The i-sum has coefficient U_1(x) at q^(m x), the tail sum over
    the digits of m x, so each exponent l + m x with 1 <= l <= m has
    coefficient C(k_0 - 1 + l, k_0 - 1) * U_1(x), built in O(truncation)
    steps.  The hypothesis is checked through one index past the largest
    power index under the truncation.  Coefficientwise equal to
    expand_c_product under the coprimality hypothesis.
    """
    m = prob.m
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    bottoms = _require_hypothesis(prob, len(_digits(truncation, m)), enforce_hypothesis)
    # entries l = 1..m; below m the truncation ends the first block
    lead = _digit_row(bottoms, m, 0, min(m, truncation) + 1)[1:]
    body = _kron(_levels(bottoms, m, truncation, 1)[0], lead, 0, m)
    return ModSeries(m, truncation, [1, *body[:truncation]])


def _require_hypothesis(prob: PartitionProblem, max_index: int, enforce: bool) -> tuple[int, ...]:
    """prob's bottoms; if enforce, first raise CoprimalityError on a failure through max_index."""
    bottoms, failure = _bottoms(prob)
    if enforce and failure is not None and failure[0] <= max_index:
        index, prime = failure
        raise CoprimalityError(
            f"coprimality hypothesis fails for modulus {prob.m}: "
            f"prime {prime} offends at digit index {index}",
            prime=prime,
            modulus=prob.m,
            index=index,
        )
    return bottoms


def _bottoms(prob: PartitionProblem) -> tuple[tuple[int, ...], tuple[int, int] | None]:
    """The binomial bottom of each digit position, and where the hypothesis fails.

    Digit d at position j contributes C(k + d, k) mod m, with k = k_j, less
    one at j = 0, and the hypothesis asks every prime factor of m to exceed
    that k.  Returns the bottoms (k_0 - 1, k_1, ..., k_r, tail), the tail
    serving every later position, and the first failing (index, prime) or None.
    A position fails exactly when its bottom reaches the smallest prime
    factor p of m, so one search for p, up to the largest bottom, decides
    every position.  Filled in on first use and kept on the problem, freed
    with it.
    """
    try:
        return prob._digit_table
    except AttributeError:
        colours = prob.colours
        bottoms = (colours.explicit[0] - 1, *colours.explicit[1:], colours.tail)
        try:
            p = coprimality_witness(prob.m, max(bottoms))
        except ValueError as e:
            # here the search decides the hypothesis, and the error says so
            raise ValueError(
                str(e).replace("smallest-prime search", "coprimality hypothesis")
            ) from None
        failure = None if p is None else (next(i for i, k in enumerate(bottoms) if k >= p), p)
        object.__setattr__(prob, "_digit_table", (bottoms, failure))
        return prob._digit_table


def _digit_row(bottoms: tuple[int, ...], m: int, index: int, length: int) -> list[int]:
    """The digit entries for digits 0..length-1 at one position."""
    k = bottoms[min(index, len(bottoms) - 1)]
    return [comb(k + d, k) % m for d in range(length)]


def _level_at(bottoms: tuple[int, ...], m: int, p: int, digits: list[int], add: int) -> int:
    """V_p(x) of _levels at one x, from the digits of x, least significant first.

    Walked top digit first, one binomial per digit: no m-entry row is built.
    """
    last = len(bottoms) - 1
    value, j = 1, p + len(digits)
    for d in reversed(digits):
        j -= 1
        # a conditional, not min(): the call would double the walk's cost
        k = bottoms[j if j < last else last]
        value = (add + (comb(k + d, k) - add) * value) % m
    return value


def _levels(bottoms: tuple[int, ...], m: int, top_n: int, add: int) -> list[bytearray | list[int]]:
    """The digit levels V_1, ..., V_{top+1} of top_n, top its top base-m index.

    Entry p - 1 is V_p over x in 0..top_n // m^p, tabulated top digit first by

        V_p(x) = add + R_p[x % m] * V_{p+1}(x // m),

    one _kron step per position, from V_{top+1} = [1], with R_p the digit
    row at position p less add.  With add = 0, V_p(x) is the product of
    the digit entries of x m^p, the b formula without position 0.  With
    add = 1 it is the gap-free tail sum U_p: the sum over i >= p - 1 of
    prod_{j=p..i} R_j[d_j], with d_j the digits of x m^p; U_p(0) = 1 needs
    no special case because R_p[0] = 0.  Below V_{top+1} the entries are
    bytearrays when m <= 256, and lists otherwise.
    """
    levels = [[1]]
    for p in range(len(_digits(top_n, m)) - 1, 0, -1):
        size = top_n // m**p + 1
        row = [(v - add) % m for v in _digit_row(bottoms, m, p, min(m, size))]
        levels.append(_kron(levels[-1], row, add, m)[:size])
    levels.reverse()
    return levels
