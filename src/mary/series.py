"""Truncated formal power series in two coefficient domains.

Exact integer series carry the counting oracles; series over Z_m (m >= 2,
composite m allowed) carry the congruence checks.  A series is an immutable
value: its truncation degree is fixed at construction, and combining series
with different degrees or moduli is a structural error, never a silent
re-truncation.  Coefficients of a ModSeries are always canonical residues
in [0, m - 1].
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb, isqrt

__all__ = [
    "CoprimalityError",
    "ExactSeries",
    "ModSeries",
    "SeriesMismatchError",
    "coprimality_witness",
    "geometric_inverse_mod",
    "mul",
    "neg_pow_series_exact",
    "neg_pow_series_mod",
    "reduce",
    "smallest_prime_factor",
]


# One coprimality search tries at most the candidates 2..10^7, under a
# second; past them it is refused rather than left to run for a minute or more.
_MAX_TRIAL_DIVISIONS = 10**7


class SeriesMismatchError(ValueError):
    """Operands disagree on truncation degree, modulus, or coefficient domain."""


class CoprimalityError(ValueError):
    """A required gcd(modulus, j!) = 1 condition fails.

    Carries the smallest offending prime so callers can report exactly why
    the modulus is inadmissible.
    """

    def __init__(self, message: str, *, prime: int, modulus: int, index: int | None = None):
        super().__init__(message)
        self.prime = prime
        self.modulus = modulus
        self.index = index

    def __reduce__(self) -> tuple:
        # the fields are keyword-only, so pickle and copy (a --jobs worker
        # sends its error back pickled) must pass them by name
        return partial(type(self), prime=self.prime, modulus=self.modulus,
                       index=self.index), self.args


class _Record:
    """Base of the package's value types: immutable, compared by value.

    A subclass lists its fields in __slots__, in constructor order, and
    sets them in __init__ with object.__setattr__.  A slot whose name
    starts with an underscore is a private cache, not a field.  Records
    of one class are equal when their fields are; a record never equals
    an instance of another class.  pickle and copy rebuild a record
    through its constructor, so a copy is validated like the original.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def coprimality_witness(modulus: int, bound: int) -> int | None:
    """Smallest prime dividing both modulus and bound!, or None if coprime.

    gcd(modulus, bound!) > 1 exactly when some prime factor of the modulus
    is at most bound, and the smallest prime factor is then the smallest
    witness.  Trial division tries 2, then odd candidates only, and stops
    at min(bound, sqrt(modulus)), so a huge prime modulus costs O(bound)
    steps, not O(sqrt(modulus)).  A search of more than
    _MAX_TRIAL_DIVISIONS divisions tries only the candidates up to that
    limit, and raises ValueError if none divides the modulus.
    """
    if modulus < 2:
        raise ValueError("coprimality_witness needs a modulus of at least 2")
    top = min(bound, isqrt(modulus))
    stop = top if top - 1 <= _MAX_TRIAL_DIVISIONS else _MAX_TRIAL_DIVISIONS
    if stop >= 2 and modulus % 2 == 0:
        return 2
    for p in range(3, stop + 1, 2):
        if modulus % p == 0:
            return p
    if stop < top:
        raise ValueError(
            f"the smallest-prime search for modulus {modulus} needs {top - 1} "
            f"trial divisions, more than the limit of {_MAX_TRIAL_DIVISIONS}"
        )
    # no factor up to sqrt(modulus) within the bound: a modulus that is
    # itself at most bound is then prime
    return modulus if modulus <= bound else None


def _require_coprime(modulus: int, bound: int, factorial: str) -> None:
    """Raise CoprimalityError if a prime divides both modulus and bound!, named factorial."""
    witness = coprimality_witness(modulus, bound)
    if witness is not None:
        raise CoprimalityError(
            f"prime {witness} divides both the modulus {modulus} and {factorial}",
            prime=witness,
            modulus=modulus,
        )


def smallest_prime_factor(n: int) -> int:
    """Smallest prime dividing n, for n >= 2.

    Raises ValueError past the trial-division limit of coprimality_witness,
    as at a prime n near 10^18; a small factor still answers at once.
    """
    if n < 2:
        raise ValueError("smallest_prime_factor needs n >= 2")
    # every prime factor of n is at most n, so one always divides n!
    return coprimality_witness(n, n)


class ExactSeries(_Record):
    """Integer power series truncated at a fixed degree.

    coeffs[i] is the coefficient of q^i; the tuple has exactly
    truncation_degree + 1 entries.  Coefficients are arbitrary-precision
    Python integers, so counting values never wrap.
    """

    __slots__ = ("truncation_degree", "coeffs")

    def __init__(self, truncation_degree: int, coeffs: tuple[int, ...]) -> None:
        coeffs = tuple(coeffs)
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if len(coeffs) != truncation_degree + 1:
            raise ValueError(
                f"expected {truncation_degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "truncation_degree", truncation_degree)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def one(cls, truncation_degree: int) -> ExactSeries:
        """The constant series 1 at the given truncation degree."""
        return cls(truncation_degree, (1,) + (0,) * truncation_degree)

    def __mul__(self, other: ExactSeries) -> ExactSeries:
        return mul(self, other)


class ModSeries(_Record):
    """Power series over Z_modulus truncated at a fixed degree.

    Every coefficient must already be a canonical residue; the constructor
    rejects anything outside [0, modulus - 1] so that harness bugs surface
    as loud structural errors.
    """

    __slots__ = ("modulus", "truncation_degree", "coeffs")

    def __init__(self, modulus: int, truncation_degree: int, coeffs: tuple[int, ...]) -> None:
        coeffs = tuple(coeffs)
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if len(coeffs) != truncation_degree + 1:
            raise ValueError(
                f"expected {truncation_degree + 1} coefficients, got {len(coeffs)}"
            )
        try:
            # bytes() takes only ints in 0..255, and deleting the residues
            # 0..modulus-1 leaves nothing exactly when every one is canonical
            canonical = modulus <= 256 and not bytes(coeffs).translate(None, bytes(range(modulus)))
        except (TypeError, ValueError):
            canonical = False
        if not canonical:
            for c in coeffs:
                if not 0 <= c < modulus:
                    raise ValueError(f"coefficient {c} is not a canonical residue mod {modulus}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "truncation_degree", truncation_degree)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def one(cls, modulus: int, truncation_degree: int) -> ModSeries:
        """The constant series 1 at the given modulus and truncation degree."""
        return cls(modulus, truncation_degree, (1,) + (0,) * truncation_degree)

    def __mul__(self, other: ModSeries) -> ModSeries:
        return mul(self, other)


def mul(a: ExactSeries | ModSeries, b: ExactSeries | ModSeries):
    """Cauchy product truncated at the shared degree.

    Zero coefficients are skipped and the sparser operand drives the outer
    loop, so products against digit polynomials and geometric factors stay
    cheap even at large truncation degrees.  Mixing coefficient domains,
    truncation degrees, or moduli raises SeriesMismatchError.
    """
    if isinstance(a, ExactSeries) and isinstance(b, ExactSeries):
        modulus = None
    elif isinstance(a, ModSeries) and isinstance(b, ModSeries):
        if a.modulus != b.modulus:
            raise SeriesMismatchError(
                f"cannot multiply series with moduli {a.modulus} and {b.modulus}"
            )
        modulus = a.modulus
    else:
        raise SeriesMismatchError("cannot multiply exact and modular series")
    if a.truncation_degree != b.truncation_degree:
        raise SeriesMismatchError(
            f"cannot multiply series with truncation degrees "
            f"{a.truncation_degree} and {b.truncation_degree}"
        )

    degree = a.truncation_degree
    terms_a = [(e, c) for e, c in enumerate(a.coeffs) if c]
    terms_b = [(e, c) for e, c in enumerate(b.coeffs) if c]
    if len(terms_a) > len(terms_b):
        terms_a, terms_b = terms_b, terms_a
    out = [0] * (degree + 1)
    for ea, ca in terms_a:
        limit = degree - ea
        for eb, cb in terms_b:
            if eb > limit:
                break
            out[ea + eb] += ca * cb
    if modulus is None:
        return ExactSeries(degree, out)
    return ModSeries(modulus, degree, [c % modulus for c in out])


def neg_pow_series_exact(period: int, count: int, truncation: int) -> ExactSeries:
    """Truncation of (1 - q^period)^(-count) with exact coefficients.

    The coefficient of q^(period * l) is C(count - 1 + l, count - 1), the
    number of colour multisets of size l drawn from count colours; every
    exponent off the period lattice has coefficient zero.
    """
    _require_positive("period", period)
    _require_positive("count", count)
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    coeffs = [0] * (truncation + 1)
    for l in range(truncation // period + 1):
        coeffs[period * l] = comb(count - 1 + l, count - 1)
    return ExactSeries(truncation, coeffs)


def neg_pow_series_mod(period: int, count: int, modulus: int, truncation: int) -> ModSeries:
    """Reduction of (1 - q^period)^(-count) to Z_modulus, in factored form.

    Requires gcd(modulus, (count - 1)!) = 1; a search for it past the
    trial-division limit of coprimality_witness raises ValueError.  Built
    literally as the product of the geometric series in
    q^(period * modulus) with the degree-bounded digit polynomial whose
    coefficient at q^(period * l) is C(count - 1 + l, count - 1) for
    0 <= l < modulus.  Under the coprimality condition this equals
    reduce(neg_pow_series_exact(...), modulus).
    """
    _require_positive("period", period)
    _require_positive("count", count)
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    _require_coprime(modulus, count - 1, f"({count} - 1)!")
    coeffs = [0] * (truncation + 1)
    for l in range(modulus):
        exponent = period * l
        if exponent > truncation:
            break
        coeffs[exponent] = comb(count - 1 + l, count - 1) % modulus
    digit_poly = ModSeries(modulus, truncation, coeffs)
    return mul(geometric_inverse_mod(period * modulus, modulus, truncation), digit_poly)


def geometric_inverse_mod(period: int, modulus: int, truncation: int) -> ModSeries:
    """Truncation of (1 - q^period)^(-1) over Z_modulus.

    Coefficient 1 at every multiple of period, 0 elsewhere.
    """
    _require_positive("period", period)
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    coeffs = [0] * (truncation + 1)
    for e in range(0, truncation + 1, period):
        coeffs[e] = 1
    return ModSeries(modulus, truncation, coeffs)


def reduce(series: ExactSeries, modulus: int) -> ModSeries:
    """Coefficientwise reduction of an exact series to canonical residues."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    return ModSeries(
        modulus,
        series.truncation_degree,
        [c % modulus for c in series.coeffs],
    )


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


# room for every table of two moduli up to 256, with add 0 and 1
@lru_cache(maxsize=1024)
def _byte_table(mul: int, add: int, m: int) -> bytes:
    """(add + mul * y) % m for y in 0..255, a bytes.translate table for m <= 256."""
    # a step of mul + m, never 0, gives the same residues
    return bytes(map(m.__rmod__, range(add, add + 256 * (mul + m), mul + m)))


def _kron(outer, inner, add: int, m: int) -> bytearray | list[int]:
    """(add + x * y) % m for x in outer and y in inner, outer index major.

    With add = 0 these are the coefficients of outer(q^w) * inner(q) over
    Z_m, w = len(inner): the digit-polynomial products of the congruence
    sweeps, where inner is one digit row of at most m entries.  Both sides
    hold residues mod m.  For m <= 256 they fit in a byte: each entry of
    inner multiplies the whole of outer in one bytes.translate, written to
    every w-th byte of the result, which is a bytearray.  Larger m take a
    list.
    """
    if m > 256:
        return [(add + x * y) % m for x in outer for y in inner]
    outer = bytes(outer)
    width = len(inner)
    out = bytearray(len(outer) * width)
    for j, y in enumerate(inner):
        out[j::width] = outer.translate(_byte_table(y, add, m))
    return out
