import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mary import (
    CoprimalityError,
    ExactSeries,
    ModSeries,
    SeriesMismatchError,
    binom_lift,
    coprimality_witness,
    geometric_inverse_mod,
    mul,
    neg_pow_series_exact,
    neg_pow_series_mod,
    reduce,
    smallest_prime_factor,
)
from mary import series
from mary.series import _kron


def random_exact(rng, degree, bound=9):
    return ExactSeries(degree, [rng.randrange(-bound, bound + 1) for _ in range(degree + 1)])


def random_mod(rng, modulus, degree):
    return ModSeries(modulus, degree, [rng.randrange(modulus) for _ in range(degree + 1)])


class TestConstruction:
    def test_exact_freezes_coeffs(self):
        s = ExactSeries(2, [1, 2, 3])
        assert s.coeffs == (1, 2, 3)
        assert isinstance(s.coeffs, tuple)

    def test_length_must_match_degree(self):
        with pytest.raises(ValueError):
            ExactSeries(3, (1, 2))
        with pytest.raises(ValueError):
            ModSeries(5, 1, (1, 2, 3))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            ExactSeries(-1, ())

    def test_mod_coeffs_must_be_canonical(self):
        with pytest.raises(ValueError):
            ModSeries(3, 1, (1, 3))
        with pytest.raises(ValueError):
            ModSeries(3, 1, (-1, 0))

    @pytest.mark.parametrize("coeffs, bad", [
        ((0, 5, -1), 5), ((0, -1, 5), -1), ((2, 0, 3), 3), ((1, -1, 2), -1),
    ])
    def test_error_names_the_first_noncanonical_coefficient(self, coeffs, bad):
        with pytest.raises(ValueError) as excinfo:
            ModSeries(3, 2, coeffs)
        assert str(excinfo.value) == f"coefficient {bad} is not a canonical residue mod 3"

    @pytest.mark.parametrize("modulus", [2, 3, 255, 256, 257])
    def test_canonical_check_equals_the_loop(self, modulus):
        # the per-coefficient loop that a C-level byte check stands in for
        # when modulus <= 256
        def first_offender(coeffs):
            for c in coeffs:
                if not 0 <= c < modulus:
                    return f"coefficient {c} is not a canonical residue mod {modulus}"
            return None

        specials = [-1, modulus, 256, 1.0, True]
        base = [modulus - 1, 0, 1 % modulus, modulus // 2]
        inputs = [base, [modulus - 1] * 300, [0]]
        for x in specials:
            for at in range(len(base) + 1):
                inputs.append(base[:at] + [x] + base[at:])
            for y in specials:
                inputs.append([0, x, modulus - 1, y])
        for coeffs in inputs:
            expected = first_offender(coeffs)
            if expected is None:
                assert ModSeries(modulus, len(coeffs) - 1, coeffs).coeffs == tuple(coeffs)
            else:
                with pytest.raises(ValueError) as excinfo:
                    ModSeries(modulus, len(coeffs) - 1, coeffs)
                assert str(excinfo.value) == expected

    def test_modulus_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ModSeries(1, 0, (0,))

    def test_one(self):
        assert ExactSeries.one(3).coeffs == (1, 0, 0, 0)
        assert ModSeries.one(7, 2).coeffs == (1, 0, 0)


class TestMul:
    def test_binomial_square(self):
        s = ExactSeries(2, (1, 1, 0))
        assert mul(s, s).coeffs == (1, 2, 1)

    def test_truncation_drops_high_terms(self):
        # (1 + q)^2 at truncation degree 1 keeps only 1 + 2q
        s = ExactSeries(1, (1, 1))
        assert mul(s, s).coeffs == (1, 2)

    def test_mod_square_reduces(self):
        # (1 + 2q)^2 = 1 + 4q + 4q^2 which is 1 + q + q^2 mod 3
        s = ModSeries(3, 3, (1, 2, 0, 0))
        assert mul(s, s).coeffs == (1, 1, 1, 0)

    def test_operator_delegates(self):
        s = ExactSeries(2, (1, 1, 0))
        assert (s * s).coeffs == (1, 2, 1)
        t = ModSeries(3, 3, (1, 2, 0, 0))
        assert (t * t).coeffs == (1, 1, 1, 0)

    def test_identity_element(self):
        rng = random.Random(11)
        for _ in range(25):
            s = random_exact(rng, rng.randrange(0, 9))
            assert mul(s, ExactSeries.one(s.truncation_degree)).coeffs == s.coeffs
            t = random_mod(rng, rng.choice([2, 3, 9]), rng.randrange(0, 9))
            assert mul(t, ModSeries.one(t.modulus, t.truncation_degree)).coeffs == t.coeffs

    def test_degree_mismatch_rejected(self):
        with pytest.raises(SeriesMismatchError):
            mul(ExactSeries(1, (1, 1)), ExactSeries(2, (1, 1, 1)))

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(SeriesMismatchError):
            mul(ModSeries(2, 1, (1, 1)), ModSeries(3, 1, (1, 1)))

    def test_mixed_domain_rejected(self):
        with pytest.raises(SeriesMismatchError):
            mul(ExactSeries(1, (1, 1)), ModSeries(2, 1, (1, 1)))

    def test_commutative_and_associative_samples(self):
        rng = random.Random(7)
        for _ in range(60):
            degree = rng.randrange(0, 12)
            a, b, c = (random_exact(rng, degree) for _ in range(3))
            assert mul(a, b).coeffs == mul(b, a).coeffs
            assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs
        for _ in range(60):
            m = rng.choice([2, 3, 4, 5, 9])
            degree = rng.randrange(0, 12)
            a, b, c = (random_mod(rng, m, degree) for _ in range(3))
            assert mul(a, b).coeffs == mul(b, a).coeffs
            assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs


class TestNegPowExact:
    def test_plain_geometric(self):
        assert neg_pow_series_exact(1, 1, 4).coeffs == (1, 1, 1, 1, 1)
        assert neg_pow_series_exact(1, 1, 0).coeffs == (1,)

    def test_sparse_geometric(self):
        assert neg_pow_series_exact(3, 1, 7).coeffs == (1, 0, 0, 1, 0, 0, 1, 0)

    def test_two_colours(self):
        # coefficients C(1 + l, 1) = l + 1
        assert neg_pow_series_exact(1, 2, 3).coeffs == (1, 2, 3, 4)

    def test_matches_square_of_geometric(self):
        geo = neg_pow_series_exact(1, 1, 12)
        assert neg_pow_series_exact(1, 2, 12).coeffs == mul(geo, geo).coeffs

    def test_matches_repeated_product(self):
        # (1 - q^2)^(-3) as a triple product of the sparse geometric
        geo = neg_pow_series_exact(2, 1, 14)
        expected = mul(mul(geo, geo), geo)
        assert neg_pow_series_exact(2, 3, 14).coeffs == expected.coeffs

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            neg_pow_series_exact(0, 1, 3)
        with pytest.raises(ValueError):
            neg_pow_series_exact(1, 0, 3)
        with pytest.raises(ValueError):
            neg_pow_series_exact(1, 1, -1)


class TestNegPowMod:
    def test_two_colours_mod_three(self):
        # l + 1 reduced mod 3 cycles 1, 2, 0
        assert neg_pow_series_mod(1, 2, 3, 5).coeffs == (1, 2, 0, 1, 2, 0)
        assert neg_pow_series_mod(1, 2, 3, 0).coeffs == (1,)

    def test_sparse_two_colours_mod_three(self):
        s = neg_pow_series_mod(3, 2, 3, 9)
        assert s.coeffs == (1, 0, 0, 2, 0, 0, 0, 0, 0, 1)

    def test_single_colour_any_modulus(self):
        assert neg_pow_series_mod(2, 1, 4, 6).coeffs == (1, 0, 1, 0, 1, 0, 1)

    def test_rejects_shared_prime(self):
        with pytest.raises(CoprimalityError) as info:
            neg_pow_series_mod(1, 4, 6, 4)
        assert str(info.value) == "prime 2 divides both the modulus 6 and (4 - 1)!"
        assert (info.value.prime, info.value.modulus, info.value.index) == (2, 6, None)

    def test_agrees_with_exact_reduction(self):
        # the identity the modular constructor is built to satisfy
        for m in (2, 3, 5, 7, 9):
            top = smallest_prime_factor(m)
            for count in range(1, 7):
                if coprimality_witness(m, count - 1) is not None:
                    continue
                for period in (1, m):
                    exact = reduce(neg_pow_series_exact(period, count, 60), m)
                    assert neg_pow_series_mod(period, count, m, 60).coeffs == exact.coeffs


class TestGeometricInverse:
    def test_unit_period(self):
        assert geometric_inverse_mod(1, 3, 4).coeffs == (1, 1, 1, 1, 1)

    def test_period_two(self):
        assert geometric_inverse_mod(2, 2, 5).coeffs == (1, 0, 1, 0, 1, 0)

    def test_period_beyond_truncation(self):
        assert geometric_inverse_mod(4, 5, 3).coeffs == (1, 0, 0, 0)

    def test_is_inverse_of_one_minus_power(self):
        for m in (2, 3, 9):
            for period in (1, 2, 3, 5):
                degree = 17
                coeffs = [0] * (degree + 1)
                coeffs[0] = 1
                coeffs[period] = m - 1  # -1 mod m
                one_minus = ModSeries(m, degree, coeffs)
                product = mul(one_minus, geometric_inverse_mod(period, m, degree))
                assert product.coeffs == ModSeries.one(m, degree).coeffs


class TestReduce:
    def test_small_example(self):
        assert reduce(ExactSeries(2, (5, 6, 7)), 3).coeffs == (2, 0, 1)

    def test_negative_coefficients_become_canonical(self):
        assert reduce(ExactSeries(1, (-1, -3)), 3).coeffs == (2, 0)

    def test_binomials_mod_two(self):
        # C(2 + l, 2) = 1, 3, 6, 10, 15 reduced mod 2
        s = neg_pow_series_exact(1, 3, 4)
        assert s.coeffs == (1, 3, 6, 10, 15)
        assert reduce(s, 2).coeffs == (1, 1, 0, 0, 1)

    def test_reduce_is_multiplicative(self):
        rng = random.Random(23)
        for _ in range(100):
            m = rng.choice([2, 3, 5, 6, 9])
            degree = rng.randrange(0, 10)
            a, b = random_exact(rng, degree, 50), random_exact(rng, degree, 50)
            assert reduce(mul(a, b), m).coeffs == mul(reduce(a, m), reduce(b, m)).coeffs

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            reduce(ExactSeries(0, (1,)), 1)


class TestPrimitives:
    def test_smallest_prime_factor(self):
        assert smallest_prime_factor(2) == 2
        assert smallest_prime_factor(9) == 3
        assert smallest_prime_factor(35) == 5
        assert smallest_prime_factor(97) == 97
        with pytest.raises(ValueError):
            smallest_prime_factor(1)

    def test_coprimality_witness(self):
        assert coprimality_witness(2, 0) is None
        assert coprimality_witness(2, 2) == 2
        assert coprimality_witness(9, 2) is None
        assert coprimality_witness(9, 3) == 3
        assert coprimality_witness(7, 6) is None
        assert coprimality_witness(7, 7) == 7
        assert coprimality_witness(35, 100) == 5

    def test_coprimality_witness_on_a_huge_prime(self):
        # trial division stops at the bound, not at sqrt(10**18)
        prime = 1000000000000000003
        for bound in range(7):
            assert coprimality_witness(prime, bound) is None
        assert coprimality_witness(3 * prime, 6) == 3

    def test_a_small_factor_answers_past_the_division_limit(self):
        # isqrt(m) and the bound are past the limit, but a candidate within
        # it divides m, so the search answers instead of being refused
        assert smallest_prime_factor(10**18) == 2
        assert coprimality_witness(3 * (10**18 + 3), 10**12) == 3
        with pytest.raises(CoprimalityError) as exc:
            binom_lift(3, 10**12, 10**18)
        assert exc.value.prime == 2
        with pytest.raises(CoprimalityError) as exc:
            neg_pow_series_mod(1, 10**12, 10**18, 3)
        assert exc.value.prime == 2

    @pytest.mark.parametrize("call", [
        "smallest_prime_factor(10**18 + 3)",
        "binom_lift(3, 10**12, 10**18 + 3)",
        "neg_pow_series_mod(1, 10**12, 10**18 + 3, 3)",
    ])
    def test_library_search_past_the_division_limit_is_refused_at_once(self, call):
        # 10**9 trial divisions would take about a minute; the call runs in a
        # child process, so a hang fails at the timeout instead of stalling the suite
        script = f"import mary\ntry:\n    mary.{call}\nexcept ValueError as e:\n    print(e)\n"
        src = str(Path(series.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=5)
        assert done.returncode == 0
        assert done.stdout == ("the smallest-prime search for modulus 1000000000000000003 "
                               "needs 999999999 trial divisions, more than the limit of 10000000\n")


class TestCoprimalityError:
    # a --jobs worker sends its error back pickled
    @pytest.mark.parametrize("index", [None, 2])
    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip_keeps_every_field(self, clone, index):
        error = CoprimalityError("prime 2 offends", prime=2, modulus=4, index=index)
        twin = clone(error)
        assert type(twin) is CoprimalityError and twin is not error
        assert (str(twin), twin.prime, twin.modulus, twin.index) == ("prime 2 offends", 2, 4, index)


@st.composite
def kron_operands(draw):
    """A modulus, and outer and inner residue rows, outer often the shorter."""
    m = draw(st.sampled_from([2, 3, 9, 255, 256, 257, 1000]))
    residues = st.integers(0, m - 1)
    outer = draw(st.lists(residues, max_size=300))
    inner = draw(st.lists(residues, max_size=min(m, 40)))
    # the sweeps pass their levels as bytearrays when m <= 256
    if m <= 256 and draw(st.booleans()):
        outer = bytearray(outer)
    return m, outer, inner


class TestKron:
    @settings(max_examples=200, deadline=None)
    @given(operands=kron_operands(), add=st.sampled_from([0, 1]))
    def test_equals_the_comprehension(self, operands, add):
        m, outer, inner = operands
        out = _kron(outer, inner, add, m)
        assert type(out) is (bytearray if m <= 256 else list)
        assert list(out) == [(add + x * y) % m for x in outer for y in inner]
