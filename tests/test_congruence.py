import gc
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mary import (
    ColourSpec,
    CoprimalityError,
    Digits,
    HypothesisCheck,
    ModSeries,
    PartitionProblem,
    binom_lift,
    check_hypothesis,
    count_b_series,
    count_c_series,
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
from mary import congruence, series
from mary.cli import default_grid
from point_tables import GRID_LIMIT, grid_point_residues, point_residues


def problem(m, text):
    return PartitionProblem(m, ColourSpec.parse(text))


class TestDigits:
    def test_zero(self):
        assert to_digits(0, 3).digits == (0,)

    def test_least_significant_first(self):
        assert to_digits(25, 3).digits == (1, 2, 2)
        assert to_digits(6, 2).digits == (0, 1, 1)

    def test_top_index_and_value(self):
        d = to_digits(2000, 7)
        assert d.top_index == len(d.digits) - 1
        assert d.value == 2000

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(0, 10**9)
            base = rng.choice([2, 3, 5, 7, 9, 10, 16])
            d = to_digits(n, base)
            assert d.value == n
            assert all(0 <= digit < base for digit in d.digits)
            if n > 0:
                assert d.digits[-1] != 0

    def test_validation(self):
        with pytest.raises(ValueError):
            to_digits(-1, 3)
        with pytest.raises(ValueError):
            to_digits(4, 1)
        with pytest.raises(ValueError):
            Digits(3, (1, 0))
        with pytest.raises(ValueError):
            Digits(3, (3,))


class TestHypothesis:
    def test_single_colour_always_passes(self):
        result = check_hypothesis(problem(2, "1"), 100)
        assert result
        assert result.prime is None and result.index is None

    def test_three_colours_on_units_fails_mod_two(self):
        result = check_hypothesis(problem(2, "3"), 5)
        assert not result
        assert result.prime == 2
        assert result.index == 0

    def test_unit_bound_is_shifted_by_one(self):
        # k_0 = 5 needs primes above 4 only, so m = 5 passes at index 0
        assert check_hypothesis(problem(5, "1,4"), 1)
        assert check_hypothesis(problem(5, "5,1"), 3)
        assert not check_hypothesis(problem(5, "6,1"), 0)

    def test_failure_in_tail_reports_first_tail_index(self):
        result = check_hypothesis(problem(3, "1,2;4"), 9)
        assert not result
        assert result.prime == 3
        assert result.index == 2

    def test_composite_modulus_uses_smallest_prime(self):
        result = check_hypothesis(problem(9, "1,3"), 4)
        assert not result
        assert result.prime == 3
        assert result.index == 1

    def test_max_index_limits_the_scan(self):
        # the offending entry sits at index 2, out of scope here
        assert check_hypothesis(problem(3, "1,2,3;1"), 1)
        assert not check_hypothesis(problem(3, "1,2,3;1"), 2)

    def test_one_witness_search_decides_every_position(self, monkeypatch):
        bounds = []
        witness = congruence.coprimality_witness

        def counted(modulus, bound):
            bounds.append(bound)
            return witness(modulus, bound)

        monkeypatch.setattr(congruence, "coprimality_witness", counted)
        prob = problem(10**18 + 3, "5,9,7,8;6")
        assert len(congruence._bottoms(prob)[0]) == 5
        for max_index in range(6):
            assert check_hypothesis(prob, max_index)
        assert bounds == [9]

    def test_witness_search_past_the_division_limit_is_refused(self, monkeypatch):
        # isqrt(1009 * 1013) = 1010, so the search divides by 2..1010: 1009 divisions
        prob = problem(1009 * 1013, "1011;1010")
        monkeypatch.setattr(series, "_MAX_TRIAL_DIVISIONS", 1008)
        with pytest.raises(ValueError, match="needs 1009 trial divisions, more than the limit of 1008"):
            check_hypothesis(prob, 0)
        # the candidates 2..1008 find no factor, so the search itself is refused
        with pytest.raises(ValueError, match="needs 1009 trial divisions, more than the limit of 1008"):
            series.coprimality_witness(1009 * 1013, 1010)
        # a refused problem keeps no digit table, so a higher limit answers it
        monkeypatch.setattr(series, "_MAX_TRIAL_DIVISIONS", 1009)
        assert check_hypothesis(prob, 0) == HypothesisCheck(False, 1009, 0)
        assert series.coprimality_witness(1009 * 1013, 1010) == 1009

    def test_digit_tables_are_freed_with_their_problems(self):
        # each problem keeps its own digit table, so querying many distinct
        # problems and dropping them leaves no memory behind
        def query(count):
            for i in range(count):
                prob = PartitionProblem(7, ColourSpec((1, 2, 3 + i), 1))
                residue_b(1, prob, enforce_hypothesis=False)
                residue_c(1, prob, enforce_hypothesis=False)
                check_hypothesis(prob, 0)

        query(1)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            query(5000)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024


class TestBinomLift:
    def test_plain_value(self):
        assert binom_lift(4, 2, 5).value == 1  # C(4, 2) = 6

    def test_negative_top_is_lifted(self):
        assert binom_lift(-2, 1, 3).value == 1  # lifts to C(1, 1)

    def test_bottom_zero(self):
        assert binom_lift(-7, 0, 2).value == 1

    def test_rejects_shared_prime(self):
        with pytest.raises(CoprimalityError) as info:
            binom_lift(5, 3, 6)
        assert str(info.value) == "prime 2 divides both the modulus 6 and 3!"
        assert (info.value.prime, info.value.modulus, info.value.index) == (2, 6, None)

    def test_rejects_negative_bottom(self):
        with pytest.raises(ValueError):
            binom_lift(3, -1, 5)

    def test_lift_count_is_irrelevant(self):
        rng = random.Random(13)
        for _ in range(250):
            m = rng.choice([2, 3, 5, 7, 9, 11])
            bottom = rng.randrange(0, min(m if m != 9 else 3, 7))
            top = rng.randrange(-3 * m, bottom)
            base = binom_lift(top, bottom, m).value
            extra = rng.randrange(1, 4)
            steps = (bottom - top + m - 1) // m + extra
            assert comb(top + steps * m, bottom) % m == base


class TestResidueB:
    def test_empty_digit_product(self):
        assert residue_b(0, problem(3, "2,1")).value == 1

    def test_worked_example(self):
        # digits of 4 base 3 are (1, 1): C(2, 1) * C(2, 1) = 4
        assert residue_b(4, problem(3, "2,1")).value == 1

    def test_matches_oracle_in_single_colour_case(self):
        prob = problem(3, "1")
        coeffs = count_b_series(prob, 200).coeffs
        for n in range(201):
            assert residue_b(n, prob).value == coeffs[n] % 3

    def test_single_colour_closed_form(self):
        # with one colour everywhere the formula collapses to prod (1 + d_j), j >= 1
        prob = problem(5, "1")
        for n in range(0, 400):
            digits = to_digits(n, 5).digits
            expected = 1
            for d in digits[1:]:
                expected = expected * (1 + d) % 5
            assert residue_b(n, prob).value == expected

    def test_only_touched_digits_matter(self):
        # colour counts beyond the top digit index cannot change the residue
        low = residue_b(80, PartitionProblem(3, ColourSpec((2, 1, 1, 1, 1), 1)))
        high = residue_b(80, PartitionProblem(3, ColourSpec((2, 1, 1, 1, 2), 1)))
        assert to_digits(80, 3).top_index == 3
        assert low.value == high.value

    def test_hypothesis_enforced(self):
        with pytest.raises(CoprimalityError) as info:
            residue_b(5, problem(2, "3"))
        assert info.value.prime == 2

    def test_unchecked_evaluation_is_available(self):
        value = residue_b(5, problem(2, "3"), enforce_hypothesis=False)
        assert 0 <= value.value < 2

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            residue_b(-1, problem(3, "1"))


class TestDecomposition:
    def test_worked_example(self):
        dec = decompose_gapfree(25, 3)
        assert (dec.d0, dec.n, dec.s, dec.t) == (2, 27, 3, 3)
        assert dec.digits == (1,)

    def test_multiple_of_base_keeps_d0_zero(self):
        dec = decompose_gapfree(18, 3)
        assert (dec.d0, dec.n) == (0, 18)

    def test_digit_window(self):
        dec = decompose_gapfree(18, 3)
        # 18 = 0*1 + 0*3 + 2*9: lowest nonzero digit at index 2
        assert (dec.s, dec.t) == (2, 2)
        assert dec.digits == (2,)

    def test_small_values_lift_to_base(self):
        for n_prime in range(1, 7):
            dec = decompose_gapfree(n_prime, 7)
            assert dec.n == 7
            assert dec.d0 == 7 - n_prime
            assert (dec.s, dec.t, dec.digits) == (1, 1, (1,))

    def test_random_invariants(self):
        rng = random.Random(17)
        for _ in range(400):
            base = rng.choice([2, 3, 5, 7, 9])
            n_prime = rng.randrange(1, 100000)
            dec = decompose_gapfree(n_prime, base)
            assert dec.n == n_prime + dec.d0
            assert dec.n % base == 0
            assert 0 <= dec.d0 < base
            assert dec.s >= 1
            assert 1 <= dec.digits[0] < base
            assert len(dec.digits) == dec.t - dec.s + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decompose_gapfree(0, 3)


class TestResidueC:
    def test_worked_examples(self):
        prob = problem(3, "1")
        assert residue_c(3, prob).value == 1
        assert residue_c(4, prob).value == 2

    def test_leading_factor_is_one_when_aligned(self):
        # for n' divisible by m the lift is C(k0 - 1, k0 - 1) = 1, so k_0
        # drops out entirely and only the higher colour counts matter
        assert decompose_gapfree(10, 5).d0 == 0
        three_unit_colours = residue_c(10, problem(5, "3,1"))
        one_unit_colour = residue_c(10, problem(5, "1,1"))
        assert three_unit_colours.value == one_unit_colour.value
        assert three_unit_colours.value == count_c_series(problem(5, "3,1"), 10).coeffs[10] % 5

    def test_matches_oracle_small_sweep(self):
        for m, spec in ((3, "1"), (3, "2,1"), (2, "1"), (5, "2,3;1"), (9, "3,2;1")):
            prob = problem(m, spec)
            coeffs = count_c_series(prob, 150).coeffs
            for n in range(1, 151):
                assert residue_c(n, prob).value == coeffs[n] % m, (m, spec, n)

    def test_even_s_flips_the_sign(self):
        # n' = 9 has s = 2, so eps vanishes and the bracket enters negated
        prob = problem(3, "1")
        assert decompose_gapfree(9, 3).s == 2
        assert residue_c(9, prob).value == count_c_series(prob, 9).coeffs[9] % 3 == 0

    def test_hypothesis_enforced(self):
        with pytest.raises(CoprimalityError):
            residue_c(5, problem(2, "1,3"))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            residue_c(0, problem(3, "1"))


class TestExpansions:
    def test_product_side_binary(self):
        # counts 1, 1, 2, 2, 4 reduce to 1, 1, 0, 0, 0 mod 2
        assert expand_b_product(problem(2, "1"), 4).coeffs == (1, 1, 0, 0, 0)

    def test_theorem_side_binary(self):
        # the index-1 polynomial is 1 + C(2,1) q^2 which vanishes mod 2
        assert expand_b_theorem(problem(2, "1"), 2).coeffs == (1, 1, 0)

    def test_product_coefficient_example(self):
        assert expand_b_product(problem(3, "2,1"), 4).coeffs[4] == 1  # 7 mod 3

    def test_constant_terms(self):
        for m, spec in ((2, "1"), (3, "2,1"), (5, "4,2;1")):
            assert expand_b_product(problem(m, spec), 10).coeffs[0] == 1
            assert expand_b_theorem(problem(m, spec), 10).coeffs[0] == 1
            assert expand_c_product(problem(m, spec), 10).coeffs[0] == 1
            assert expand_c_theorem(problem(m, spec), 10).coeffs[0] == 1

    def test_gapfree_product_side(self):
        assert expand_c_product(problem(3, "1"), 4).coeffs == (1, 1, 1, 1, 2)
        assert expand_c_product(problem(2, "1"), 6).coeffs[6] == 1  # c(6) = 3

    def test_unrestricted_identity_examples(self):
        for m, spec, degree in ((3, "2,1", 81), (3, "1", 81), (5, "2,3;1", 125), (2, "2;1", 64)):
            prob = problem(m, spec)
            assert expand_b_theorem(prob, degree).coeffs == expand_b_product(prob, degree).coeffs

    def test_gapfree_identity_examples(self):
        for m, spec, degree in ((3, "1", 81), (3, "2,1", 81), (5, "2,3;1", 125), (2, "2;1", 64)):
            prob = problem(m, spec)
            assert expand_c_theorem(prob, degree).coeffs == expand_c_product(prob, degree).coeffs

    def test_theorem_coefficients_match_residues(self):
        prob = problem(3, "2,1")
        b_side = expand_b_theorem(prob, 81)
        for n in range(82):
            assert b_side.coeffs[n] == residue_b(n, prob).value
        c_side = expand_c_theorem(prob, 81)
        for n in range(1, 82):
            assert c_side.coeffs[n] == residue_c(n, prob).value

    def test_degree_zero(self):
        prob = problem(3, "2,1")
        assert expand_b_theorem(prob, 0).coeffs == (1,)
        assert expand_c_theorem(prob, 0).coeffs == (1,)

    def test_hypothesis_enforced_on_theorem_sides(self):
        with pytest.raises(CoprimalityError):
            expand_b_theorem(problem(2, "3"), 8)
        with pytest.raises(CoprimalityError):
            expand_c_theorem(problem(2, "3"), 8)

    def test_unchecked_theorem_sides_evaluate(self):
        prob = problem(2, "3")
        assert len(expand_b_theorem(prob, 8, enforce_hypothesis=False).coeffs) == 9
        assert len(expand_c_theorem(prob, 8, enforce_hypothesis=False).coeffs) == 9

    @pytest.mark.parametrize("degree", [0, 1, 10])
    def test_gapfree_identity_at_a_huge_prime_base(self, degree):
        # the lead row stops at the truncation; at m entries it would never finish
        prob = problem(10**18 + 3, "2,1;3")
        assert expand_c_theorem(prob, degree) == expand_c_product(prob, degree)

    def test_product_sides_need_no_hypothesis(self):
        # reductions of exact counts are defined for any colour spec
        prob = problem(2, "3")
        assert expand_b_product(prob, 8).coeffs[0] == 1
        assert expand_c_product(prob, 8).coeffs[0] == 1

    @pytest.mark.parametrize("failing", [False, True])
    def test_product_sides_equal_the_reduced_exact_series_on_grid(self, failing):
        # built mod m level by level, they equal one reduction of the exact series
        for prob in default_grid(failing=failing):
            m = prob.m
            degree = max(2000, m**4)
            assert expand_b_product(prob, degree) == series.reduce(count_b_series(prob, degree), m)
            c = [v % m for v in count_c_series(prob, degree).coeffs]
            c[0] = 1
            assert expand_c_product(prob, degree).coeffs == tuple(c), prob

    @pytest.mark.parametrize("build", [expand_b_product, expand_c_product])
    def test_product_sides_refuse_a_negative_truncation(self, build):
        with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
            build(problem(3, "2,1"), -1)


def mul_chain_b_theorem(prob, truncation):
    """expand_b_theorem as a series.mul chain of one digit polynomial per position."""
    m = prob.m

    def digit_poly(power, bottom):
        coeffs = [0] * (truncation + 1)
        for l in range(m):
            if l * power <= truncation:
                coeffs[l * power] = comb(bottom + l, bottom) % m
        return ModSeries(m, truncation, coeffs)

    acc = digit_poly(1, prob.colours.count(0) - 1)
    power, index = m, 1
    while power <= truncation:
        acc = series.mul(acc, digit_poly(power, prob.colours.count(index)))
        power, index = power * m, index + 1
    return acc


def mul_chain_c_theorem(prob, truncation, *, enforce_hypothesis=True):
    """expand_c_theorem as 1 + L * sum_i G_{i+1} * prod_{j<=i} D_j, multiplied out by series.mul."""
    m = prob.m
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    top = 0
    while m ** (top + 1) <= truncation:
        top += 1
    if enforce_hypothesis:
        result = check_hypothesis(prob, top + 1)
        if not result:
            raise CoprimalityError("hypothesis fails", prime=result.prime, modulus=m,
                                   index=result.index)

    def poly(terms):
        coeffs = [0] * (truncation + 1)
        for exponent, value in terms:
            if exponent <= truncation:
                coeffs[exponent] = value % m
        return ModSeries(m, truncation, coeffs)

    def entry(index, digit):
        k = prob.colours.count(index) - (index == 0)
        return comb(k + digit, k)

    lead = poly((l, entry(0, l)) for l in range(1, m + 1))
    total = [0] * (truncation + 1)
    partial = ModSeries.one(m, truncation)
    power = 1
    for index in range(top + 1):
        if index >= 1:
            partial = series.mul(partial, poly((l * power, entry(index, l) - 1) for l in range(m)))
        term = series.mul(series.geometric_inverse_mod(power * m, m, truncation), partial)
        for e, c in enumerate(term.coeffs):
            total[e] += c
        power *= m
    body = series.mul(lead, ModSeries(m, truncation, [c % m for c in total]))
    coeffs = list(body.coeffs)
    coeffs[0] = (coeffs[0] + 1) % m
    return ModSeries(m, truncation, coeffs)


class TestBatchResidues:
    @pytest.mark.parametrize("failing", [False, True])
    def test_match_point_formulas_on_grid(self, failing):
        for prob, (b, c) in grid_point_residues(failing).items():
            assert residues_b(prob, GRID_LIMIT, enforce_hypothesis=not failing) == b, prob
            assert residues_c(prob, GRID_LIMIT, enforce_hypothesis=not failing) == c, prob

    @pytest.mark.parametrize("m, spec", [
        (15, "3,2;2"), (15, "1,1,2;1"), (25, "5,4;3"), (27, "2,1,2;2"),
        (45, "3,2;1"), (45, "1,2,1;2"),
    ])
    def test_match_point_formulas_on_composite_moduli(self, m, spec):
        prob = problem(m, spec)
        assert check_hypothesis(prob, 10)
        for limit in (0, 1, m - 1, m, m + 1, 700, m * m + m):
            b, c = point_residues(prob, limit, True)
            assert residues_b(prob, limit) == b
            assert residues_c(prob, limit) == c

    def test_match_point_formulas_past_the_square_of_a_list_modulus(self):
        # m > 256 takes the list path; past m^2 the lowest nonzero digit of
        # the rounded-up n reaches position 2, the even case 1 - U_2
        prob = problem(257, "3,2;1")
        limit = 257 * 257 + 257
        b, c = point_residues(prob, limit, True)
        assert residues_b(prob, limit) == b
        assert residues_c(prob, limit) == c

    def test_base_above_limit_builds_short_rows(self):
        prob = problem(10007, "3,2;4")
        b, c = point_residues(prob, 50, True)
        assert residues_b(prob, 50) == b
        assert residues_c(prob, 50) == c

    def test_limit_zero(self):
        prob = problem(3, "2,1")
        assert residues_b(prob, 0) == [1]
        assert residues_c(prob, 0) == [0]
        with pytest.raises(ValueError):
            residues_b(prob, -1)
        with pytest.raises(ValueError):
            residues_c(prob, -1)

    @pytest.mark.parametrize("m, spec, limit", [
        (2, "3", 10), (2, "1,3", 10), (3, "1,2,3;1", 40), (3, "1,2,3;1", 5),
        (3, "1,2,3;1", 7), (9, "1,1,1,3;1", 800), (5, "6,1", 1),
    ])
    def test_errors_match_first_failing_point_call(self, m, spec, limit):
        prob = problem(m, spec)
        for batch, point, start in ((residues_b, residue_b, 0), (residues_c, residue_c, 1)):
            first = None
            for n in range(start, limit + 1):
                try:
                    point(n, prob)
                except CoprimalityError as exc:
                    first = exc
                    break
            if first is None:
                batch(prob, limit)
                continue
            with pytest.raises(CoprimalityError) as info:
                batch(prob, limit)
            assert (info.value.prime, info.value.index) == (first.prime, first.index)

    @pytest.mark.parametrize("m, spec, degree", [
        (2, "1", 64), (2, "2;1", 100), (3, "2,1", 81), (5, "2,3;1", 125),
        (7, "4,2;3", 400), (9, "3,2;1", 729), (10007, "2", 30),
    ])
    def test_b_theorem_equals_mul_chain(self, m, spec, degree):
        prob = problem(m, spec)
        assert expand_b_theorem(prob, degree) == mul_chain_b_theorem(prob, degree)

    @pytest.mark.parametrize("failing", [False, True])
    def test_c_theorem_equals_mul_chain_on_grid(self, failing):
        for prob in default_grid(failing=failing):
            m = prob.m
            for degree in sorted({0, 1, 2, m - 1, m, m + 1, m**2, m**3 + 5, m**4}):
                sweep = expand_c_theorem(prob, degree, enforce_hypothesis=not failing)
                assert sweep == mul_chain_c_theorem(
                    prob, degree, enforce_hypothesis=not failing), (prob, degree)

    @pytest.mark.parametrize("m, spec, degree", [
        (2, "3", 0), (2, "3", 8), (2, "1,3", 1), (2, "1,3", 3), (3, "1,2,3;1", 8),
        (3, "1,2,3;1", 9), (9, "1,1,1,3;1", 800), (5, "6,1", 4), (3, "2,1", -1),
        # the last degrees that answer: one higher, both sides raise
        (3, "1,2,3;1", 2), (9, "1,1,1,3;1", 80),
    ])
    def test_c_theorem_errors_match_mul_chain(self, m, spec, degree):
        prob = problem(m, spec)
        try:
            mul_chain_c_theorem(prob, degree)
        except (CoprimalityError, ValueError) as exc:
            expected = exc
        else:
            expected = None
        if expected is None:
            assert expand_c_theorem(prob, degree) == mul_chain_c_theorem(prob, degree)
            return
        with pytest.raises(type(expected)) as info:
            expand_c_theorem(prob, degree)
        assert getattr(info.value, "prime", None) == getattr(expected, "prime", None)
        assert getattr(info.value, "index", None) == getattr(expected, "index", None)


def comprehension_row(prob, index, length):
    return [reference_entry(prob, index, d) for d in range(length)]


def comprehension_residues_b(prob, limit):
    """residues_b without the hypothesis, one list comprehension per Kronecker step."""
    m = prob.m
    acc = comprehension_row(prob, 0, min(m, limit + 1))
    power, j = m, 1
    while power <= limit:
        row = comprehension_row(prob, j, min(m, limit // power + 1))
        acc = [r * a % m for r in row for a in acc][: limit + 1]
        power, j = power * m, j + 1
    return acc


def comprehension_tail_sums(prob, top_n):
    m = prob.m
    tails = [[1]]
    for p in range(to_digits(top_n, m).top_index, 0, -1):
        size = top_n // m**p + 1
        row = [(v - 1) % m for v in comprehension_row(prob, p, min(m, size))]
        tails.append([(1 + r * u) % m for u in tails[-1] for r in row][:size])
    tails.reverse()
    return tails


def comprehension_residues_c(prob, limit):
    """residues_c without the hypothesis, the F table built block by block."""
    if limit == 0:
        return [0]
    m = prob.m
    top_n = -(-limit // m) * m
    tails = comprehension_tail_sums(prob, top_n)
    body = [0]
    for p in range(to_digits(top_n, m).top_index, 0, -1):
        size = len(tails[p - 1])
        row = [(v - 1) % m for v in comprehension_row(prob, p, min(m, size) - 1)]
        eps = p % 2
        sign = 1 if eps else -1
        next_body = []
        for u, f in zip(tails[p], body):
            next_body.append(f)
            next_body += [(eps + sign * r * u) % m for r in row]
        body = next_body[:size]
    lead = comprehension_row(prob, 0, min(m, limit + 1))
    lead = lead[1:] + lead[:1]
    return [0] + [c * f % m for f in body[1:] for c in lead][:limit]


def comprehension_c_theorem(prob, truncation):
    """expand_c_theorem's coefficients without the hypothesis, as comprehensions."""
    m = prob.m
    lead = comprehension_row(prob, 0, m + 1)[1:]
    body = [c * u % m for u in comprehension_tail_sums(prob, truncation)[0] for c in lead]
    return [1] + body[:truncation]


class TestDigitKernels:
    """The byte-table path (m <= 256) and the list path (m > 256) of the digit products."""

    @pytest.mark.parametrize("m", [2, 3, 9, 251, 255, 256, 257, 1000])
    def test_sweeps_and_expansions_equal_the_comprehensions(self, m):
        rng = random.Random(m)
        specs = [ColourSpec((3, 2), 1),
                 ColourSpec(tuple(rng.randint(1, 9) for _ in range(3)), rng.randint(1, 9))]
        for spec in specs:
            prob = PartitionProblem(m, spec)
            for limit in sorted({0, 1, 2, m - 1, m, m + 1, rng.randint(0, 3000)}):
                b = comprehension_residues_b(prob, limit)
                assert residues_b(prob, limit, enforce_hypothesis=False) == b, (spec, limit)
                assert residues_c(prob, limit, enforce_hypothesis=False) == \
                    comprehension_residues_c(prob, limit), (spec, limit)
                assert expand_b_theorem(prob, limit, enforce_hypothesis=False).coeffs == \
                    tuple(b), (spec, limit)
                assert expand_c_theorem(prob, limit, enforce_hypothesis=False).coeffs == \
                    tuple(comprehension_c_theorem(prob, limit)), (spec, limit)

    @pytest.mark.parametrize("m", [2, 256, 257])
    def test_return_types(self, m):
        # a bytearray never equals a list: leaked into verify, every check
        # would miss the equality fast path and walk the mismatches
        prob = PartitionProblem(m, ColourSpec((3, 2), 1))
        for limit in (0, 1, m + 1, m * m + 2):
            for sweep in (residues_b, residues_c):
                values = sweep(prob, limit, enforce_hypothesis=False)
                assert type(values) is list, (sweep, limit)
                assert all(type(v) is int for v in values), (sweep, limit)
            for theorem in (expand_b_theorem, expand_c_theorem):
                coeffs = theorem(prob, limit, enforce_hypothesis=False).coeffs
                assert type(coeffs) is tuple, (theorem, limit)
                assert all(type(c) is int for c in coeffs), (theorem, limit)


def reference_check_hypothesis(prob, max_index):
    """check_hypothesis as a loop over the digit indices, one witness search each."""
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    for index in range(min(max_index, len(prob.colours.explicit)) + 1):
        k = prob.colours.count(index)
        witness = series.coprimality_witness(prob.m, k - 1 if index == 0 else k)
        if witness is not None:
            return HypothesisCheck(False, witness, index)
    return HypothesisCheck(True)


def reference_entry(prob, index, digit):
    """C(k + digit, k) mod m, k the colour count at index, less one at index 0."""
    k = prob.colours.count(index) - (index == 0)
    return comb(k + digit, k) % prob.m


def reference_require(prob, max_index):
    result = reference_check_hypothesis(prob, max_index)
    if not result:
        raise CoprimalityError("hypothesis fails", prime=result.prime, modulus=prob.m,
                               index=result.index)


def reference_residue_b(n, prob, *, enforce_hypothesis=True):
    """residue_b(n, prob).value as one digit entry per digit of to_digits(n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    digits = to_digits(n, prob.m)
    if enforce_hypothesis:
        reference_require(prob, digits.top_index)
    value = 1
    for j, d in enumerate(digits.digits):
        value = value * reference_entry(prob, j, d) % prob.m
    return value


def reference_residue_c(n_prime, prob, *, enforce_hypothesis=True):
    """residue_c(n', prob).value bottom up from decompose_gapfree:
    lead * (eps_s + sign_s * bracket * tail sum), the tail sum over i = s..t."""
    if n_prime < 1:
        raise ValueError("the gap-free residue formula covers n >= 1")
    m = prob.m
    dec = decompose_gapfree(n_prime, m)
    if enforce_hypothesis:
        reference_require(prob, dec.t)
    lead = reference_entry(prob, 0, -dec.d0 % m)
    bracket = (reference_entry(prob, dec.s, dec.digits[0] - 1) - 1) % m
    tail_sum, running = 0, 1
    for i in range(dec.s, dec.t + 1):
        if i > dec.s:
            running = running * (reference_entry(prob, i, dec.digits[i - dec.s]) - 1) % m
        tail_sum = (tail_sum + running) % m
    eps = dec.s % 2
    sign = 1 if eps else -1
    return lead * (eps + sign * bracket * tail_sum) % m


def outcome(formula, n, prob, enforce):
    """The residue value, or the error's type, prime and index."""
    try:
        value = formula(n, prob, enforce_hypothesis=enforce)
    except ValueError as exc:  # CoprimalityError included
        return type(exc), getattr(exc, "prime", None), getattr(exc, "index", None)
    return getattr(value, "value", value)


# explicit prefixes may end in entries equal to the tail, as unnormalized
# specs do; entries reach 8 so every prime below 8 can offend
unnormalized_specs = st.builds(
    lambda explicit, tail, repeats: ColourSpec(explicit + (tail,) * repeats, tail),
    st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple),
    st.integers(1, 8),
    st.integers(0, 2),
)


class TestReferenceForms:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(2, 60), spec=unnormalized_specs, enforce=st.booleans(),
           ns=st.lists(st.one_of(st.integers(0, 10**5), st.integers(10**999, 10**1000),
                                 st.tuples(st.integers(10**999, 10**1000), st.integers(1, 4),
                                           st.integers(0, 59))),
                       min_size=1, max_size=4))
    def test_point_formulas_equal_the_references(self, m, spec, enforce, ns):
        prob = PartitionProblem(m, spec)
        for n in ns:
            if isinstance(n, tuple):
                # y m^j - d rounds up to y m^j: the lowest nonzero digit
                # sits at s >= j, so even s is drawn often
                y, j, d = n
                n = y * m**j - d % m
            assert outcome(residue_b, n, prob, enforce) == \
                outcome(reference_residue_b, n, prob, enforce), n
            assert outcome(residue_c, n, prob, enforce) == \
                outcome(reference_residue_c, n, prob, enforce), n

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(st.integers(2, 60),
                       st.sampled_from([2**40, 3**20, 10**18 + 3, 6 * (10**9 + 7)])),
           spec=unnormalized_specs)
    def test_check_hypothesis_equals_the_reference_loop(self, m, spec):
        prob = PartitionProblem(m, spec)
        for max_index in range(len(spec.explicit) + 4):
            assert check_hypothesis(prob, max_index) == \
                reference_check_hypothesis(prob, max_index), max_index
        with pytest.raises(ValueError):
            check_hypothesis(prob, -1)
