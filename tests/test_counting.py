import random

import pytest

from mary import (
    ENUMERATION_CAP,
    ColourSpec,
    EnumerationCapError,
    PartitionProblem,
    count_b_enum,
    count_b_series,
    count_c_enum,
    count_c_series,
    mul,
    neg_pow_series_exact,
)
from mary.cli import default_grid


def problem(m, text):
    return PartitionProblem(m, ColourSpec.parse(text))


def fold_inverse_factor(coeffs, period, count):
    """Multiply coeffs in place by (1 - q^period)^(-count), one ascending pass per factor."""
    for _ in range(count):
        for i in range(period, len(coeffs)):
            coeffs[i] += coeffs[i - period]


def fold_b_series(prob, truncation):
    """b(0..truncation) as the product of (1 - q^{m^j})^{-k_j}, folded factor by factor."""
    coeffs = [1] + [0] * truncation
    power, index = 1, 0
    while power <= truncation:
        fold_inverse_factor(coeffs, power, prob.colours.count(index))
        power *= prob.m
        index += 1
    return tuple(coeffs)


def fold_c_series(prob, truncation):
    """c(0..truncation) as sum_i prod_{j<=i} ((1 - q^{m^j})^{-k_j} - 1), folded factor by factor."""
    total = [0] * (truncation + 1)
    partial = [1] + [0] * truncation
    power, index, minimal_exponent = 1, 0, 0
    while True:
        minimal_exponent += power
        if minimal_exponent > truncation:
            break
        grown = partial.copy()
        fold_inverse_factor(grown, power, prob.colours.count(index))
        partial = [g - p for g, p in zip(grown, partial)]
        for e, c in enumerate(partial):
            total[e] += c
        power *= prob.m
        index += 1
    return tuple(total)


class TestColourSpec:
    def test_parse_with_tail(self):
        spec = ColourSpec.parse("2,1;1")
        assert spec.explicit == (2, 1)
        assert spec.tail == 1

    def test_parse_tail_defaults_to_last_entry(self):
        assert ColourSpec.parse("2,1").tail == 1
        assert ColourSpec.parse("3").tail == 3

    def test_parse_rejects_garbage(self):
        for bad in ("", "a", "1,;2", "1;", "1;x", ";2"):
            with pytest.raises(ValueError):
                ColourSpec.parse(bad)

    def test_count_switches_to_tail(self):
        spec = ColourSpec((5, 2), 7)
        assert [spec.count(j) for j in range(5)] == [5, 2, 7, 7, 7]

    def test_count_rejects_negative_index(self):
        with pytest.raises(ValueError):
            ColourSpec((1,), 1).count(-1)

    def test_positive_entries_required(self):
        with pytest.raises(ValueError):
            ColourSpec((0,), 1)
        with pytest.raises(ValueError):
            ColourSpec((1,), 0)
        with pytest.raises(ValueError):
            ColourSpec((), 1)

    def test_normalized_drops_redundant_suffix(self):
        assert ColourSpec((2, 1, 1), 1).normalized() == ColourSpec((2,), 1)
        assert ColourSpec((1, 1), 1).normalized() == ColourSpec((1,), 1)
        assert ColourSpec((2, 1), 3).normalized() == ColourSpec((2, 1), 3)

    def test_str_round_trips(self):
        spec = ColourSpec((2, 1), 4)
        assert ColourSpec.parse(str(spec)) == spec

    def test_problem_requires_base_two(self):
        with pytest.raises(ValueError):
            PartitionProblem(1, ColourSpec((1,), 1))


class TestSeriesOracle:
    def test_single_colour_base_three(self):
        assert count_b_series(problem(3, "1"), 4).coeffs == (1, 1, 1, 2, 2)

    def test_two_colours_on_units(self):
        assert count_b_series(problem(3, "2,1"), 4).coeffs == (1, 2, 3, 5, 7)

    def test_binary_partitions(self):
        # classic doubling staircase
        assert count_b_series(problem(2, "1"), 8).coeffs == (1, 1, 2, 2, 4, 4, 6, 6, 10)

    def test_degree_zero(self):
        assert count_b_series(problem(5, "3"), 0).coeffs == (1,)
        assert count_c_series(problem(5, "3"), 0).coeffs == (0,)

    def test_gapfree_single_colour_base_three(self):
        assert count_c_series(problem(3, "1"), 9).coeffs == (0, 1, 1, 1, 2, 2, 2, 3, 3, 3)

    def test_gapfree_binary(self):
        assert count_c_series(problem(2, "1"), 6).coeffs == (0, 1, 1, 2, 2, 3, 3)

    def test_gapfree_constant_term_is_zero(self):
        for m, spec in ((2, "1"), (3, "2,1"), (5, "4")):
            assert count_c_series(problem(m, spec), 12).coeffs[0] == 0

    def test_equals_literal_product_of_factors(self):
        # the series oracle is the product of (1 - q^{m^j})^{-k_j}
        for m, spec, degree in ((2, "1", 33), (3, "2,1", 40), (5, "2,3;1", 30)):
            prob = problem(m, spec)
            acc = neg_pow_series_exact(1, prob.colours.count(0), degree)
            power, index = m, 1
            while power <= degree:
                acc = mul(acc, neg_pow_series_exact(power, prob.colours.count(index), degree))
                power *= m
                index += 1
            assert count_b_series(prob, degree).coeffs == acc.coeffs

    def test_coefficients_nonnegative(self):
        for m, spec in ((2, "2"), (3, "1,2;2"), (9, "3,1")):
            prob = problem(m, spec)
            assert all(c >= 0 for c in count_b_series(prob, 80).coeffs)
            assert all(c >= 0 for c in count_c_series(prob, 80).coeffs)

    def test_more_colours_never_decrease_counts(self):
        base = count_b_series(problem(3, "1,1"), 50).coeffs
        richer = count_b_series(problem(3, "2,1"), 50).coeffs
        assert all(r >= b for r, b in zip(richer, base))
        base_c = count_c_series(problem(3, "1,1"), 50).coeffs
        richer_c = count_c_series(problem(3, "1,2"), 50).coeffs
        assert all(r >= b for r, b in zip(richer_c, base_c))

    def test_gapfree_at_most_unrestricted(self):
        for m, spec in ((2, "1"), (3, "2,1"), (5, "2,3;1")):
            prob = problem(m, spec)
            b = count_b_series(prob, 60).coeffs
            c = count_c_series(prob, 60).coeffs
            assert all(cv <= bv for cv, bv in zip(c[1:], b[1:]))

    def test_tail_beyond_truncation_is_irrelevant(self):
        # powers past the truncation never contribute
        low = count_b_series(PartitionProblem(3, ColourSpec((2, 1), 1)), 8).coeffs
        high = count_b_series(PartitionProblem(3, ColourSpec((2, 1), 6)), 8).coeffs
        assert low == high

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            count_b_series(problem(2, "1"), -1)
        with pytest.raises(ValueError):
            count_c_series(problem(2, "1"), -1)


class TestEnumerationOracle:
    def test_binary_three(self):
        # {1,1,1} and {2,1}
        assert count_b_enum(problem(2, "1"), 3) == 2

    def test_two_colours_on_units(self):
        assert count_b_enum(problem(3, "2,1"), 4) == 7

    def test_zero_has_the_empty_partition(self):
        assert count_b_enum(problem(7, "4"), 0) == 1

    def test_gapfree_examples(self):
        assert count_c_enum(problem(2, "1"), 1) == 1
        assert count_c_enum(problem(3, "1"), 3) == 1
        assert count_c_enum(problem(2, "1"), 6) == 3

    def test_gapfree_rejects_zero(self):
        with pytest.raises(ValueError):
            count_c_enum(problem(2, "1"), 0)

    def test_cap_refusal_mentions_series_oracle(self):
        with pytest.raises(EnumerationCapError) as info:
            count_b_enum(problem(2, "1"), ENUMERATION_CAP + 1)
        assert "series" in str(info.value)
        with pytest.raises(EnumerationCapError):
            count_c_enum(problem(2, "1"), ENUMERATION_CAP + 1)

    def test_cap_itself_is_answered(self):
        prob = problem(2, "1")
        n = ENUMERATION_CAP
        assert count_b_enum(prob, n) == count_b_series(prob, n).coeffs[n]
        assert count_c_enum(prob, n) == count_c_series(prob, n).coeffs[n]
        with pytest.raises(EnumerationCapError):
            count_b_enum(prob, n + 1)
        with pytest.raises(EnumerationCapError):
            count_c_enum(prob, n + 1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            count_b_enum(problem(2, "1"), -1)

    @pytest.mark.parametrize("spec", ["2", "3,1", "5,2;4"])
    def test_zero_is_one_whatever_the_unit_colours(self, spec):
        # the walk's bottom binomial C(k_0 - 1, k_0 - 1) counts the empty partition
        for m in (2, 3, 9):
            assert count_b_enum(problem(m, spec), 0) == 1

    CAP_TEXT = (
        f"n = {ENUMERATION_CAP + 1} exceeds the enumeration cap {ENUMERATION_CAP}; "
        "use the series oracle (count_b_series / count_c_series) instead"
    )

    @pytest.mark.parametrize("n, kind, text", [
        (-1, ValueError, "n must be nonnegative, got -1"),
        (ENUMERATION_CAP + 1, EnumerationCapError, CAP_TEXT),
    ])
    def test_unrestricted_refusals(self, n, kind, text):
        with pytest.raises(ValueError) as info:
            count_b_enum(problem(3, "2,1"), n)
        assert type(info.value) is kind
        assert str(info.value) == text

    @pytest.mark.parametrize("n, kind, text", [
        # the n >= 1 refusal comes before the nonnegative one
        (-1, ValueError, "gap-free counts are defined for n >= 1, got -1"),
        (0, ValueError, "gap-free counts are defined for n >= 1, got 0"),
        (ENUMERATION_CAP + 1, EnumerationCapError, CAP_TEXT),
    ])
    def test_gapfree_refusals(self, n, kind, text):
        with pytest.raises(ValueError) as info:
            count_c_enum(problem(3, "2,1"), n)
        assert type(info.value) is kind
        assert str(info.value) == text


class TestOracleAgreement:
    PROBLEMS = [
        (2, "1"), (2, "2,1;1"), (3, "1"), (3, "2,1"), (3, "3,2;1"),
        (5, "2,3;1"), (5, "4"), (7, "6,1;2"), (9, "3,2;1"),
    ]

    def test_unrestricted_agreement(self):
        for m, spec in self.PROBLEMS:
            prob = problem(m, spec)
            coeffs = count_b_series(prob, 60).coeffs
            for n in range(61):
                assert count_b_enum(prob, n) == coeffs[n], (m, spec, n)

    def test_gapfree_agreement(self):
        for m, spec in self.PROBLEMS:
            prob = problem(m, spec)
            coeffs = count_c_series(prob, 60).coeffs
            for n in range(1, 61):
                assert count_c_enum(prob, n) == coeffs[n], (m, spec, n)

    def test_random_specs_agree(self):
        rng = random.Random(31)
        for _ in range(12):
            m = rng.choice([2, 3, 4, 5, 6])
            explicit = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 4)))
            prob = PartitionProblem(m, ColourSpec(explicit, rng.randrange(1, 5)))
            limit = rng.randrange(20, 45)
            b = count_b_series(prob, limit).coeffs
            c = count_c_series(prob, limit).coeffs
            for n in range(limit + 1):
                assert count_b_enum(prob, n) == b[n]
                if n >= 1:
                    assert count_c_enum(prob, n) == c[n]


class TestFunctionalEquation:
    """The oracles, built through B_j = (1 - q)^{-k_j} B_{j+1}(q^m), against the folds."""

    @staticmethod
    def assert_equals_fold(prob, degree):
        assert count_b_series(prob, degree).coeffs == fold_b_series(prob, degree), (prob, degree)
        assert count_c_series(prob, degree).coeffs == fold_c_series(prob, degree), (prob, degree)

    @pytest.mark.parametrize("failing", [False, True])
    def test_equals_fold_on_grid(self, failing):
        for prob in default_grid(failing=failing):
            m = prob.m
            for degree in sorted({0, 1, 2, m - 1, m, m + 1, m**2, m**3 + 5, m**4}):
                self.assert_equals_fold(prob, degree)

    @pytest.mark.parametrize("m, spec", [
        (6, "1"), (6, "5,2;3"), (10, "4,1;2"), (12, "2,6,1;3"), (15, "3,3;1"),
        (25, "1,4;2"), (27, "6,2,5;1"), (45, "2;5"),
    ])
    def test_equals_fold_on_composite_moduli(self, m, spec):
        for degree in sorted({0, 1, 2, m - 1, m, m + 1, m**2, m**2 + 7, 3000}):
            self.assert_equals_fold(problem(m, spec), degree)
