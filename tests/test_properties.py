"""Property tests: the series oracles, the batch sweeps, the point formulas at
huge n, the gap-free expansion, the product sides built mod m, the binomial
lift, the formulas past a failing hypothesis, verify's compare step and the
text and CSV tables."""

import io
import random
from contextlib import redirect_stdout
from math import comb
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mary import (
    ColourSpec,
    PartitionProblem,
    binom_lift,
    coprimality_witness,
    count_b_enum,
    count_b_series,
    count_c_enum,
    count_c_series,
    expand_b_product,
    expand_b_theorem,
    expand_c_product,
    expand_c_theorem,
    residue_b,
    residue_c,
    residues_b,
    residues_c,
    smallest_prime_factor,
    to_digits,
)
from mary import cli
from mary.cli import MISMATCH_RECORD_LIMIT, _compare, default_grid
from mary.congruence import _bottoms
from test_cli import line_by_line_emit
from test_counting import fold_b_series, fold_c_series

SETTINGS = settings(max_examples=80, deadline=None)

colour_specs = st.builds(
    ColourSpec,
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    st.integers(1, 6),
)


@SETTINGS
@given(m=st.integers(2, 60), spec=colour_specs, degree=st.integers(0, 500))
def test_series_oracles_equal_the_folds_and_the_enumeration(m, spec, degree):
    prob = PartitionProblem(m, spec)
    b = count_b_series(prob, degree).coeffs
    c = count_c_series(prob, degree).coeffs
    assert b == fold_b_series(prob, degree)
    assert c == fold_c_series(prob, degree)
    for n in range(min(degree, 60) + 1):
        assert b[n] == count_b_enum(prob, n)
        assert n == 0 or c[n] == count_c_enum(prob, n)


@SETTINGS
@given(m=st.sampled_from([15, 25, 27, 35, 45, 49]), spec=colour_specs,
       limit=st.integers(0, 400))
def test_sweeps_equal_point_formulas_on_composite_moduli(m, spec, limit):
    prob = PartitionProblem(m, spec)
    b = [residue_b(n, prob, enforce_hypothesis=False).value for n in range(limit + 1)]
    c = [0] + [residue_c(n, prob, enforce_hypothesis=False).value
               for n in range(1, limit + 1)]
    assert residues_b(prob, limit, enforce_hypothesis=False) == b
    assert residues_c(prob, limit, enforce_hypothesis=False) == c


@SETTINGS
@given(m=st.integers(2, 49), spec=colour_specs, r=st.integers(0, 48),
       x=st.integers(10**900, 10**1000))
def test_unrestricted_formula_peels_the_lowest_digit_at_huge_n(m, spec, r, x):
    # residue_b(m x + r) is the index-0 entry at r times the product over
    # the digits of x, which is residue_b(x) for the spec shifted down one
    # position (k'_0 - 1 = k_1, k'_j = k_{j+1})
    r %= m
    prob = PartitionProblem(m, spec)
    shifted = PartitionProblem(
        m, ColourSpec((spec.count(1) + 1,) + spec.explicit[2:], spec.tail))
    lead = comb(spec.count(0) - 1 + r, r) % m
    expected = lead * residue_b(x, shifted, enforce_hypothesis=False).value % m
    assert residue_b(m * x + r, prob, enforce_hypothesis=False).value == expected


@st.composite
def admissible_problems(draw):
    """A base and a colour spec whose entries all lie below its smallest prime."""
    m = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 25]))
    p = smallest_prime_factor(m)
    explicit = [draw(st.integers(1, p))]
    explicit += draw(st.lists(st.integers(1, p - 1), max_size=3))
    return PartitionProblem(m, ColourSpec(tuple(explicit), draw(st.integers(1, p - 1))))


@SETTINGS
@given(prob=admissible_problems(), d0=st.integers(1, 24),
       x=st.integers(10**900, 10**1000))
def test_gapfree_formula_scales_by_the_lead_binomial_at_huge_n(prob, d0, x):
    # residue_c(m x - d0) is the lifted lead C(k_0 - 1 + m - d0, k_0 - 1)
    # times the part read from the digits of x, which residue_c(m x) gives
    # alone (its lead is C(k_0 - 1, k_0 - 1) = 1)
    m = prob.m
    d0 = 1 + (d0 - 1) % (m - 1)
    k0 = prob.colours.count(0)
    lead = comb(k0 - 1 + m - d0, k0 - 1) % m
    assert residue_c(m * x - d0, prob).value == lead * residue_c(m * x, prob).value % m


@SETTINGS
@given(prob=admissible_problems(), degree=st.integers(0, 600))
def test_gapfree_theorem_equals_product_on_admissible_specs(prob, degree):
    assert expand_c_theorem(prob, degree) == expand_c_product(prob, degree)


@SETTINGS
@given(m=st.one_of(st.integers(2, 30), st.just(257)),
       spec=st.builds(ColourSpec, st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple),
                      st.integers(1, 8)),
       degree=st.integers(0, 3000))
def test_product_sides_equal_the_reduced_exact_series(m, spec, degree):
    # reduction mod m is a ring map, so reducing each level of the functional
    # equation gives the residues of the exact series
    prob = PartitionProblem(m, spec)
    b = tuple(v % m for v in count_b_series(prob, degree).coeffs)
    c = (1, *(v % m for v in count_c_series(prob, degree).coeffs[1:]))
    assert expand_b_product(prob, degree).coeffs == b
    assert expand_c_product(prob, degree).coeffs == c


@settings(max_examples=200, deadline=None)
@given(modulus=st.integers(2, 60), bottom=st.integers(0, 8),
       top=st.integers(-30, 30), steps=st.integers(0, 6))
def test_binom_lift_is_independent_of_lift_steps(modulus, bottom, top, steps):
    assume(coprimality_witness(modulus, bottom) is None)
    # steps past the least number of modulus steps that reaches bottom
    least = max(0, -(-(bottom - top) // modulus))
    lifted = top + (least + steps) * modulus
    assert comb(lifted, bottom) % modulus == binom_lift(top, bottom, modulus).value


@st.composite
def failing_problems(draw):
    """A base and a colour spec whose hypothesis fails at some digit index."""
    m = draw(st.sampled_from([*range(2, 11), 12, 15, 16, 25, 27]))
    explicit = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    prob = PartitionProblem(m, ColourSpec(tuple(explicit), draw(st.integers(1, 8))))
    assume(_bottoms(prob)[1] is not None)
    return prob


# the largest n the property below reaches, which keeps its oracles small
SHARP_LIMIT = 3000


@settings(max_examples=150, deadline=None)
@given(prob=failing_problems())
def test_formulas_hold_through_the_failing_digit_index(prob):
    # the sharper hypothesis: with idx the first index where it fails, the
    # formulas still hold at every n whose top digit index (of the rounded-up
    # n, for c) is at most idx, which is every n below m**(idx + 1)
    m = prob.m
    idx = _bottoms(prob)[1][0]
    top = min(m ** (idx + 1) - 1, SHARP_LIMIT)
    b = [v % m for v in count_b_series(prob, top).coeffs]
    assert residues_b(prob, top, enforce_hypothesis=False) == b
    assert expand_b_theorem(prob, top, enforce_hypothesis=False) == expand_b_product(prob, top)
    # n rounds up to a multiple of m below m**(idx + 1)
    top_c = min(m ** (idx + 1) - m, SHARP_LIMIT)
    c = [v % m for v in count_c_series(prob, top_c).coeffs]
    assert residues_c(prob, top_c, enforce_hypothesis=False)[1:] == c[1:]
    assert expand_c_theorem(prob, top, enforce_hypothesis=False) == expand_c_product(prob, top)


def test_formulas_fail_one_digit_index_past_the_failing_one():
    # k_1 = 3 at m = 3: the hypothesis fails at index 1, so the formulas
    # hold below 9 = 100 in base 3 and no further
    prob = PartitionProblem(3, ColourSpec((1,), 3))
    assert _bottoms(prob)[1] == (1, 3)
    b = [v % 3 for v in count_b_series(prob, 9).coeffs]
    c = [v % 3 for v in count_c_series(prob, 9).coeffs]
    formula_b = residues_b(prob, 9, enforce_hypothesis=False)
    formula_c = residues_c(prob, 9, enforce_hypothesis=False)
    assert formula_b[:9] == b[:9] and formula_b[9] != b[9]
    # 7 rounds up to 9, whose top index is 2
    assert formula_c[1:7] == c[1:7] and formula_c[7] != c[7]


def test_probe_grid_fails_first_one_digit_index_past_the_failing_one():
    # on verify's 40 hypothesis-failing points, each sweep's first mismatch
    # has top digit index idx + 1; for b it is m^(idx + 1) but on one point
    off_power = []
    grid = default_grid(failing=True)
    assert len(grid) == 40
    for prob in grid:
        m = prob.m
        idx = _bottoms(prob)[1][0]
        limit = m ** (idx + 2)
        b = count_b_series(prob, limit).coeffs
        c = count_c_series(prob, limit).coeffs
        formula_b = residues_b(prob, limit, enforce_hypothesis=False)
        formula_c = residues_c(prob, limit, enforce_hypothesis=False)
        first_b = next((n for n in range(limit + 1) if formula_b[n] != b[n] % m), None)
        first_c = next((n for n in range(1, limit + 1) if formula_c[n] != c[n] % m), None)
        assert first_b is not None and first_c is not None, prob
        assert to_digits(first_b, m).top_index == idx + 1, prob
        # the gap-free formula reads the digits of n rounded up to a multiple of m
        assert to_digits(-(-first_c // m) * m, m).top_index == idx + 1, prob
        if first_b != m ** (idx + 1):
            off_power.append((m, str(prob.colours), first_b))
    assert off_power == [(9, "1,6,5;4", 108)]


def plain_compare(kind, prob, start, oracle, formula):
    """_compare as a plain walk over the pairs, for reference."""
    checked = matched = 0
    records = []
    for n, (want, got) in enumerate(zip(oracle[start:], formula[start:]), start):
        checked += 1
        if want == got:
            matched += 1
        elif len(records) < MISMATCH_RECORD_LIMIT:
            records.append((kind, prob.m, str(prob.colours), n, want, got))
    return checked, matched, records


@SETTINGS
@given(m=st.sampled_from([2, 9, 256, 257, 10**18 + 3]), length=st.integers(0, 400),
       start=st.integers(0, 1), types=st.tuples(*[st.sampled_from([list, tuple])] * 2),
       share=st.sampled_from([0, 0.05, 0.5, 1]), seed=st.integers(0, 2**32))
def test_compare_equals_a_plain_walk(m, length, start, types, share, seed):
    # share is the fraction of entries changed: 1 leaves more than
    # MISMATCH_RECORD_LIMIT mismatches once length passes it
    rng = random.Random(seed)
    oracle = [rng.randrange(m) for _ in range(length)]
    formula = [(x + rng.randrange(1, m)) % m if rng.random() < share else x for x in oracle]
    prob = PartitionProblem(m, ColourSpec((1, 2), 3))
    oracle, formula = types[0](oracle), types[1](formula)
    assert (_compare("check", prob, start, oracle, formula)
            == plain_compare("check", prob, start, oracle, formula))


# the cells of one table column after its range of n: bools alone, never
# mixed with ints (True == 1 would fold them), ints among empty strings as
# in residue's residues, and strings that end in whitespace or hold a newline
CELLS = {
    "strings": st.sampled_from(["", " ", "\t", "\n", "a", "12"]),
    "ints": st.integers(-5, 120),
    "ints-or-empty": st.one_of(st.just(""), st.integers(0, 12)),
    "bools": st.booleans(),
}


class CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@SETTINGS
@given(start=st.integers(0, 12000) | st.integers(960, 1000) | st.integers(9960, 10000),
       rows=st.integers(0, 30), kinds=st.lists(st.sampled_from(list(CELLS)), max_size=3),
       block=st.integers(1, 9), data=st.data())
def test_emit_equals_line_by_line(start, rows, kinds, block, data):
    # n crosses 999/1000 and 9999/10000 when it starts just below them
    columns = [range(start, start + rows),
               *(data.draw(st.lists(CELLS[kind], min_size=rows, max_size=rows))
                 for kind in kinds)]
    fields = ("n", *kinds)
    for fmt in ("text", "csv"):
        out = CountedWrites()
        with mock.patch.object(cli, "EMIT_BLOCK_LINES", block), redirect_stdout(out):
            cli._emit(columns, fmt, fields)
        want = io.StringIO()
        with redirect_stdout(want):
            line_by_line_emit(columns, fmt, fields)
        assert out.getvalue() == want.getvalue()
        assert out.calls == -(-(rows + 1) // block)
