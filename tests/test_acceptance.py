"""Acceptance gate: every contracted check at its full scale, exact equality.

Each test covers one criterion and prints a single pass/fail line; run
with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
All comparisons are exact integer equality, tolerance zero.
"""

import functools
import random
from math import comb

from mary import (
    ColourSpec,
    ExactSeries,
    ModSeries,
    PartitionProblem,
    binom_lift,
    coprimality_witness,
    count_b_enum,
    count_b_series,
    count_c_enum,
    count_c_series,
    decompose_gapfree,
    expand_b_product,
    expand_b_theorem,
    expand_c_product,
    expand_c_theorem,
    geometric_inverse_mod,
    mul,
    neg_pow_series_exact,
    neg_pow_series_mod,
    reduce,
    residue_b,
    to_digits,
)
from mary.cli import GRID_MODULI, default_grid
from point_tables import GRID_LIMIT, grid_point_residues

MODULI = (2, 3, 5, 7, 9)
RESIDUE_LIMIT = GRID_LIMIT


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                detail = fn()
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS ({detail})")
        return runner
    return wrap


def admissible_counts(m):
    return [k for k in range(1, 7) if coprimality_witness(m, k - 1) is None]


def cross_check_grid():
    by_base = {}
    for prob in default_grid():
        by_base.setdefault(prob.m, []).append(prob)
    chosen = []
    for m in sorted(by_base):
        take = len(by_base[m]) if m == 2 else 5
        chosen.extend(by_base[m][:take])
    return chosen


@criterion("criterion 1, factored reduction identity")
def test_factored_reduction_identity():
    degree = 500
    compared = 0
    for m in MODULI:
        for count in admissible_counts(m):
            for period in (1, m, m * m):
                factored = neg_pow_series_mod(period, count, m, degree)
                reduced = reduce(neg_pow_series_exact(period, count, degree), m)
                assert factored.coeffs == reduced.coeffs, (m, count, period)
                compared += degree + 1
    return f"{compared} coefficients over moduli {MODULI}"


@criterion("criterion 2, series oracle vs direct enumeration")
def test_oracle_cross_agreement():
    points = cross_check_grid()
    assert len(points) >= 20
    compared = 0
    for prob in points:
        b = count_b_series(prob, 120).coeffs
        c = count_c_series(prob, 120).coeffs
        for n in range(121):
            assert count_b_enum(prob, n) == b[n], (prob, n)
            compared += 1
            if n >= 1:
                assert count_c_enum(prob, n) == c[n], (prob, n)
                compared += 1
    return f"{compared} counts across {len(points)} grid points"


@criterion("criterion 3, unrestricted digit residues vs oracle")
def test_unrestricted_residues_match_oracle():
    grid = default_grid()
    assert len(grid) >= 50
    table = grid_point_residues(False)
    compared = 0
    for prob in grid:
        coeffs = count_b_series(prob, RESIDUE_LIMIT).coeffs
        b = table[prob][0]
        for n in range(RESIDUE_LIMIT + 1):
            assert b[n] == coeffs[n] % prob.m, (prob, n)
            compared += 1
    return f"{compared} residues across {len(grid)} grid points"


@criterion("criterion 4, gap-free digit residues vs oracle")
def test_gapfree_residues_match_oracle():
    grid = default_grid()
    assert len(grid) >= 50
    table = grid_point_residues(False)
    compared = 0
    for prob in grid:
        coeffs = count_c_series(prob, RESIDUE_LIMIT).coeffs
        c = table[prob][1]
        for n in range(1, RESIDUE_LIMIT + 1):
            assert c[n] == coeffs[n] % prob.m, (prob, n)
            compared += 1
    # the decomposition depends on n and m alone: one pass per modulus
    # covers every compared (point, n) pair
    seen_s = set()
    seen_d0 = set()
    seen_empty_tail_sum = False
    for m in sorted({prob.m for prob in grid}):
        for n in range(1, RESIDUE_LIMIT + 1):
            dec = decompose_gapfree(n, m)
            seen_s.add(dec.s)
            seen_d0.add(dec.d0 > 0)
            seen_empty_tail_sum = seen_empty_tail_sum or dec.s == dec.t
    assert {1, 2, 3} <= seen_s
    assert seen_d0 == {False, True}
    assert seen_empty_tail_sum
    return f"{compared} residues, lift depths {sorted(seen_s)}"


@criterion("criterion 5, expansion identities at degree m**4")
def test_expansion_identities_full_scale():
    grid = default_grid()
    compared = 0
    for prob in grid:
        degree = prob.m ** 4
        b_product = expand_b_product(prob, degree)
        b_closed = expand_b_theorem(prob, degree)
        assert b_closed.coeffs == b_product.coeffs, prob
        c_product = expand_c_product(prob, degree)
        c_closed = expand_c_theorem(prob, degree)
        assert c_closed.coeffs == c_product.coeffs, prob
        compared += 2 * (degree + 1)
    return f"{compared} coefficients across {len(grid)} grid points"


@criterion("criterion 6, single-colour digit product form")
def test_single_colour_specialization():
    compared = 0
    for m in (2, 3, 5, 7):
        prob = PartitionProblem(m, ColourSpec((1,), 1))
        for n in range(RESIDUE_LIMIT + 1):
            expected = 1
            for d in to_digits(n, m).digits[1:]:
                expected = expected * (1 + d) % m
            assert residue_b(n, prob).value == expected, (m, n)
            compared += 1
    return f"{compared} residues over moduli (2, 3, 5, 7)"


@criterion("criterion 7, ring laws and lift independence")
def test_ring_laws_and_lift_independence():
    rng = random.Random(20250819)

    ring_cases = 0
    for _ in range(1000):
        degree = rng.randrange(0, 15)
        m = rng.choice([2, 3, 4, 5, 7, 9, 12])
        if rng.random() < 0.5:
            a, b, c = (
                ExactSeries(degree, [rng.randrange(-9, 10) for _ in range(degree + 1)])
                for _ in range(3)
            )
            assert mul(a, b).coeffs == mul(b, a).coeffs
            assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs
            assert mul(a, ExactSeries.one(degree)).coeffs == a.coeffs
            # reduction commutes with multiplication
            assert reduce(mul(a, b), m).coeffs == mul(reduce(a, m), reduce(b, m)).coeffs
        else:
            a, b, c = (
                ModSeries(m, degree, [rng.randrange(m) for _ in range(degree + 1)])
                for _ in range(3)
            )
            assert mul(a, b).coeffs == mul(b, a).coeffs
            assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs
            assert mul(a, ModSeries.one(m, degree)).coeffs == a.coeffs
            # (1 - q^p) times its geometric inverse is 1
            period = rng.randrange(1, degree + 2)
            coeffs = [0] * (degree + 1)
            coeffs[0] = 1
            if period <= degree:
                coeffs[period] = m - 1
            one_minus = ModSeries(m, degree, coeffs)
            product = mul(one_minus, geometric_inverse_mod(period, m, degree))
            assert product.coeffs == ModSeries.one(m, degree).coeffs
        ring_cases += 1
    assert ring_cases >= 1000

    lift_cases = 0
    for _ in range(1000):
        m = rng.choice([2, 3, 5, 7, 9, 11, 13])
        bottom_bound = {9: 3}.get(m, min(m, 8))
        bottom = rng.randrange(0, bottom_bound)
        top = rng.randrange(-4 * m, bottom + 2 * m)
        base = binom_lift(top, bottom, m).value
        start = top
        if start < bottom:
            start += ((bottom - start + m - 1) // m) * m
        for extra in (1, 2, 5):
            assert comb(start + extra * m, bottom) % m == base, (top, bottom, m)
        lift_cases += 1
    assert lift_cases >= 1000

    return f"{ring_cases} ring-law cases, {lift_cases} lift triples"


def test_grid_contract():
    # the shared grid behind criteria 3, 4, and 5
    grid = default_grid()
    assert len(grid) >= 50
    assert {p.m for p in grid} == set(GRID_MODULI)
