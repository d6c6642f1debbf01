"""Moment/cumulant transforms and the literal Mobius sum."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifree import cumulants, scalars, series
from bifree.cumulants import (TRANSFORM_MAX_DEGREE, CumulantTable, MomentTable, _solve,
                              cumulant_seq_to_moment_seq, cumulants_to_moments,
                              mobius_cumulant,
                              moment_seq_to_cumulant_seq, moments_to_cumulants,
                              table_keys, verify_voiculescu_identity)
from bifree.errors import DegreeError
from bifree.limits import bifree_gaussian, compound_bifree_poisson
from bifree.measures import DiscretePlanarMeasure, moment_table, point_mass
from bifree.partitions import LEFT, RIGHT, ChiMap, enumerate_bnc, enumerate_nc, mobius_top

from conftest import (SECOND, block_side_counts, no_fraction_arithmetic, product_measure,
                      random_cumulant_table, random_line_measure, random_moment_table,
                      random_planar_measure, zero_cumulants)


def mobius_sum_cumulant(table, m, n):
    """Oracle: the literal Mobius sum over NC(m+n) on the word a^m b^n."""
    total = Fraction(0)
    for part in enumerate_nc(m + n):
        term = Fraction(1)
        for block in part.blocks:
            a, b = block_side_counts(block, m)
            term *= table.get(a, b)
        total += term * mobius_top(part)
    return total


def nc_sum_moment(table, m, n):
    """Oracle: the literal sum over NC(m+n) of block products of cumulants."""
    total = Fraction(0)
    for part in enumerate_nc(m + n):
        term = Fraction(1)
        for block in part.blocks:
            term *= table.get(*block_side_counts(block, m))
        total += term
    return total


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10_000))
@example(7, 0)
def test_transforms_match_partition_sum_oracles(degree, seed):
    rng = random.Random(seed)
    moments = random_moment_table(rng, degree)
    for (m, n), value in moments_to_cumulants(moments).entries.items():
        assert value == mobius_sum_cumulant(moments, m, n)
    cumulants = random_cumulant_table(rng, degree)
    for (m, n), value in cumulants_to_moments(cumulants).entries.items():
        assert value == (nc_sum_moment(cumulants, m, n) if m + n else 1)


# primes between 1000 and 3000 (none has a factor below 55 > sqrt(3000))
PRIMES = tuple(p for p in range(1009, 3000) if all(p % q for q in range(2, 55)))[:60]
DENOMINATOR_MIXES = {
    "small": (7, 11, 13),
    "huge": (1, 7, 11, 13, 10**30),
    "primes": PRIMES,
    "spread": None,  # 10^30 + i at the i-th entry: from degree 4 on, clearing declines
}


def mixed_table(cls, degree, seed, mix):
    """A table whose entries draw their denominators from one mix; a quarter are 0."""
    rng = random.Random(seed)
    entries = {(0, 0): Fraction(1)} if cls is MomentTable else {}
    for i, key in enumerate(table_keys(degree, 1)):
        den = 10**30 + i if mix == "spread" else rng.choice(DENOMINATOR_MIXES[mix])
        entries[key] = Fraction(0 if rng.random() < 0.25 else rng.randint(-9, 9), den)
    return cls(degree, scalars.RATIONAL, entries)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000),
       st.sampled_from(sorted(DENOMINATOR_MIXES)))
@example(8, 0, "primes")
def test_mixed_denominators_match_partition_sum_oracles(degree, seed, mix):
    moments = mixed_table(MomentTable, degree, seed, mix)
    for (m, n), value in moments_to_cumulants(moments).entries.items():
        assert value == mobius_sum_cumulant(moments, m, n)
    cumulants = mixed_table(CumulantTable, degree, seed + 1, mix)
    for (m, n), value in cumulants_to_moments(cumulants).entries.items():
        assert value == (nc_sum_moment(cumulants, m, n) if m + n else 1)


def float_outputs():
    """float.hex of the transforms and identity residuals of seeded float tables."""
    lines = []
    for seed in range(12):
        rng = random.Random(seed)
        degree = 2 + seed % 7
        moments = moment_table(random_planar_measure(rng, 3), degree)
        floats = MomentTable(degree, scalars.FLOAT,
                             {k: float(v) for k, v in moments.entries.items()})
        kappa = random_cumulant_table(rng, degree)
        kappa = CumulantTable(degree, scalars.FLOAT,
                              {k: float(v) / 3 for k, v in kappa.entries.items()})
        seq = [floats.get(j, 0) for j in range(degree + 1)]
        column = [kappa.get(j, 0) for j in range(1, degree + 1)]
        for values in (moments_to_cumulants(floats).entries.values(),
                       cumulants_to_moments(kappa).entries.values(),
                       moment_seq_to_cumulant_seq(seq, scalars.FLOAT),
                       cumulant_seq_to_moment_seq(column, scalars.FLOAT),
                       [verify_voiculescu_identity(floats)]):
            lines.append(" ".join(float.hex(v) for v in values))
    return lines


# SHA-256 of float_outputs(), float transforms by the closed form and
# identity residuals as the recursion against the closed form; recorded after
# test_float_transforms_are_accurate bounded the transforms' error against
# the exact values
FLOAT_OUTPUTS_SHA256 = "e0b96c180d2f0a9a4cd8f64a319b9bf97626207146b54afce81a47c4c5354842"


def test_float_outputs_are_unchanged_bit_for_bit():
    # float.hex also refuses an int where a float belongs
    digest = hashlib.sha256("\n".join(float_outputs()).encode()).hexdigest()
    assert digest == FLOAT_OUTPUTS_SHA256


def benchmark_like_tables(degree=7):
    """A compound Poisson whose jump has three atoms at thirds, and a Gaussian."""
    jump = DiscretePlanarMeasure.from_atoms([(Fraction(1, 3), Fraction(-2, 3), Fraction(1, 6)),
                                             (Fraction(-4, 3), Fraction(5, 3), Fraction(1, 3)),
                                             (Fraction(2, 3), Fraction(1, 3), Fraction(1, 2))])
    return (compound_bifree_poisson(Fraction(3, 2), jump, degree),
            bifree_gaussian(Fraction(5, 2), Fraction(7, 2), Fraction(-3, 4), degree))


@pytest.mark.parametrize("index,degree", [(0, 7), (1, 7), (0, 12), (1, 12)],
                         ids=["poisson", "gaussian", "poisson-12", "gaussian-12"])
def test_transforms_and_identity_make_no_fraction_arithmetic(index, degree):
    kappa = benchmark_like_tables(degree)[index]
    moments = cumulants_to_moments(kappa)
    with no_fraction_arithmetic():
        assert cumulants_to_moments(kappa).entries == moments.entries
        assert moments_to_cumulants(moments).entries == kappa.entries
        assert verify_voiculescu_identity(moments) == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=TRANSFORM_MAX_DEGREE),
       st.integers(min_value=0, max_value=10_000), st.sampled_from(("small", "spread")))
@example(TRANSFORM_MAX_DEGREE, 0, "small")
@example(TRANSFORM_MAX_DEGREE, 0, "spread")
def test_closed_form_equals_the_first_block_recursion(degree, seed, mix):
    # graded ints, or Fractions where the spread mix declines the clearing
    for cls, to_cumulants in ((MomentTable, True), (CumulantTable, False)):
        table = mixed_table(cls, degree, seed, mix)
        scale, given = scalars.clear_graded(table.entries)
        declined = any(isinstance(v, Fraction) for v in given.values())
        if mix == "small" or degree == TRANSFORM_MAX_DEGREE:
            assert declined == (mix == "spread")
        assert series.transform(given, degree, to_cumulants) == _solve(given, to_cumulants)
        column = {(m, n): v for (m, n), v in given.items() if n == 0}
        want = _solve(column, to_cumulants)
        assert series.transform(column, degree, to_cumulants) == want
        sequence = [scalars.over(want[(m, 0)], scale ** m, scalars.RATIONAL)
                    for m in range(int(to_cumulants), degree + 1)]
        if to_cumulants:
            values = [table.get(m, 0) for m in range(degree + 1)]
            assert moment_seq_to_cumulant_seq(values, scalars.RATIONAL) == sequence
        else:
            values = [table.get(m, 0) for m in range(1, degree + 1)]
            assert cumulant_seq_to_moment_seq(values, scalars.RATIONAL) == sequence


def test_identity_checks_the_first_block_recursion(monkeypatch):
    # the transforms of either kind take the closed form and the identity the
    # recursion: a recursion off at one entry moves the residual and leaves
    # the transform
    table = moment_table(random_planar_measure(random.Random(3), 3), 6)
    floats = MomentTable(6, scalars.FLOAT, {k: float(v) for k, v in table.entries.items()})
    kappas = [moments_to_cumulants(t).entries for t in (table, floats)]
    assert verify_voiculescu_identity(table) == 0
    assert verify_voiculescu_identity(floats) < 1e-12
    exact = cumulants._non_top_sum

    def shifted(m, n, moment, kappa):
        return exact(m, n, moment, kappa) + ((m, n) == (2, 1))

    monkeypatch.setattr(cumulants, "_non_top_sum", shifted)
    for t, kappa in zip((table, floats), kappas):
        assert moments_to_cumulants(t).entries == kappa
    assert verify_voiculescu_identity(table) != 0
    assert verify_voiculescu_identity(floats) > 1e-9  # past the CLI's float tolerance


@pytest.mark.parametrize("degree", [3, 6, 12])
def test_identity_window_is_total_degree_below_d(monkeypatch, degree):
    # the recursion off at one key of degree D - 1 moves the residual, and
    # neither side computes degree D: the identity certifies total degree
    # <= D - 1, and no entry there reads a moment of degree D
    table = moment_table(random_planar_measure(random.Random(5), 3), degree)
    floats = MomentTable(degree, scalars.FLOAT, {k: float(v) for k, v in table.entries.items()})
    exact, closed_form = cumulants._non_top_sum, series.transform
    asked, closed_degrees = [], []

    def recursion(m, n, moment, kappa):
        asked.append((m, n))
        return exact(m, n, moment, kappa)

    def closed(given, top, to_cumulants):
        closed_degrees.append(top)
        return closed_form(given, top, to_cumulants)

    monkeypatch.setattr(cumulants, "_non_top_sum", recursion)
    monkeypatch.setattr(series, "transform", closed)
    for t in (table, floats):
        asked.clear()
        closed_degrees.clear()
        verify_voiculescu_identity(t)
        assert sorted(asked) == sorted(table_keys(degree - 1, 1)), t.kind
        assert closed_degrees == [degree - 1], t.kind
    monkeypatch.setattr(cumulants, "_non_top_sum", lambda m, n, moment, kappa:
                        exact(m, n, moment, kappa) + ((m, n) == (1, degree - 2)))
    assert verify_voiculescu_identity(table) != 0


def test_a_table_is_cleared_once_for_its_transform_and_identity(monkeypatch):
    # the transform and the identity share the table's graded clearing
    table = moment_table(random_planar_measure(random.Random(5), 3), 6)
    clear_graded, cleared = scalars.clear_graded, []

    def spy(entries):
        cleared.append(entries)
        return clear_graded(entries)

    monkeypatch.setattr(scalars, "clear_graded", spy)
    moments_to_cumulants(table)
    assert verify_voiculescu_identity(table) == 0
    assert cleared == [table.entries]


# Worst relative error, |float - exact| / max(1, |exact|), that a float
# transform may show on the seeded tables of test_float_transforms_are_accurate:
# about 100 times the worst seen there (9.5e-11, degree 12, moments to cumulants)
FLOAT_TRANSFORM_RTOL = 1e-8


@pytest.mark.parametrize("degree", [4, 8, 12])
def test_float_transforms_are_accurate(degree):
    # the exact cumulants and moments of seeded 4-atom measures, against the
    # float transforms of the same tables rounded to float
    def worst(got, want):
        return max(abs(got[k] - float(v)) / max(1.0, abs(float(v))) for k, v in want.items())

    errors = []
    for seed in range(30):
        moments = moment_table(random_planar_measure(random.Random(seed), 4), degree)
        kappa = moments_to_cumulants(moments)
        floats = [cls(degree, scalars.FLOAT, {k: float(v) for k, v in t.entries.items()})
                  for cls, t in ((MomentTable, moments), (CumulantTable, kappa))]
        errors.append(max(worst(moments_to_cumulants(floats[0]).entries, kappa.entries),
                          worst(cumulants_to_moments(floats[1]).entries, moments.entries)))
    assert max(errors) <= FLOAT_TRANSFORM_RTOL


def test_graded_clearing_declines_unrelated_denominators():
    # 90 denominators 10^30 + i: L^12 would hold about 12 * 8600 bits
    spread = mixed_table(CumulantTable, 12, 7919, "spread")
    assert scalars.clear_graded(spread.entries) == (1, spread.entries)
    back = moments_to_cumulants(cumulants_to_moments(spread))
    assert back.entries == spread.entries
    for table in benchmark_like_tables(12):
        scale, scaled = scalars.clear_graded(table.entries)
        assert scale > 1 and all(type(v) is int for v in scaled.values())
    floats = {(1, 0): 0.5, (0, 1): 0.25}
    assert scalars.clear_graded(floats) == (1, floats)


def test_graded_clearing_scales_both_tables_by_degree(rng):
    # the identity's recursion runs on the cleared table and gives the
    # cleared cumulants
    table = random_moment_table(rng, 5)
    scale, given = scalars.clear_graded(table.entries)
    out = _solve(given, to_cumulants=True)
    kappa = moments_to_cumulants(table)
    assert scale == 12  # the denominators 1..4
    for (m, n), value in out.items():
        assert given[(m, n)] == table.get(m, n) * scale ** (m + n)
        assert value == kappa.get(m, n) * scale ** (m + n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10_000))
@example(7, 0)
def test_one_variable_transforms_are_the_first_column(degree, seed):
    rng = random.Random(seed)
    moments = random_moment_table(rng, degree)
    seq = [moments.get(j, 0) for j in range(degree + 1)]
    cumulants = moments_to_cumulants(moments)
    assert moment_seq_to_cumulant_seq(seq, scalars.RATIONAL) \
        == [cumulants.get(j, 0) for j in range(1, degree + 1)]
    seq = [moments.get(0, j) for j in range(degree + 1)]
    assert moment_seq_to_cumulant_seq(seq, scalars.RATIONAL) \
        == [cumulants.get(0, j) for j in range(1, degree + 1)]
    kappa = random_cumulant_table(rng, degree)
    back = cumulants_to_moments(kappa)
    assert cumulant_seq_to_moment_seq([kappa.get(j, 0) for j in range(1, degree + 1)],
                                      scalars.RATIONAL) \
        == [back.get(j, 0) for j in range(degree + 1)]


def test_centered_degree_two():
    entries = {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): 1, (1, 1): 0, (0, 2): 0}
    cum = moments_to_cumulants(MomentTable(2, scalars.RATIONAL, entries))
    assert cum.entries == {(1, 0): 0, (0, 1): 0, (2, 0): 1, (1, 1): 0, (0, 2): 0}


def test_only_full_block_survives_for_mixed_entry():
    c = Fraction(5, 7)
    entries = {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): 0, (1, 1): c, (0, 2): 0}
    cum = moments_to_cumulants(MomentTable(2, scalars.RATIONAL, entries))
    assert cum.get(1, 1) == c


def test_point_mass_has_first_order_cumulants_only():
    table = moment_table(point_mass(1, 1), 6)
    cum = moments_to_cumulants(table)
    for (m, n), value in cum.entries.items():
        expected = Fraction(1) if m + n == 1 else Fraction(0)
        assert value == expected == mobius_sum_cumulant(table, m, n)


def test_matches_mobius_sum_oracle(rng):
    for _ in range(8):
        table = random_moment_table(rng, 5)
        cum = moments_to_cumulants(table)
        for (m, n), value in cum.entries.items():
            assert value == mobius_sum_cumulant(table, m, n)


def test_constant_pair_moments():
    c = Fraction(3, 2)
    cum = zero_cumulants(5)
    cum.entries[(1, 0)] = c
    mom = cumulants_to_moments(cum)
    for (m, n), value in mom.entries.items():
        assert value == (c ** m if n == 0 else Fraction(0))


def test_semicircle_moments_are_catalan():
    cum = zero_cumulants(6)
    cum.entries[(2, 0)] = Fraction(1)
    mom = cumulants_to_moments(cum)
    assert mom.get(2, 0) == 1
    assert mom.get(4, 0) == 2
    assert mom.get(6, 0) == 5
    assert mom.get(3, 0) == 0


def test_truncated_poisson_mixed_moment():
    cum = zero_cumulants(2)
    for key in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        cum.entries[key] = Fraction(1)
    assert cumulants_to_moments(cum).get(1, 1) == 2


def test_round_trip_on_random_tables(rng):
    for _ in range(50):
        table = random_moment_table(rng, rng.randint(2, 6))
        back = cumulants_to_moments(moments_to_cumulants(table))
        assert back.entries == table.entries


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_cumulant_side(seed):
    table = random_cumulant_table(random.Random(seed), 4)
    back = moments_to_cumulants(cumulants_to_moments(table))
    assert back.entries == table.entries


def test_shift_covariance(rng):
    c = Fraction(2, 3)
    for _ in range(5):
        mu = random_planar_measure(rng, 3)
        shifted = type(mu).from_atoms([(s + c, t, w) for s, t, w in mu.atoms])
        k0 = moments_to_cumulants(moment_table(mu, 5))
        k1 = moments_to_cumulants(moment_table(shifted, 5))
        assert k1.get(1, 0) == k0.get(1, 0) + c
        assert k1.get(0, 1) == k0.get(0, 1)
        for (m, n), value in k0.entries.items():
            if m + n >= 2:
                assert k1.get(m, n) == value


def test_mixed_cumulant_vanishing_two_path(rng):
    # independent tables: moments of the summed cumulants must equal the
    # coloured-partition expansion in which blocks carry a table label
    k1 = random_cumulant_table(rng, 5)
    k2 = random_cumulant_table(rng, 5)
    summed = CumulantTable(5, scalars.RATIONAL,
                           {k: k1.entries[k] + k2.entries[k] for k in k1.entries})
    mom = cumulants_to_moments(summed)
    from itertools import product
    for total in range(1, 6):
        for m in range(total + 1):
            acc = Fraction(0)
            for part in enumerate_nc(total):
                blocks = part.blocks
                for colours in product((k1, k2), repeat=len(blocks)):
                    term = Fraction(1)
                    for block, table in zip(blocks, colours):
                        a, b = block_side_counts(block, m)
                        term *= table.get(a, b)
                    acc += term
            assert acc == mom.get(m, total - m)


def assert_mobius_sums_match_transform(table):
    # the literal Mobius sum over NC(m+n) and the first-block recursion share
    # no arithmetic, so equality checks both
    kappa = moments_to_cumulants(table)
    for m, n in kappa.entries:
        assert mobius_cumulant(table, m, n) == kappa.get(m, n)


def test_chi_independence_trivial_cases(rng):
    table = random_moment_table(rng, 5)
    assert mobius_cumulant(table, 1, 0) == table.get(1, 0)
    assert mobius_cumulant(table, 0, 1) == table.get(0, 1)
    assert_mobius_sums_match_transform(table)


def test_chi_independence_on_measures(rng):
    for _ in range(4):
        assert_mobius_sums_match_transform(moment_table(random_planar_measure(rng, 3), 5))


def test_chi_values_on_point_mass():
    table = moment_table(point_mass(1, 2), 5)
    assert mobius_cumulant(table, 2, 1) == 0  # only first-order cumulants survive
    assert_mobius_sums_match_transform(table)


def test_chi_values_all_labellings_evaluated(rng):
    # every one of the binom(m+n, m) labellings chi gets its own Mobius sum
    # over the bi-non-crossing partitions sigma_chi(pi), each block counted
    # by the labels chi puts on it; for a commuting pair all of them must
    # equal the single (m, n) sum and the first-block transform
    from itertools import combinations
    table = random_moment_table(rng, 5)
    kappa = moments_to_cumulants(table)
    for total in range(2, 6):
        for m in range(total + 1):
            values = []
            for lefts in combinations(range(1, total + 1), m):
                chi = ChiMap(tuple(LEFT if k in lefts else RIGHT
                                   for k in range(1, total + 1)))
                acc = Fraction(0)
                for image, source in enumerate_bnc(chi):
                    term = Fraction(1)
                    for block in image.blocks:
                        a = sum(chi.labels[k - 1] == LEFT for k in block)
                        term *= table.get(a, len(block) - a)
                    acc += term * mobius_top(source)
                values.append(acc)
            assert len(values) == math.comb(total, m)
            assert all(v == mobius_cumulant(table, m, total - m) for v in values)
            assert all(v == kappa.get(m, total - m) for v in values)


def test_product_measure_tables_pass_chi(rng):
    table = moment_table(product_measure(random_line_measure(rng, 2),
                                         random_line_measure(rng, 2, SECOND)), 5)
    assert_mobius_sums_match_transform(table)


def test_fock_model_tables_pass_chi(rng):
    from bifree.fock import moment_table_from_model
    from conftest import random_commuting_model
    assert_mobius_sums_match_transform(moment_table_from_model(random_commuting_model(rng, 3), 5))


def test_univariate_sequence_round_trip(rng):
    seq = [Fraction(1)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(6)]
    cum = moment_seq_to_cumulant_seq(seq, scalars.RATIONAL)
    assert cumulant_seq_to_moment_seq(cum, scalars.RATIONAL) == seq


def test_degree_caps():
    with pytest.raises(DegreeError):
        moments_to_cumulants(random_moment_table(random.Random(0), 13))
    with pytest.raises(DegreeError, match="outside"):
        mobius_cumulant(random_moment_table(random.Random(0), 9), 5, 4)
    with pytest.raises(DegreeError, match="table degree 3"):
        mobius_cumulant(random_moment_table(random.Random(0), 3), 2, 2)


def test_table_validation():
    with pytest.raises(ValueError):
        MomentTable(1, scalars.RATIONAL, {(0, 0): 2, (1, 0): 0, (0, 1): 0})
    with pytest.raises(ValueError):
        MomentTable(1, scalars.RATIONAL, {(0, 0): 1, (1, 0): 0})
    base = {(0, 0): 1, (1, 0): 0, (0, 1): 0}
    for extra in ((2, 0), (-1, 1), (0, -1)):
        with pytest.raises(ValueError, match=re.escape(str(extra))):
            MomentTable(1, scalars.RATIONAL, {**base, extra: 0})
    with pytest.raises(ValueError, match=re.escape("(0, 0)")):
        CumulantTable(1, scalars.RATIONAL, base)
    with pytest.raises(ValueError, match="degree 0 < 1"):
        CumulantTable(0, scalars.RATIONAL, {})
    with pytest.raises(ValueError, match="degree -1 < 0"):
        MomentTable(-1, scalars.RATIONAL, {})


def test_non_finite_json_entries_are_rejected():
    for bad in ("NaN", "Infinity", "-Infinity", float("nan"), float("inf")):
        data = {"degree": 1, "kind": "float", "entries": [[0, 0, 1.0], [1, 0, bad], [0, 1, 0.0]]}
        with pytest.raises(ValueError, match="finite"):
            MomentTable.from_jsonable(data)


@pytest.mark.parametrize("transform,make", [
    (moments_to_cumulants, lambda rng: random_moment_table(rng, 6)),
    (cumulants_to_moments, lambda rng: random_cumulant_table(rng, 6)),
])
def test_transforms_enumerate_no_lattice(monkeypatch, transform, make):
    calls = []

    def spy(n):
        calls.append(n)
        return enumerate_nc(n)

    # cumulants imports the lattice where it sums over it, from bifree.partitions
    monkeypatch.setattr("bifree.partitions.enumerate_nc", spy)
    transform(make(random.Random(0)))
    assert calls == []


def test_json_round_trip(rng):
    table = random_moment_table(rng, 4)
    assert MomentTable.from_jsonable(table.to_jsonable()).entries == table.entries
    cum = moments_to_cumulants(table)
    assert CumulantTable.from_jsonable(cum.to_jsonable()).entries == cum.entries
