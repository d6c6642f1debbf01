"""Truncated series engine and the coefficient-level transform identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import scalars
from bifree.cumulants import (CumulantTable, MomentTable, graded_solve, moments_to_cumulants,
                              table_keys)
from bifree.errors import DegreeError, SingularSeriesError
from bifree.fock import FockModel, moment_table_from_model
from bifree.limits import bifree_gaussian, bifree_poisson
from bifree.measures import moment_table, point_mass, product_measure
from bifree.measures import SECOND
from bifree.series import (BivariateSeries, _residual, moment_series, r_transform_series,
                           series_compose_bi, series_multiply,
                           series_reciprocal, verify_voiculescu_identity)

from conftest import (random_commuting_model, random_line_measure,
                      random_moment_table, random_planar_measure)

R = scalars.RATIONAL


def bseries(degree, coeffs):
    return BivariateSeries(degree, R, {k: Fraction(v) for k, v in coeffs.items()})


def test_multiply_difference_of_squares():
    one_plus = bseries(4, {(0, 0): 1, (1, 0): 1})
    one_minus = bseries(4, {(0, 0): 1, (1, 0): -1})
    prod = series_multiply(one_plus, one_minus)
    assert prod.get(0, 0) == 1 and prod.get(2, 0) == -1
    assert prod.get(1, 0) == 0


def test_multiply_identity_element(rng):
    f = bseries(3, {(0, 0): 2, (1, 1): 3, (2, 0): -1})
    one = bseries(3, {(0, 0): 1})
    assert series_multiply(f, one).coeffs == f.coeffs


def test_multiply_geometric_grid():
    d = 4
    zgeo = bseries(d, {(m, 0): 1 for m in range(d + 1)})
    wgeo = bseries(d, {(0, n): 1 for n in range(d + 1)})
    grid = series_multiply(zgeo, wgeo)
    for total in range(d + 1):
        for m in range(total + 1):
            assert grid.get(m, total - m) == 1


def test_reciprocal_geometric():
    f = bseries(5, {(0, 0): 1, (1, 0): -1})  # 1 - z
    g = series_reciprocal(f)
    for k in range(6):
        assert g.get(k, 0) == 1
    assert series_reciprocal(bseries(3, {(0, 0): 1})).coeffs[(0, 0)] == 1


def test_reciprocal_product_of_geometrics():
    f = series_multiply(bseries(4, {(0, 0): 1, (1, 0): -1}),
                        bseries(4, {(0, 0): 1, (0, 1): -1}))
    g = series_reciprocal(f)
    for total in range(5):
        for m in range(total + 1):
            assert g.get(m, total - m) == 1


def test_reciprocal_requires_unit():
    with pytest.raises(SingularSeriesError):
        series_reciprocal(bseries(3, {(1, 0): 1}))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reciprocal_is_inverse(seed):
    rng = random.Random(seed)
    coeffs = {(0, 0): Fraction(1)}
    for total in range(1, 4):
        for m in range(total + 1):
            coeffs[(m, total - m)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    f = BivariateSeries(3, R, coeffs)
    prod = series_multiply(f, series_reciprocal(f))
    assert prod.get(0, 0) == 1
    assert all(v == 0 for k, v in prod.coeffs.items() if k != (0, 0))


def test_compose_identity_substitution():
    m = bseries(3, {(0, 0): 1, (1, 1): 1})
    z = w = (0, 1, 0, 0)
    assert series_compose_bi(m, z, w).coeffs == m.coeffs


def test_compose_squares_the_variable():
    d = 6
    m = bseries(d, {(k, 0): 1 for k in range(d + 1)})
    z2 = (0, 0, 1, 0, 0, 0, 0)
    zero = (0,) * (d + 1)
    out = series_compose_bi(m, z2, zero)
    for k in range(d + 1):
        assert out.get(k, 0) == (1 if k % 2 == 0 else 0)


def test_compose_constant_series_unchanged():
    m = bseries(3, {(0, 0): 7})
    u = (0, 2, 1, 0)
    assert series_compose_bi(m, u, u).get(0, 0) == 7


def test_compose_rejects_nonzero_constant():
    m = bseries(2, {(0, 0): 1})
    bad = (1, 0, 0)
    good = (0, 1, 0)
    with pytest.raises(SingularSeriesError):
        series_compose_bi(m, bad, good)
    with pytest.raises(DegreeError):
        series_compose_bi(m, good, (0, 1))


def test_r_transform_of_constructors():
    gauss = r_transform_series(bifree_gaussian(2, 3, 1, 4))
    assert gauss.get(2, 0) == 2 and gauss.get(0, 2) == 3 and gauss.get(1, 1) == 1
    assert gauss.get(0, 0) == 0 and gauss.get(3, 0) == 0

    lam, a, b = Fraction(2), Fraction(1, 2), Fraction(3)
    pois = r_transform_series(bifree_poisson(lam, a, b, 4))
    for total in range(1, 5):
        for m in range(total + 1):
            assert pois.get(m, total - m) == lam * a**m * b**(total - m)


def test_r_transform_is_linear(rng):
    from conftest import random_cumulant_table
    k1 = random_cumulant_table(rng, 4)
    k2 = random_cumulant_table(rng, 4)
    from bifree.convolution import bifree_convolve
    summed = r_transform_series(bifree_convolve(k1, k2))
    for key in summed.coeffs:
        assert summed.coeffs[key] == r_transform_series(k1).get(*key) \
            + r_transform_series(k2).get(*key)


def test_r_transform_marginal_rows(rng):
    table = random_moment_table(rng, 5)
    cum = moments_to_cumulants(table)
    series = r_transform_series(cum)
    # row (m, 0) carries the one-variable cumulants of the first face
    from bifree.cumulants import moment_seq_to_cumulant_seq
    seq = [table.get(m, 0) for m in range(6)]
    uni = moment_seq_to_cumulant_seq(seq, R)
    for m in range(1, 6):
        assert series.get(m, 0) == uni[m - 1]
        assert series.get(0, m) == moment_seq_to_cumulant_seq(
            [table.get(0, n) for n in range(6)], R)[m - 1]


def test_voiculescu_point_mass():
    assert verify_voiculescu_identity(moment_table(point_mass(Fraction(2), Fraction(-3)), 6)) == 0


def test_voiculescu_product_measure(rng):
    prod = product_measure(random_line_measure(rng, 2), random_line_measure(rng, 3, SECOND))
    assert verify_voiculescu_identity(moment_table(prod, 6)) == 0


def test_voiculescu_random_measures(rng):
    for _ in range(5):
        table = moment_table(random_planar_measure(rng, 3), 6)
        assert verify_voiculescu_identity(table) == 0


def test_voiculescu_gaussian_fock_model():
    model = FockModel.from_arrays([1, 0], [Fraction(1, 2), Fraction(1, 3)],
                                  [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert verify_voiculescu_identity(moment_table_from_model(model, 6)) == 0


def test_voiculescu_degree_eight_tables(rng):
    table = moment_table(random_planar_measure(rng, 3), 8)
    assert verify_voiculescu_identity(table) == 0
    model = random_commuting_model(rng, 2)
    assert verify_voiculescu_identity(moment_table_from_model(model, 8)) == 0


def test_voiculescu_float_mode(rng):
    mu = random_planar_measure(rng, 3)
    entries = {k: float(v) for k, v in moment_table(mu, 6).entries.items()}
    table = MomentTable(6, scalars.FLOAT, entries)
    assert verify_voiculescu_identity(table) <= 1e-9


def test_voiculescu_requires_unit_constant():
    entries = {(0, 0): Fraction(2), (1, 0): 0, (0, 1): 0,
               (2, 0): 0, (1, 1): 0, (0, 2): 0}
    with pytest.raises(ValueError):
        verify_voiculescu_identity(MomentTable(2, R, entries))
    with pytest.raises(DegreeError):
        verify_voiculescu_identity(moment_table(point_mass(1, 1), 1))


def test_series_json_round_trip(rng):
    series = r_transform_series(bifree_poisson(1, 2, 3, 4))
    again = BivariateSeries.from_jsonable(series.to_jsonable())
    assert again.degree == series.degree
    for total in range(5):
        for m in range(total + 1):
            assert again.get(m, total - m) == series.get(m, total - m)


def test_moment_series_includes_constant(rng):
    table = random_moment_table(rng, 3)
    assert moment_series(table).get(0, 0) == 1


def slow_residual(moments, kappa):
    """The identity's residual from the public series calls on the unscaled tables."""
    degree = moments.degree
    one_plus_zra = BivariateSeries(degree, R, {(0, 0): 1, **{
        (m, 0): kappa.get(m, 0) for m in range(1, degree + 1)}})
    one_plus_wrb = BivariateSeries(degree, R, {(0, 0): 1, **{
        (0, n): kappa.get(0, n) for n in range(1, degree + 1)}})
    inverse_a, inverse_b = series_reciprocal(one_plus_zra), series_reciprocal(one_plus_wrb)
    u = (0,) + tuple(inverse_a.get(m, 0) for m in range(degree))
    v = (0,) + tuple(inverse_b.get(0, n) for n in range(degree))
    composed = series_compose_bi(moment_series(moments), u, v)
    green = series_multiply(series_multiply(one_plus_zra, one_plus_wrb),
                            series_reciprocal(composed))
    left = r_transform_series(kappa)
    worst = Fraction(0)
    for m, n in table_keys(degree - 1, 0):
        base = 1 if m == n == 0 else left.get(m, n) if m * n == 0 else 0
        worst = max(worst, abs(left.get(m, n) - (base - green.get(m, n))))
    return worst


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000),
       st.booleans())
def test_inconsistent_pair_residual_is_the_slow_residual(degree, seed, spread):
    # moments with the cumulants of another table: one cumulant of degree
    # < D moved by d / L^(m+n); spread denominators make the clearing decline
    rng = random.Random(seed)
    table = random_moment_table(rng, degree)
    if spread:
        table = MomentTable(degree, R, {(m, n): v + Fraction(1, 10**30 + 16 * m + n)
                                        if m + n else v for (m, n), v in table.entries.items()})
    scale, moments, kappa = graded_solve(table.entries, degree, to_cumulants=True)
    declined = any(isinstance(v, Fraction) for v in moments.values())
    assert declined == (spread and degree >= 4)
    key = rng.choice(table_keys(degree - 1, 1))
    kappa[key] += rng.choice((-3, -1, 1, 2))
    wrong = CumulantTable(degree, R, {k: Fraction(v) / scale ** sum(k) for k, v in kappa.items()})
    residual = _residual(moments, kappa, scale, degree, R)
    assert residual == slow_residual(table, wrong) != 0
