"""The transform identity: its literal dict oracle, the composition core, verdicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import scalars
from bifree.cumulants import (CumulantTable, MomentTable, moments_to_cumulants, table_keys,
                              verify_voiculescu_identity)
from bifree.errors import DegreeError
from bifree.fock import FockModel, moment_table_from_model
from bifree.measures import moment_table, point_mass
from bifree.series import _compose, _rows

from conftest import (SECOND, oracle_compose, oracle_multiply, oracle_reciprocal,
                      product_measure, random_commuting_model, random_line_measure,
                      random_moment_table, random_planar_measure)

R = scalars.RATIONAL


def coeffs(pairs):
    return {k: Fraction(v) for k, v in pairs.items()}


def as_dict(rows):
    """Row list -> {(m, n): c} without the zeros."""
    return {(m, n): c for m, row in enumerate(rows) for n, c in enumerate(row) if c}


def nonzero(series):
    return {k: v for k, v in series.items() if v}


def test_multiply_difference_of_squares():
    one_plus, one_minus = coeffs({(0, 0): 1, (1, 0): 1}), coeffs({(0, 0): 1, (1, 0): -1})
    expected = {(0, 0): 1, (2, 0): -1}
    assert nonzero(oracle_multiply(one_plus, one_minus, 4)) == expected


def test_multiply_identity_element():
    f = coeffs({(0, 0): 2, (1, 1): 3, (2, 0): -1})
    assert nonzero(oracle_multiply(f, {(0, 0): 1}, 3)) == f


def test_multiply_geometric_grid():
    d = 4
    zgeo = {(m, 0): 1 for m in range(d + 1)}
    wgeo = {(0, n): 1 for n in range(d + 1)}
    grid = dict.fromkeys(table_keys(d, 0), 1)
    assert oracle_multiply(zgeo, wgeo, d) == grid


def test_reciprocal_geometric():
    f = coeffs({(0, 0): 1, (1, 0): -1})  # 1 - z
    geometric = {(k, 0): 1 for k in range(6)}
    assert nonzero(oracle_reciprocal(f, 5)) == geometric
    assert nonzero(oracle_reciprocal({(0, 0): 1}, 3)) == {(0, 0): 1}


def test_reciprocal_product_of_geometrics():
    f = oracle_multiply(coeffs({(0, 0): 1, (1, 0): -1}), coeffs({(0, 0): 1, (0, 1): -1}), 4)
    grid = dict.fromkeys(table_keys(4, 0), 1)
    assert nonzero(oracle_reciprocal(f, 4)) == grid


def test_reciprocal_requires_unit():
    with pytest.raises(ZeroDivisionError):
        oracle_reciprocal(coeffs({(1, 0): 1}), 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reciprocal_is_inverse(seed):
    rng = random.Random(seed)
    f = {(0, 0): Fraction(1)}
    for total in range(1, 4):
        for m in range(total + 1):
            f[(m, total - m)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    inverse = oracle_reciprocal(f, 3)
    assert nonzero(oracle_multiply(f, inverse, 3)) == {(0, 0): 1}


def power_table(f, degree):
    """powers[k][j] = [z^j] f^k for j <= degree - k: what _compose reads of z f(z)."""
    powers = [[1] + [0] * degree]
    for k in range(1, degree + 1):
        last = powers[-1]
        powers.append([sum(last[i] * f[j - i] for i in range(j + 1))
                       for j in range(degree - k + 1)])
    return powers


def compose_rows(series, u, v, degree):
    """_compose with u(z) and v(w) given as tuples that vanish at 0."""
    return as_dict(_compose(_rows(series, degree), power_table(u[1:], degree),
                            power_table(v[1:], degree)))


def test_compose_identity_substitution():
    m = coeffs({(0, 0): 1, (1, 1): 1})
    z = w = (0, 1, 0, 0)
    assert nonzero(oracle_compose(m, z, w, 3)) == m
    assert compose_rows(m, z, w, 3) == m
    with pytest.raises(ValueError):  # only a series without constant term substitutes
        oracle_compose(m, (1, 1, 0, 0), w, 3)


def test_compose_squares_the_variable():
    d = 6
    m = {(k, 0): 1 for k in range(d + 1)}
    z2 = (0, 0, 1, 0, 0, 0, 0)
    zero = (0,) * (d + 1)
    even = {(k, 0): 1 for k in range(0, d + 1, 2)}
    assert nonzero(oracle_compose(m, z2, zero, d)) == even
    assert compose_rows(m, z2, zero, d) == even


def test_compose_constant_series_unchanged():
    m = coeffs({(0, 0): 7})
    u = (0, 2, 1, 0)
    assert nonzero(oracle_compose(m, u, u, 3)) == m
    assert compose_rows(m, u, u, 3) == m


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_compose_matches_the_oracle(degree, seed):
    rng = random.Random(seed)
    series = {key: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for key in table_keys(degree, 0)}
    u, v = ((0,) + tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                         for _ in range(degree)) for _ in range(2))
    assert compose_rows(series, u, v, degree) == nonzero(oracle_compose(series, u, v, degree))


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

def slow_residual(moments, kappa):
    """The identity's largest coefficient discrepancy below total degree D.

    The literal series side on the unscaled tables: the right side
    1 + z R_a(z) + w R_b(w) - C_a(z) C_b(w) / M(u(z), v(w)), u = z / C_a(z),
    by the dict oracle, against R(z, w) = sum of kappa_{m,n} z^m w^n.
    """
    degree = moments.degree
    one_plus_zra = {(0, 0): 1, **{(m, 0): kappa.get(m, 0) for m in range(1, degree + 1)}}
    one_plus_wrb = {(0, 0): 1, **{(0, n): kappa.get(0, n) for n in range(1, degree + 1)}}
    inverse_a = oracle_reciprocal(one_plus_zra, degree)
    inverse_b = oracle_reciprocal(one_plus_wrb, degree)
    u = (0,) + tuple(inverse_a[(m, 0)] for m in range(degree))
    v = (0,) + tuple(inverse_b[(0, n)] for n in range(degree))
    composed = oracle_compose(moments.entries, u, v, degree)
    green = oracle_multiply(oracle_multiply(one_plus_zra, one_plus_wrb, degree),
                            oracle_reciprocal(composed, degree), degree)
    worst = Fraction(0)
    for m, n in table_keys(degree - 1, 0):
        left = kappa.get(m, n) if m + n else 0
        base = 1 if m == n == 0 else left if m * n == 0 else 0
        worst = max(worst, abs(left - (base - green.get((m, n), 0))))
    return worst


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000),
       st.booleans())
def test_closed_form_cumulants_satisfy_the_literal_identity(degree, seed, spread):
    # the closed form's cumulants make every coefficient of the identity
    # below degree D vanish; one of them moved does not, and one of degree D
    # lies outside the window. Spread denominators make the graded clearing
    # decline.
    rng = random.Random(seed)
    table = random_moment_table(rng, degree)
    if spread:
        table = MomentTable(degree, R, {(m, n): v + Fraction(1, 10**30 + 16 * m + n)
                                        if m + n else v for (m, n), v in table.entries.items()})
    kappa = moments_to_cumulants(table)
    assert slow_residual(table, kappa) == 0 == verify_voiculescu_identity(table)
    for lowest, top, moved in ((1, degree - 1, True), (degree, degree, False)):
        key = rng.choice(table_keys(top, lowest))
        wrong = CumulantTable(degree, R, dict(kappa.entries))
        wrong.entries[key] += rng.choice((-3, -1, 1, 2))
        assert (slow_residual(table, wrong) != 0) == moved
