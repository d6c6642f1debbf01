"""Atomic planar measures: moments, marginals, products."""

from fractions import Fraction

import pytest

from bifree import scalars
from bifree.cumulants import moments_to_cumulants
from bifree.errors import UnsupportedMeasureError
from bifree.measures import (FIRST, SECOND, DiscretePlanarMeasure, marginal,
                             moment_table, point_mass, product_measure)

from conftest import random_line_measure, random_planar_measure


def test_point_mass_moment():
    assert point_mass(2, 3).moment(1, 1) == 6


def test_symmetric_bernoulli_moment():
    mu = DiscretePlanarMeasure.from_atoms(
        [(1, 0, Fraction(1, 2)), (-1, 0, Fraction(1, 2))])
    assert mu.moment(2, 0) == 1
    assert mu.moment(1, 0) == 0


def test_poisson_row_scaled_moment():
    lam, alpha, beta = Fraction(3, 2), Fraction(2), Fraction(-1)
    for n_rows in (7, 100):
        p = lam / n_rows
        mu = DiscretePlanarMeasure.from_atoms(
            [(0, 0, 1 - p), (alpha, beta, p)])
        for m, n in [(1, 0), (2, 1), (0, 3)]:
            assert n_rows * mu.moment(m, n) == lam * alpha**m * beta**n


def test_marginal_examples():
    assert marginal(point_mass(2, 3), FIRST).atoms == ((2, 0, 1),)
    assert marginal(point_mass(2, 3), SECOND).atoms == ((0, 3, 1),)
    merged = marginal(DiscretePlanarMeasure.from_atoms(
        [(1, 5, Fraction(1, 2)), (-1, 5, Fraction(1, 2))]), SECOND)
    assert merged.atoms == ((0, 5, 1),)
    four = DiscretePlanarMeasure.from_atoms(
        [(s, t, Fraction(1, 4)) for s in (1, -1) for t in (1, -1)])
    half = Fraction(1, 2)
    assert marginal(four, FIRST).atoms == ((-1, 0, half), (1, 0, half))
    assert marginal(four, SECOND).atoms == ((0, -1, half), (0, 1, half))


def test_marginal_rejects_signed():
    signed = DiscretePlanarMeasure.from_atoms([(0, 0, -1), (1, 1, 2)], signed=True)
    with pytest.raises(UnsupportedMeasureError):
        marginal(signed, FIRST)


def test_product_measure_examples():
    # nu1's first coordinate against nu2's second; the others are ignored
    assert product_measure(point_mass(3, 7), point_mass(5, -2)).atoms == ((3, -2, 1),)

    bern = DiscretePlanarMeasure.from_atoms([(1, 4, Fraction(1, 2)), (-1, 4, Fraction(1, 2))])
    prod = product_measure(bern, point_mass(1, 0))
    assert prod.atoms == ((-1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2)))


def test_product_moments_factorize(rng):
    nu1 = random_planar_measure(rng, 3)
    nu2 = random_planar_measure(rng, 2)
    prod = product_measure(nu1, nu2)
    for total in range(0, 9):
        for m in range(total + 1):
            assert prod.moment(m, total - m) == nu1.moment(m, 0) * nu2.moment(0, total - m)
    assert prod == product_measure(marginal(nu1, FIRST), marginal(nu2, SECOND))


def test_product_measure_has_no_mixed_cumulants(rng):
    for _ in range(3):
        prod = product_measure(random_line_measure(rng, 2), random_line_measure(rng, 2, SECOND))
        cum = moments_to_cumulants(moment_table(prod, 6))
        for (m, n), value in cum.entries.items():
            if m >= 1 and n >= 1:
                assert value == 0


def test_marginal_moments_match_joint(rng):
    mu = random_planar_measure(rng, 4)
    for k in range(6):
        assert marginal(mu, FIRST).moment(k, 0) == mu.moment(k, 0)
        assert marginal(mu, SECOND).moment(0, k) == mu.moment(0, k)


def test_atom_merge_and_zero_drop():
    mu = DiscretePlanarMeasure.from_atoms(
        [(1, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2)), (2, 2, 0)])
    assert mu.atoms == ((1, 1, 1),)
    close = DiscretePlanarMeasure.from_atoms(
        [(1.0, 0.0, 0.5), (1.0 + 1e-14, 0.0, 0.5)], kind=scalars.FLOAT)
    assert len(close.atoms) == 1


def test_signed_cancellation():
    mu = DiscretePlanarMeasure.from_atoms([(1, 1, 1), (1, 1, -1)], signed=True)
    assert mu.atoms == ()


def test_probability_flags():
    mu = DiscretePlanarMeasure.from_atoms([(0, 0, Fraction(1, 3)), (1, 2, Fraction(2, 3))])
    assert mu.is_probability()
    assert not DiscretePlanarMeasure.from_atoms([(0, 0, 2)]).is_probability()
    with pytest.raises(UnsupportedMeasureError):
        DiscretePlanarMeasure.from_atoms([(0, 0, -1)])


def test_moment_table_matches_pointwise(rng):
    mu = random_planar_measure(rng, 3)
    table = moment_table(mu, 5)
    assert table.get(0, 0) == 1
    for (m, n), value in table.entries.items():
        assert value == mu.moment(m, n)


def test_json_round_trip(rng):
    mu = random_planar_measure(rng, 3)
    again = DiscretePlanarMeasure.from_jsonable(mu.to_jsonable(), mu.kind)
    assert again == mu
