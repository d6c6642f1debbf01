"""Atomic planar measures: moments, marginals, products."""

from fractions import Fraction

import pytest

from bifree import scalars
from bifree.cumulants import moments_to_cumulants
from bifree.errors import UnsupportedMeasureError
from bifree.measures import (FIRST, SECOND, DiscreteMeasure1D,
                             DiscretePlanarMeasure, marginal, moment_table,
                             point_mass, product_measure)

from conftest import random_measure_1d, random_planar_measure


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
    assert marginal(point_mass(2, 3), FIRST).atoms == ((2, 1),)
    merged = marginal(DiscretePlanarMeasure.from_atoms(
        [(1, 5, Fraction(1, 2)), (-1, 5, Fraction(1, 2))]), SECOND)
    assert merged.atoms == ((5, 1),)
    four = DiscretePlanarMeasure.from_atoms(
        [(s, t, Fraction(1, 4)) for s in (1, -1) for t in (1, -1)])
    for axis in (FIRST, SECOND):
        assert marginal(four, axis).atoms == ((-1, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_marginal_rejects_signed():
    signed = DiscretePlanarMeasure.from_atoms([(0, 0, -1), (1, 1, 2)], signed=True)
    with pytest.raises(UnsupportedMeasureError):
        marginal(signed, FIRST)


def test_product_measure_examples():
    dx = DiscreteMeasure1D.from_atoms([(3, 1)])
    dy = DiscreteMeasure1D.from_atoms([(-2, 1)])
    assert product_measure(dx, dy).atoms == ((3, -2, 1),)

    bern = DiscreteMeasure1D.from_atoms([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
    zero = DiscreteMeasure1D.from_atoms([(0, 1)])
    prod = product_measure(bern, zero)
    assert prod.atoms == ((-1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2)))


def test_product_moments_factorize(rng):
    nu1 = random_measure_1d(rng, 3)
    nu2 = random_measure_1d(rng, 2)
    prod = product_measure(nu1, nu2)
    for total in range(0, 9):
        for m in range(total + 1):
            assert prod.moment(m, total - m) == nu1.moment(m) * nu2.moment(total - m)


def test_product_measure_has_no_mixed_cumulants(rng):
    for _ in range(3):
        prod = product_measure(random_measure_1d(rng, 2), random_measure_1d(rng, 2))
        cum = moments_to_cumulants(moment_table(prod, 6))
        for (m, n), value in cum.entries.items():
            if m >= 1 and n >= 1:
                assert value == 0


def test_marginal_moments_match_joint(rng):
    mu = random_planar_measure(rng, 4)
    for k in range(6):
        assert marginal(mu, FIRST).moment(k) == mu.moment(k, 0)
        assert marginal(mu, SECOND).moment(k) == mu.moment(0, k)


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
    nu = random_measure_1d(rng, 2)
    assert DiscreteMeasure1D.from_jsonable(nu.to_jsonable(), nu.kind) == nu
