"""Additive bi-free convolution, scaling semigroup, marginal free convolution."""

import random
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import scalars
from bifree.convolution import (UncertifiedScaleWarning, bifree_convolve,
                                free_convolve_marginal, semigroup_scale)
from bifree.cumulants import cumulants_to_moments, moments_to_cumulants
from bifree.errors import DegreeError
from bifree.limits import bifree_gaussian, bifree_poisson
from bifree.measures import moment_table, point_mass
from bifree.partitions import enumerate_nc

from conftest import block_side_counts, random_cumulant_table

R = scalars.RATIONAL


def test_gaussian_convolution_adds_parameters():
    left = bifree_gaussian(1, 1, Fraction(1, 2), 4)
    right = bifree_gaussian(1, 1, Fraction(1, 3), 4)
    out = bifree_convolve(left, right)
    expected = bifree_gaussian(2, 2, Fraction(5, 6), 4)
    assert out.entries == expected.entries


def test_point_masses_convolve_to_shifted_point():
    k1 = moments_to_cumulants(moment_table(point_mass(1, 2), 5))
    k2 = moments_to_cumulants(moment_table(point_mass(3, -1), 5))
    out = bifree_convolve(k1, k2)
    expected = moments_to_cumulants(moment_table(point_mass(4, 1), 5))
    assert out.entries == expected.entries


def test_poisson_rate_addition():
    out = bifree_convolve(bifree_poisson(1, 2, 3, 4), bifree_poisson(Fraction(1, 2), 2, 3, 4))
    assert out.entries == bifree_poisson(Fraction(3, 2), 2, 3, 4).entries


def test_convolve_requires_matching_degree(rng):
    with pytest.raises(DegreeError):
        bifree_convolve(random_cumulant_table(rng, 3), random_cumulant_table(rng, 4))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_convolution_commutes_and_associates(seed):
    rng = random.Random(seed)
    k1, k2, k3 = (random_cumulant_table(rng, 4) for _ in range(3))
    assert bifree_convolve(k1, k2).entries == bifree_convolve(k2, k1).entries \
        == {key: k1.get(*key) + k2.get(*key) for key in k1.entries}
    left = bifree_convolve(bifree_convolve(k1, k2), k3)
    right = bifree_convolve(k1, bifree_convolve(k2, k3))
    assert left.entries == right.entries


def test_scale_identity_and_law(rng):
    table = random_cumulant_table(rng, 5)
    assert semigroup_scale(table, 1).entries == table.entries
    s, t = Fraction(3, 2), Fraction(5, 2)
    combined = bifree_convolve(semigroup_scale(table, s), semigroup_scale(table, t))
    assert combined.entries == semigroup_scale(table, s + t).entries


def test_scale_poisson_scales_rate():
    assert semigroup_scale(bifree_poisson(2, 1, -1, 4), Fraction(5, 4),
                           assume_divisible=True).entries \
        == bifree_poisson(Fraction(5, 2), 1, -1, 4).entries


def test_scale_interpolation_exact(rng):
    table = random_cumulant_table(rng, 4)
    p, q = 7, 3
    piece = semigroup_scale(table, Fraction(p, q), assume_divisible=True)
    acc = piece
    for _ in range(q - 1):
        acc = bifree_convolve(acc, piece)
    assert acc.entries == semigroup_scale(table, p).entries


def test_scale_warning_below_one(rng):
    table = random_cumulant_table(rng, 3)
    with pytest.warns(UncertifiedScaleWarning):
        semigroup_scale(table, Fraction(1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        semigroup_scale(table, Fraction(1, 2), assume_divisible=True)
        semigroup_scale(table, 2)
    with pytest.raises(ValueError):
        semigroup_scale(table, 0)


def test_marginal_point_masses():
    x, y = Fraction(2), Fraction(-3)
    mx = [x**k for k in range(5)]
    my = [y**k for k in range(5)]
    out = free_convolve_marginal(mx, my, 4)
    assert out == [(x + y)**k for k in range(5)]


def test_marginal_bernoulli_square_is_arcsine():
    bern = [Fraction(1), 0, 1, 0, 1]  # symmetric Bernoulli on +-1
    out = free_convolve_marginal(bern, bern, 4)
    assert out[2] == 2 and out[4] == 6
    assert out[1] == 0 and out[3] == 0


def test_marginal_semicircle_scaling():
    semi = [Fraction(1), 0, 1, 0, 2]
    out = free_convolve_marginal(semi, semi, 4)
    assert out[2] == 2 and out[4] == 8


def test_marginal_requires_unit_head():
    with pytest.raises(ValueError):
        free_convolve_marginal([2, 0, 1], [1, 0, 1], 2)


def test_marginal_consistency_with_bifree(rng):
    # first-marginal moments of the bi-free convolution equal the free
    # convolution of the first marginals
    k1 = random_cumulant_table(rng, 6)
    k2 = random_cumulant_table(rng, 6)
    joint = cumulants_to_moments(bifree_convolve(k1, k2))
    m1 = cumulants_to_moments(k1)
    m2 = cumulants_to_moments(k2)
    free = free_convolve_marginal([m1.get(m, 0) for m in range(7)],
                                  [m2.get(m, 0) for m in range(7)], 6)
    assert free == [joint.get(m, 0) for m in range(7)]
    free_right = free_convolve_marginal([m1.get(0, n) for n in range(7)],
                                        [m2.get(0, n) for n in range(7)], 6)
    assert free_right == [joint.get(0, n) for n in range(7)]


def test_two_path_oracle_coloured_expansion(rng):
    # moments of the convolution match the direct sum over non-crossing
    # partitions with blocks coloured by which summand they came from
    k1 = random_cumulant_table(rng, 5)
    k2 = random_cumulant_table(rng, 5)
    joint = cumulants_to_moments(bifree_convolve(k1, k2))
    for total in range(1, 6):
        for m in range(total + 1):
            acc = Fraction(0)
            for part in enumerate_nc(total):
                for colours in product((k1, k2), repeat=len(part.blocks)):
                    term = Fraction(1)
                    for block, table in zip(part.blocks, colours):
                        a, b = block_side_counts(block, m)
                        term *= table.get(a, b)
                    acc += term
            assert acc == joint.get(m, total - m)
