"""Example distributions and the triangular limit theorem at desk scale."""

import hashlib
import random
from fractions import Fraction

import pytest

from bifree import scalars
from bifree.cumulants import (cumulants_to_moments, moment_seq_to_cumulant_seq,
                              moments_to_cumulants)
from bifree.errors import RealizabilityError
from bifree.levy_hincin import check_cond_bounded, check_cpsd
from bifree.limits import (bifree_gaussian, bifree_poisson,
                           compound_bifree_poisson, compound_family,
                           poisson_family, row_sum_moments,
                           triangular_limit_estimate)
from bifree.measures import DiscretePlanarMeasure, moment_table

from conftest import FIRST, SECOND, marginal, random_planar_measure


def test_gaussian_constructor_entries():
    table = bifree_gaussian(1, 1, 1, 5)
    assert table.get(2, 0) == 1 and table.get(0, 2) == 1 and table.get(1, 1) == 1
    assert sum(1 for v in table.entries.values() if v != 0) == 3

    uncorrelated = bifree_gaussian(1, 1, 0, 4)
    assert uncorrelated.get(1, 1) == 0

    distinct = bifree_gaussian(2, 3, 1, 4)
    assert distinct.get(2, 0) == 2 and distinct.get(0, 2) == 3 and distinct.get(1, 1) == 1

    boundary = bifree_gaussian(1, 4, 2, 4)  # |c| = sqrt(s1 s2)
    assert boundary.get(1, 1) == 2
    with pytest.raises(RealizabilityError):
        bifree_gaussian(1, 1, 2, 4)
    with pytest.raises(ValueError):
        bifree_gaussian(0, 1, 0, 4)

    # degree 1 is the zero table: the variances and covariance sit at degree 2,
    # and they are checked all the same
    assert bifree_gaussian(2, 3, 1, 1).entries == {(1, 0): 0, (0, 1): 0}
    with pytest.raises(RealizabilityError):
        bifree_gaussian(1, 1, 2, 1)
    with pytest.raises(ValueError):
        bifree_gaussian(0, 1, 0, 1)


def test_poisson_constructor_entries():
    table = bifree_poisson(1, 1, 1, 4)
    assert all(v == 1 for v in table.entries.values())

    lam, a, b = Fraction(2), Fraction(1, 2), Fraction(3)
    for (m, n), value in bifree_poisson(lam, a, b, 4).entries.items():
        assert value == lam * a**m * b**n

    marginal_only = bifree_poisson(Fraction(3), Fraction(1, 2), 0, 4)
    for (m, n), value in marginal_only.entries.items():
        assert value == (3 * Fraction(1, 2)**m if n == 0 else 0)

    signed = bifree_poisson(2, 1, -1, 4)
    assert signed.get(1, 1) == -2 and signed.get(2, 2) == 2
    with pytest.raises(ValueError):
        bifree_poisson(0, 1, 1, 3)


def test_compound_constructor_entries():
    jump = DiscretePlanarMeasure.from_atoms([(2, -1, 1)])
    assert compound_bifree_poisson(Fraction(3, 2), jump, 5).entries \
        == bifree_poisson(Fraction(3, 2), 2, -1, 5).entries

    two_atoms = DiscretePlanarMeasure.from_atoms(
        [(1, 1, Fraction(1, 2)), (-1, -1, Fraction(1, 2))])
    table = compound_bifree_poisson(1, two_atoms, 6)
    for (m, n), value in table.entries.items():
        assert value == Fraction(1 + (-1)**(m + n), 2)

    with pytest.raises(ValueError):
        compound_bifree_poisson(1, DiscretePlanarMeasure.from_atoms([(1, 1, 2)]), 4)


def test_compound_marginals_are_free_compound_poisson(rng):
    lam = Fraction(2)
    jump = random_planar_measure(rng, 3)
    table = compound_bifree_poisson(lam, jump, 6)
    left = marginal(jump, FIRST)
    right = marginal(jump, SECOND)
    for m in range(1, 7):
        assert table.get(m, 0) == lam * left.moment(m, 0)
        assert table.get(0, m) == lam * right.moment(0, m)


def test_poisson_family_estimates_are_exact():
    lam, alpha, beta = Fraction(3, 2), Fraction(2), Fraction(-1)
    family = poisson_family(lam, alpha, beta)
    for m, n in [(1, 0), (1, 1), (3, 2)]:
        values = triangular_limit_estimate(family, m, n, [10, 100, 1000])
        assert all(v == lam * alpha**m * beta**n for v in values)


def test_compound_family_estimates():
    jump = DiscretePlanarMeasure.from_atoms(
        [(1, 2, Fraction(1, 3)), (-1, 0, Fraction(2, 3))])
    lam = Fraction(2)
    family = compound_family(lam, jump)
    for m, n in [(1, 0), (2, 1)]:
        values = triangular_limit_estimate(family, m, n, [10, 100])
        assert all(v == lam * jump.moment(m, n) for v in values)


def test_degenerate_family_gives_zero():
    family = lambda n_rows: DiscretePlanarMeasure.from_atoms([(0, 0, 1)])
    assert triangular_limit_estimate(family, 2, 1, [10, 100]) == [0, 0]


def test_row_sums_converge_at_rate_one_over_n():
    lam, alpha, beta = Fraction(1), Fraction(1), Fraction(2)
    family = poisson_family(lam, alpha, beta)
    limit = cumulants_to_moments(bifree_poisson(lam, alpha, beta, 5))
    errors = []
    for n_rows in (10, 100, 1000):
        approx = row_sum_moments(family, n_rows, 5)
        errors.append(max(abs(float(approx.get(m, n) - limit.get(m, n)))
                          for (m, n) in limit.entries))
    assert errors[0] > errors[1] > errors[2]
    for early, late in zip(errors, errors[1:]):
        assert 8 <= early / late <= 12


def test_row_sums_converge_for_compound_family():
    jump = DiscretePlanarMeasure.from_atoms(
        [(1, 1, Fraction(1, 2)), (-1, 1, Fraction(1, 2))])
    family = compound_family(Fraction(1, 2), jump)
    limit = cumulants_to_moments(compound_bifree_poisson(Fraction(1, 2), jump, 5))
    errors = []
    for n_rows in (10, 100, 1000):
        approx = row_sum_moments(family, n_rows, 5)
        errors.append(max(abs(float(approx.get(m, n) - limit.get(m, n)))
                          for (m, n) in limit.entries))
    for early, late in zip(errors, errors[1:]):
        assert 8 <= early / late <= 12


def test_constructors_are_infinitely_divisible():
    jump = DiscretePlanarMeasure.from_atoms(
        [(1, -1, Fraction(1, 4)), (2, 1, Fraction(3, 4))])
    for table in (bifree_gaussian(1, 1, Fraction(1, 2), 8),
                  bifree_poisson(2, Fraction(1, 2), 1, 8),
                  compound_bifree_poisson(1, jump, 8)):
        assert check_cpsd(table, 3).ok
        assert check_cond_bounded(table, 3).ok


def test_family_single_row_cumulants_approach_limit():
    # N * kappa_{m,n}(mu_N) -> limit cumulants as well (moments and
    # cumulants of one row agree to leading order)
    lam, alpha, beta = Fraction(1), Fraction(2), Fraction(1)
    family = poisson_family(lam, alpha, beta)
    target = bifree_poisson(lam, alpha, beta, 4)
    errors = []
    for n_rows in (100, 1000):
        cum = moments_to_cumulants(moment_table(family(n_rows), 4))
        errors.append(max(abs(float(n_rows * cum.get(m, n) - value))
                          for (m, n), value in target.entries.items()))
    assert 8 <= errors[0] / errors[1] <= 12


def family_outputs(kind):
    """Row sums and limit estimates of seeded Poisson and compound families.

    Float values print as float.hex and rational ones as p/q strings. The
    parameters have denominators 3, 5 and 7, so the float runs round.
    """
    cast = float if kind == scalars.FLOAT else Fraction
    text = float.hex if kind == scalars.FLOAT else str
    lines = []
    for seed in range(8):
        rng = random.Random(seed)
        rate, alpha, beta, s, t = (Fraction(rng.randint(-9, 9) or 1, rng.choice((3, 5, 7)))
                                   for _ in range(5))
        rate, weight = abs(rate), Fraction(rng.randint(1, 6), 7)
        jump = DiscretePlanarMeasure.from_atoms(
            [(cast(alpha), cast(beta), cast(weight)), (cast(s), cast(t), cast(1 - weight))],
            kind=kind)
        for family in (poisson_family(cast(rate), cast(alpha), cast(beta), kind),
                       compound_family(cast(rate), jump)):
            for n_rows in (10, 100, 1000):
                values = row_sum_moments(family, n_rows, 4).entries.values()
                lines.append(" ".join(map(text, values)))
            for m, n in ((1, 0), (1, 1), (2, 3)):
                values = triangular_limit_estimate(family, m, n, [10, 100, 1000])
                lines.append(" ".join(map(text, values)))
    return lines


# SHA-256 of family_outputs(kind). The rational digest is that of the
# poisson_family that built its own two atoms, and it never moves. The float
# digest was re-recorded when float transforms moved from the first-block
# recursion to the closed form, after test_float_transforms_are_accurate
# bounded both against the exact values.
FAMILY_OUTPUTS_SHA256 = {
    scalars.RATIONAL: "efe7062ca8c207414fe5dc0408dec360265a578fed912ad0d5d5988a7098e793",
    scalars.FLOAT: "d890f6b46ee4cd35aa3c8d884ce42440dceec1f80a87fde28a63f34b4336b6ff",
}


def test_family_outputs_are_unchanged_bit_for_bit():
    for kind, expected in FAMILY_OUTPUTS_SHA256.items():
        digest = hashlib.sha256("\n".join(family_outputs(kind)).encode()).hexdigest()
        assert digest == expected, kind
