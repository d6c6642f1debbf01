"""Atomic planar measures and their moments; the marginal and product test oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifree import scalars
from bifree.cumulants import moments_to_cumulants
from bifree.errors import UnsupportedMeasureError
from bifree.measures import DiscretePlanarMeasure, moment_table, point_mass

from conftest import (FIRST, SECOND, marginal, no_fraction_arithmetic, oracle_measure_moment,
                      product_measure, random_line_measure, random_planar_measure)


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
        assert value == oracle_measure_moment(mu, m, n)


def test_json_round_trip(rng):
    mu = random_planar_measure(rng, 3)
    again = DiscretePlanarMeasure.from_jsonable(mu.to_jsonable(), mu.kind)
    assert again == mu


def test_a_measure_document_states_its_own_kind():
    atoms = [["1/2", "1", 0.25], [1, "-1", "3/4"]]
    stated = DiscretePlanarMeasure.from_jsonable({"atoms": atoms, "kind": "float"}, "rational")
    assert stated == DiscretePlanarMeasure.from_atoms(
        [(0.5, 1.0, 0.25), (1.0, -1.0, 0.75)], kind="float")
    unstated = DiscretePlanarMeasure.from_jsonable({"atoms": atoms}, "rational")
    assert unstated.kind == "rational" and unstated.moment(1, 0) == Fraction(7, 8)
    with pytest.raises(ValueError, match="unknown scalar kind"):
        DiscretePlanarMeasure.from_jsonable({"atoms": atoms, "kind": "complex"}, "float")


# -- the integer moment kernel against the per-atom sums ---------------------

# coprime denominators, one far beyond a machine word, and zero coordinates
DENOMINATORS = (1, 7, 11, 13, 10**30)
coordinates = st.one_of(st.just(Fraction(0)),
                        st.builds(Fraction, st.integers(-5, 5), st.sampled_from(DENOMINATORS)))


@st.composite
def measures(draw, signed=False):
    numerators = st.integers(-5, 5).filter(bool) if signed else st.integers(1, 5)
    weights = st.builds(Fraction, numerators, st.sampled_from(DENOMINATORS))
    atoms = draw(st.lists(st.tuples(coordinates, coordinates, weights), max_size=4))
    return DiscretePlanarMeasure.from_atoms(atoms, signed=signed)


def as_float_measure(mu):
    return DiscretePlanarMeasure.from_atoms(
        [(float(s), float(t), float(w)) for s, t, w in mu.atoms], signed=mu.signed,
        kind=scalars.FLOAT)


EMPTY = DiscretePlanarMeasure.from_atoms([])


@settings(max_examples=60, deadline=None)
@given(st.one_of(measures(), measures(signed=True)), st.integers(0, 7))
@example(EMPTY, 4)
@example(DiscretePlanarMeasure.from_atoms([(Fraction(1, 7), Fraction(-2, 11), Fraction(1, 13)),
                                           (0, Fraction(3, 10**30), Fraction(-5, 7))],
                                          signed=True), 7)
def test_moments_equal_per_atom_sums(mu, degree):
    want = {(m, total - m): oracle_measure_moment(mu, m, total - m)
            for total in range(degree + 1) for m in range(total + 1)}
    got = mu.moments(degree)
    assert list(got) == list(want)
    assert got == want
    assert all(mu.moment(m, n) == value for (m, n), value in want.items())
    if want[(0, 0)] == 1:  # a moment table needs total mass 1
        assert moment_table(mu, degree).entries == want


@settings(max_examples=40, deadline=None)
@given(st.one_of(measures(), measures(signed=True)), st.integers(0, 7))
@example(EMPTY, 4)
def test_float_moments_are_the_per_atom_sums_bit_for_bit(mu, degree):
    mu = as_float_measure(mu)
    want = {(m, total - m): oracle_measure_moment(mu, m, total - m)
            for total in range(degree + 1) for m in range(total + 1)}
    assert {k: repr(v) for k, v in mu.moments(degree).items()} == \
        {k: repr(v) for k, v in want.items()}
    assert all(repr(mu.moment(m, n)) == repr(value) for (m, n), value in want.items())


def test_empty_measure_moments_are_zero_of_its_kind():
    assert EMPTY.moments(2) == dict.fromkeys([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)], 0)
    assert all(isinstance(v, Fraction) for v in EMPTY.moments(2).values())
    empty_float = DiscretePlanarMeasure.from_atoms([], kind=scalars.FLOAT)
    assert all(repr(v) == "0.0" for v in empty_float.moments(3).values())


def test_moment_kernel_makes_no_fraction_arithmetic():
    # every s, t and w has its own denominator; each entry is one Fraction
    mu = DiscretePlanarMeasure.from_atoms([(Fraction(1, 7), Fraction(2, 11), Fraction(1, 13)),
                                           (Fraction(-3, 5), Fraction(1, 3), Fraction(12, 13))])
    want = {k: oracle_measure_moment(mu, *k) for k in mu.moments(6)}
    fresh = DiscretePlanarMeasure.from_atoms(mu.atoms)  # clears its data inside the block
    with no_fraction_arithmetic():
        got = fresh.moments(6)
        single = fresh.moment(4, 2)
    assert got == want
    assert single == want[(4, 2)]
