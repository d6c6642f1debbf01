"""Fock space: the operator oracle, vacuum moments, model cumulants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import scalars
from bifree.convolution import bifree_convolve
from bifree.cumulants import moments_to_cumulants
from bifree.errors import CommutationError, ShapeError
from bifree.fock import (FockModel, check_commutation, levy_marginal_model,
                         model_cumulants, moment_table_from_model, vacuum_moment)

from conftest import (ANNIH_L, CREATE_L, CREATE_R, GAUGE_L, GAUGE_R,
                      apply_operator, face_by_operators, face_on_words, no_fraction_arithmetic,
                      oracle_vacuum_moment, random_commuting_model, rational, word_moment_table)

VAC = {(): Fraction(1)}


def test_left_creation_on_vacuum():
    f = (Fraction(2), Fraction(1, 3))
    out = apply_operator(CREATE_L, f, VAC, 3)
    assert out == {(0,): 2, (1,): Fraction(1, 3)}


def test_left_annihilation_kills_vacuum():
    assert apply_operator(ANNIH_L, (1, 1), VAC, 3) == {}


def test_annihilation_contracts_against_vector():
    f = (Fraction(3), Fraction(5))
    one_letter = apply_operator(CREATE_L, (1, 0), VAC, 3)
    assert apply_operator(ANNIH_L, f, one_letter, 3) == {(): 3}


def test_gauge_applies_matrix_to_first_letter():
    t = ((0, 1), (1, 0))
    state = {(0, 1): Fraction(1)}  # e1 tensor e2
    assert apply_operator(GAUGE_L, t, state, 3) == {(1, 1): 1}
    assert apply_operator(GAUGE_L, t, VAC, 3) == {}


def test_gauge_right_acts_on_last_letter():
    t = ((2, 0), (0, 3))
    assert apply_operator(GAUGE_R, t, {(0, 1): Fraction(1)}, 3) == {(0, 1): 3}


def test_right_creation_appends():
    state = apply_operator(CREATE_L, (1, 0), VAC, 3)
    assert apply_operator(CREATE_R, (0, 1), state, 3) == {(0, 1): 1}


def test_creation_truncates_at_cap():
    assert apply_operator(CREATE_L, (1,), {(0,): Fraction(1)}, 1) == {}


def test_unknown_operator_kind():
    with pytest.raises(ShapeError):
        apply_operator("boost", 1, VAC, 3)


def test_scalar_pair_moments():
    m = FockModel.from_arrays([], [], [], [], 2, 3)
    for mm, nn in [(1, 0), (0, 1), (2, 3), (4, 0)]:
        assert vacuum_moment(m, mm, nn) == Fraction(2)**mm * Fraction(3)**nn


def test_standard_semicircle_moments():
    m = FockModel.from_arrays([1], [0], [[0]], [[0]])
    moments = [vacuum_moment(m, k, 0) for k in range(7)]
    assert moments == [1, 0, 1, 0, 2, 0, 5]


def test_gaussian_mixed_moment_is_inner_product():
    c = Fraction(5, 7)
    m = FockModel.from_arrays([1, 0], [c, 1], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert vacuum_moment(m, 1, 1) == c


def test_truncation_exactness(rng):
    # each step moves one level at most, so a word above level (m + n) // 2
    # cannot get back to the vacuum: the oracle truncated there is still exact
    model = random_commuting_model(rng, 3)
    for total in range(1, 9):
        for m in (0, total // 2, total):
            n = total - m
            exact = vacuum_moment(model, m, n)
            assert oracle_vacuum_moment(model, m, n, cap=total // 2) == exact
            if total >= 2 and exact:
                assert oracle_vacuum_moment(model, m, n, cap=total // 2 - 1) != exact


def test_commutation_examples():
    no_gauge = FockModel.from_arrays([1, 2], [3, 4], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert check_commutation(no_gauge).ok

    diag = FockModel.from_arrays([1, 0], [0, 1], [[1, 0], [0, 0]], [[0, 0], [0, 1]])
    assert check_commutation(diag).ok

    bad = FockModel.from_arrays([1, 0], [1, 0], [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    report = check_commutation(bad)
    assert not report.ok
    assert report.gauge_residual == 1.0


def test_float_commutation_is_relative_to_the_model_scale():
    # f = (c, 0), g = (0, c), T1 = [[c, 0], [0, 0]], T2 = [[0, c], [c, 0]]:
    # both residuals are c^2, which an absolute COMMUTATION_TOL let through at
    # c = 1e-8; a commuting model dilated by c passes at every c
    for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        bad = FockModel.from_arrays([c, 0], [0, c], [[c, 0], [0, 0]], [[0, c], [c, 0]],
                                    kind=scalars.FLOAT)
        report = check_commutation(bad)
        assert not report.ok and report.gauge_residual == report.commutator_residual == c * c
        good = FockModel.from_arrays([c, 0], [0, c], [[c, 0], [0, 0]], [[0, 0], [0, c]],
                                     kind=scalars.FLOAT)
        assert check_commutation(good).ok


def test_commutation_as_operators(rng):
    # when the gauge conditions hold, the two faces commute on the whole
    # space, not just in distribution
    model = random_commuting_model(rng, 3)
    assert check_commutation(model).ok
    a = lambda state: face_on_words(state, model.f, model.t1, model.lambda1, True)
    b = lambda state: face_on_words(state, model.g, model.t2, model.lambda2, False)
    for _ in range(50):
        words = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            words[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert a(b(words)) == b(a(words))


def test_model_cumulants_poisson_closed_form():
    lam, alpha = Fraction(4), Fraction(1, 2)
    root = Fraction(1)  # sqrt(lam)*alpha with lam = 4, alpha = 1/2
    m = FockModel.from_arrays([root], [root], [[alpha]], [[alpha]],
                              lam * alpha, lam * alpha)
    cum = model_cumulants(m, 6)
    for (mm, nn), value in cum.entries.items():
        assert value == lam * alpha**(mm + nn)


def test_model_cumulants_gaussian_support():
    m = FockModel.from_arrays([2, 0], [1, 1], [[0, 0], [0, 0]], [[0, 0], [0, 0]],
                              Fraction(1, 2), Fraction(-1, 3))
    cum = model_cumulants(m, 5)
    assert cum.get(1, 0) == Fraction(1, 2)
    assert cum.get(0, 1) == Fraction(-1, 3)
    assert cum.get(2, 0) == 4
    assert cum.get(0, 2) == 2
    assert cum.get(1, 1) == 2
    assert all(v == 0 for (mm, nn), v in cum.entries.items() if mm + nn >= 3)


def test_model_cumulants_vanish_without_left_vector():
    # T1 g = 0 = T2 f keeps the faces commuting even with f = 0
    m = FockModel.from_arrays([0, 0], [1, 0], [[0, 0], [0, 1]], [[0, 0], [0, 2]],
                              Fraction(7), 0)
    cum = model_cumulants(m, 5)
    for (mm, nn), value in cum.entries.items():
        if (mm, nn) == (1, 0):
            assert value == 7
        elif mm >= 1:
            assert value == 0


def test_model_cumulants_require_commutation():
    bad = FockModel.from_arrays([1, 0], [1, 0], [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(CommutationError):
        model_cumulants(bad, 4)


def test_cumulant_consistency_random_models(rng):
    # vacuum moments invert to exactly the closed-form cumulants
    for _ in range(25):
        model = random_commuting_model(rng, rng.randint(1, 4))
        table = moment_table_from_model(model, 6)
        assert moments_to_cumulants(table).entries == model_cumulants(model, 6).entries


def test_levy_marginal_identity_and_quarter():
    m = FockModel.from_arrays([2], [2], [[1]], [[1]], 4, 4)
    assert model_cumulants(levy_marginal_model(m, 1), 5).entries == model_cumulants(m, 5).entries
    quarter_model = levy_marginal_model(m, Fraction(1, 4))
    quarter = model_cumulants(quarter_model, 5)
    full = model_cumulants(m, 5)
    assert all(4 * quarter.entries[k] == full.entries[k] for k in full.entries)
    assert quarter_model.kind == scalars.RATIONAL


def float_copy(model):
    """The model with its data rounded to float, read back from its own document."""
    return FockModel.from_jsonable({**model.to_jsonable(), "kind": scalars.FLOAT})


def test_levy_marginal_nfold_convolution_recovers_model(rng):
    # the time-1/n marginal is the one summand whose n-fold bi-free sum is the
    # model; sqrt(1/n) is irrational for n = 2, 3, 5, so those run on a float copy
    model = random_commuting_model(rng, 3)
    for n in (2, 3, 4, 5):
        source = model if n == 4 else float_copy(model)
        full = model_cumulants(source, 5)
        part = model_cumulants(levy_marginal_model(source, Fraction(1, n)), 5)
        assert part.kind == source.kind
        acc = part
        for _ in range(n - 1):
            acc = bifree_convolve(acc, part)
        if n == 4:
            assert acc.entries == full.entries
        else:
            assert all(abs(acc.entries[k] - full.entries[k]) < 1e-10 for k in full.entries)
    with pytest.raises(ValueError, match="t = 1/2"):
        levy_marginal_model(model, Fraction(1, 2))


def test_levy_marginal_examples(rng):
    model = random_commuting_model(rng, 2)
    base = model_cumulants(model, 5)
    assert model_cumulants(levy_marginal_model(model, 1), 5).entries == base.entries

    doubled = levy_marginal_model(float_copy(model), 2)
    scale = model_cumulants(doubled, 5)
    assert doubled.kind == scalars.FLOAT
    assert all(abs(scale.entries[k] - 2 * float(base.entries[k])) < 1e-12
               for k in base.entries)

    frozen = levy_marginal_model(model, 0)
    assert all(v == 0 for v in model_cumulants(frozen, 5).entries.values())
    with pytest.raises(ValueError):
        levy_marginal_model(model, -1)


def test_levy_marginal_additivity(rng):
    model = random_commuting_model(rng, 3)
    s, t = Fraction(9, 4), Fraction(4)  # s, t, s + t all perfect squares
    left = model_cumulants(levy_marginal_model(model, s), 5)
    right = model_cumulants(levy_marginal_model(model, t), 5)
    both = model_cumulants(levy_marginal_model(model, s + t), 5)
    assert bifree_convolve(left, right).entries == both.entries


def test_model_validation():
    with pytest.raises(ShapeError):
        FockModel.from_arrays([1], [1, 2], [[0]], [[0]])
    with pytest.raises(ShapeError):
        FockModel.from_arrays([1, 0], [0, 1], [[0, 1], [0, 0]], [[0, 0], [0, 0]])


def test_model_json_round_trip(rng):
    model = random_commuting_model(rng, 3)
    again = FockModel.from_jsonable(model.to_jsonable())
    assert again == model


# -- fast paths against their oracles ---------------------------------------

small_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def fock_models(draw):
    """Rational models with arbitrary symmetric gauges; the faces need not commute."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(small_rationals, min_size=dim, max_size=dim)

    def symmetric():
        mat = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                mat[i][j] = mat[j][i] = draw(small_rationals)
        return mat

    return FockModel.from_arrays(draw(vec), draw(vec), symmetric(), symmetric(),
                                 draw(small_rationals), draw(small_rationals))


def as_float_model(model):
    floats = lambda rows: [[float(x) for x in row] for row in rows]
    return FockModel.from_arrays(
        [float(x) for x in model.f], [float(x) for x in model.g],
        floats(model.t1), floats(model.t2), float(model.lambda1),
        float(model.lambda2), kind=scalars.FLOAT)


def per_entry_table(model, degree):
    return {(m, t - m): oracle_vacuum_moment(model, m, t - m)
            for t in range(degree + 1) for m in range(t + 1)}


@settings(max_examples=30, deadline=None)
@given(fock_models(), st.integers(0, 6))
def test_moment_table_matches_per_entry_moments(model, degree):
    assert moment_table_from_model(model, degree).entries == per_entry_table(model, degree)


@settings(max_examples=15, deadline=None)
@given(fock_models(), st.integers(1, 6))
def test_float_moment_table_matches_per_entry_moments(model, degree):
    model = as_float_model(model)
    fast = moment_table_from_model(model, degree).entries
    for key, want in per_entry_table(model, degree).items():
        assert abs(fast[key] - want) <= 1e-9 * max(1.0, abs(want))


def test_commuting_model_of_dimension_12_at_degree_12(rng):
    # dim^degree = 12^12 words would make the word maps hopeless here
    model = random_commuting_model(rng, 12)
    table = moment_table_from_model(model, 12)
    assert moments_to_cumulants(table).entries == model_cumulants(model, 12).entries


def test_non_commuting_model_of_dimension_5_at_degree_6(rng):
    def symmetric():
        mat = [[None] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                mat[i][j] = mat[j][i] = rational(rng)
        return mat

    model = FockModel.from_arrays([rational(rng) for _ in range(5)],
                                  [rational(rng) for _ in range(5)], symmetric(), symmetric(),
                                  rational(rng), rational(rng))
    assert not check_commutation(model).ok
    table = moment_table_from_model(model, 6)
    for (m, n), value in table.entries.items():
        assert value == oracle_vacuum_moment(model, m, n), (m, n)


@st.composite
def fock_states(draw, dim, cap=4):
    words = st.lists(st.integers(0, dim - 1), max_size=cap).map(tuple)
    return draw(st.dictionaries(words, small_rationals, max_size=8))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_one_pass_faces_equal_operator_sums(data):
    # cap 5 leaves room for every word of length <= 4 to grow
    model = data.draw(fock_models())
    state = data.draw(fock_states(model.dim))
    assert face_on_words(state, model.f, model.t1, model.lambda1, True) == \
        face_by_operators(model, state, 5, True)
    assert face_on_words(state, model.g, model.t2, model.lambda2, False) == \
        face_by_operators(model, state, 5, False)


# -- integer stretches: each face over its own common denominator ------------

DENOMINATORS = (7, 11, 13, 10**30)


@st.composite
def two_denominator_models(draw):
    """Models whose faces have different common denominators L_a != L_b.

    Every entry of the left face's data is n / den_a and of the right face's
    n / den_b, with lambda = +-1 / den so that each face's L is its den.
    """
    dim = draw(st.integers(1, 3))
    den_a, den_b = draw(st.permutations(DENOMINATORS))[:2]

    def face(den):
        entry = st.builds(Fraction, st.integers(-3, 3), st.just(den))
        mat = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                mat[i][j] = mat[j][i] = draw(entry)
        return (draw(st.lists(entry, min_size=dim, max_size=dim)), mat,
                Fraction(draw(st.sampled_from((-1, 1))), den))

    (f, t1, lam1), (g, t2, lam2) = face(den_a), face(den_b)
    return FockModel.from_arrays(f, g, t1, t2, lam1, lam2)


@settings(max_examples=25, deadline=None)
@given(two_denominator_models(), st.integers(0, 5))
def test_two_denominator_tables_match_per_entry_moments(model, degree):
    table = moment_table_from_model(model, degree).entries
    assert table == per_entry_table(model, degree)
    assert table == word_moment_table(model, degree)
    m = degree // 2
    assert vacuum_moment(model, m, degree - m) == table[(m, degree - m)]


def absolute_model(model):
    """The model with every datum replaced by its absolute value."""
    absolute = lambda rows: [[abs(x) for x in row] for row in rows]
    return FockModel.from_arrays([abs(x) for x in model.f], [abs(x) for x in model.g],
                                 absolute(model.t1), absolute(model.t2),
                                 abs(model.lambda1), abs(model.lambda2))


FLOAT_TABLE_RTOL = 1e-14


@settings(max_examples=25, deadline=None)
@given(st.one_of(fock_models(), two_denominator_models()), st.integers(0, 6))
def test_float_tables_match_the_exact_tables(model, degree):
    # a vacuum moment sums products of the model's data over paths, each with a
    # positive count, so the absolute model's moment bounds the sum of the
    # terms' sizes; up to degree 6 the float table of the rounded data is
    # within FLOAT_TABLE_RTOL times that bound of the exact table (worst seen
    # 6.6e-16)
    exact = moment_table_from_model(model, degree).entries
    sizes = moment_table_from_model(absolute_model(model), degree).entries
    fast = moment_table_from_model(as_float_model(model), degree).entries
    for key, want in exact.items():
        assert abs(Fraction(fast[key]) - want) <= FLOAT_TABLE_RTOL * sizes[key], key


def test_fock_kernel_makes_no_fraction_arithmetic():
    model = FockModel.from_arrays([Fraction(1, 7), Fraction(2, 7)], [Fraction(3, 11), 0],
                                  [[Fraction(1, 7), 0], [0, 1]], [[1, Fraction(1, 11)],
                                                                  [Fraction(1, 11), 0]],
                                  Fraction(1, 7), Fraction(-1, 11))
    want = per_entry_table(model, 5)
    with no_fraction_arithmetic():
        table = moment_table_from_model(model, 5)
        single = vacuum_moment(model, 2, 3)
    assert table.entries == want
    assert single == want[(2, 3)]
