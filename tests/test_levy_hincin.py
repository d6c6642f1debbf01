"""Levy-Hincin correspondence: validation, gates, GNS round trips."""

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import levy_hincin, scalars
from bifree.convolution import bifree_convolve
from bifree.cumulants import CumulantTable, table_keys
from bifree.errors import CommutationError, DegreeError, RealizabilityError
from bifree.fock import FockModel, model_cumulants
from bifree.levy_hincin import (LevyHincinData, check_cond_bounded, check_cpsd,
                                extract_levy_measures, gns_reconstruct, lh_to_cumulants,
                                validate_lh)
from bifree.limits import (bifree_gaussian, bifree_poisson,
                           compound_bifree_poisson)
from bifree.measures import DiscretePlanarMeasure

from conftest import (SECOND, float_copy, no_fraction_arithmetic, numpy_extract_levy_measures,
                      oracle_lh_to_cumulants, product_measure, random_commuting_model,
                      random_float_commuting_model, random_line_measure, random_validated_lh)

R = scalars.RATIONAL


def origin_measure(weight, signed=False):
    return DiscretePlanarMeasure.from_atoms([(0, 0, weight)], signed=signed)


def gaussian_lh(s1, s2, c):
    return LevyHincinData(Fraction(0), Fraction(0), origin_measure(s1),
                          origin_measure(s2), origin_measure(c, signed=True))


def poisson_lh(lam, alpha, beta):
    atom = lambda w, signed=False: DiscretePlanarMeasure.from_atoms(
        [(alpha, beta, w)], signed=signed)
    return LevyHincinData(lam * alpha, lam * beta, atom(lam * alpha * alpha),
                          atom(lam * beta * beta), atom(lam * alpha * beta, True))


def factorial_table(degree=8):
    entries = {(m, t - m): Fraction(math.factorial(t))
               for t in range(1, degree + 1) for m in range(t + 1)}
    return CumulantTable(degree, R, entries)


def test_validate_gaussian_data():
    assert validate_lh(gaussian_lh(Fraction(1), Fraction(1), Fraction(1, 2))).ok


def test_validate_poisson_data():
    report = validate_lh(poisson_lh(Fraction(2), Fraction(1), Fraction(3)))
    assert report.ok and report.max_relation_residual == 0


def test_validate_atom_inequality_failure():
    report = validate_lh(gaussian_lh(Fraction(1), Fraction(1), Fraction(2)))
    assert not report.atom_inequality_ok
    assert report.relation_rho1_ok and report.relation_rho2_ok


def test_validate_relation_failure():
    broken = LevyHincinData(Fraction(0), Fraction(0),
                            DiscretePlanarMeasure.from_atoms([(1, 1, 1)]),
                            DiscretePlanarMeasure.from_atoms([(1, 1, 1)]),
                            DiscretePlanarMeasure.from_atoms([(1, 1, 2)], signed=True))
    report = validate_lh(broken)
    assert not report.ok and report.max_relation_residual == 1.0


def test_lh_to_cumulants_gaussian():
    cum = lh_to_cumulants(gaussian_lh(Fraction(2), Fraction(3), Fraction(1)), 6)
    assert cum.get(2, 0) == 2 and cum.get(0, 2) == 3 and cum.get(1, 1) == 1
    assert all(v == 0 for (m, n), v in cum.entries.items() if m + n >= 3)


def test_lh_to_cumulants_poisson():
    lam, a, b = Fraction(3), Fraction(1, 2), Fraction(-2)
    cum = lh_to_cumulants(poisson_lh(lam, a, b), 8)
    for (m, n), value in cum.entries.items():
        assert value == lam * a**m * b**n


def test_lh_to_cumulants_point_distribution():
    empty = DiscretePlanarMeasure.from_atoms([])
    empty_signed = DiscretePlanarMeasure.from_atoms([], signed=True)
    data = LevyHincinData(Fraction(3), Fraction(-1), empty, empty, empty_signed)
    cum = lh_to_cumulants(data, 5)
    assert cum.get(1, 0) == 3 and cum.get(0, 1) == -1
    assert all(v == 0 for (m, n), v in cum.entries.items() if m + n >= 2)


def test_lh_to_cumulants_overlap_disagreement_names_index():
    # the per-atom formulas first disagree at (1, 2); the refusal's report
    # names both relations that the one atom breaks
    bad = LevyHincinData(Fraction(0), Fraction(0),
                         DiscretePlanarMeasure.from_atoms([(1, 1, 2)]),
                         DiscretePlanarMeasure.from_atoms([(1, 1, 2)]),
                         DiscretePlanarMeasure.from_atoms([(1, 1, 1)], signed=True))
    with pytest.raises(RealizabilityError, match=r"^triple fails validation: LhValidation\("
                       r"relation_rho1_ok=False, relation_rho2_ok=False, "
                       r"atom_inequality_ok=True, positivity_ok=True, "
                       r"max_relation_residual=1\.0\)$"):
        lh_to_cumulants(bad, 4)


def test_lh_to_cumulants_compares_every_formula():
    # every entry of total degree 3 has agreeing formulas and (2, 2) does not;
    # the triple is judged atom by atom, not by its formulas, so it is refused
    # at every degree
    bad = LevyHincinData(Fraction(0), Fraction(0),
                         DiscretePlanarMeasure.from_atoms([(1, 1, 1)]),
                         DiscretePlanarMeasure.from_atoms([(1, 1, 1)]),
                         DiscretePlanarMeasure.from_atoms([(1, 0, 1), (0, 1, 1)], signed=True))
    assert isinstance(oracle_lh_to_cumulants(bad, 3), dict)
    assert oracle_lh_to_cumulants(bad, 4) == (
        "measure formulas disagree at index (2, 2): 1 vs 0")
    assert not validate_lh(bad).ok
    for degree in (3, 4):
        with pytest.raises(RealizabilityError, match="^triple fails validation"):
            lh_to_cumulants(bad, degree)


def perturbed_lh(seed):
    """A consistent random triple, then with one atom added to one measure.

    The atom has coordinates in {0, +-1/7, +-2/11}, so some perturbations
    leave every formula agreeing and the rest break them at some index.
    """
    rng = random.Random(seed)
    data = random_validated_lh(rng, rng.randint(1, 3))
    name = rng.choice(("rho1", "rho2", "rho", None))
    if name is None:
        return data
    mu = getattr(data, name)
    coordinate = lambda: rng.choice((0, Fraction(1, 7), Fraction(-1, 7), Fraction(2, 11),
                                     Fraction(-2, 11)))
    atom = (coordinate(), coordinate(), Fraction(rng.randint(1, 3), rng.choice((1, 13))))
    return replace(data, **{name: DiscretePlanarMeasure.from_atoms(mu.atoms + (atom,),
                                                                   signed=mu.signed)})


def assert_refused_exactly_when_invalid(data, degree):
    """lh_to_cumulants refuses a triple exactly when validate_lh does; else it is the oracle.

    A triple whose per-atom formulas disagree is never valid.
    """
    want, report = oracle_lh_to_cumulants(data, degree), validate_lh(data)
    if not report.ok:
        with pytest.raises(RealizabilityError) as raised:
            lh_to_cumulants(data, degree)
        assert str(raised.value) == f"triple fails validation: {report}"
    else:
        assert not isinstance(want, str)
        assert lh_to_cumulants(data, degree).entries == want
    return want, report


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_lh_to_cumulants_matches_per_atom_formulas(seed, degree):
    # the entries of every formula summed atom by atom for a valid triple, and
    # the validation report's refusal for any other
    assert_refused_exactly_when_invalid(perturbed_lh(seed), degree)


UNRELATED = (7, 11, 13, 10**30)


def unrelated_scales_lh(seed, denominators):
    """A consistent triple whose measures clear to unrelated scales.

    The shared atoms sit off the axes, coordinates and rho1 weights over
    denominators drawn from UNRELATED, rho = t rho1 / s and rho2 = t rho / s.
    Each measure also holds atoms that only its own formulas read, over its
    own denominator: rho1 at (u, 0) and the origin, rho2 at (0, u) and the
    origin, rho at the origin (over its own times 10^31, which keeps the
    atom inequality). Returns the triple and its shared atom count.
    """
    rng = random.Random(seed)
    pick = lambda den: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), den)
    shared = {(pick(rng.choice(UNRELATED)), pick(rng.choice(UNRELATED)))
              for _ in range(rng.randint(1, 3))}
    atoms1, atoms2, atoms = [], [], []
    for s, t in sorted(shared):
        a = abs(pick(rng.choice(UNRELATED)))
        c = t * a / s
        atoms1.append((s, t, a))
        atoms.append((s, t, c))
        atoms2.append((s, t, t * c / s))
    own1, own2, own = denominators
    extra1 = [(pick(own1), 0, abs(pick(own1))), (0, 0, abs(pick(own1)))]
    extra2 = [(0, pick(own2), abs(pick(own2))), (0, 0, abs(pick(own2)))]
    # rho{0}^2 stays below 10^-62 and rho1{0} rho2{0} at least 10^-60: valid
    data = LevyHincinData(pick(own1), pick(own2),
                          DiscretePlanarMeasure.from_atoms(atoms1 + extra1),
                          DiscretePlanarMeasure.from_atoms(atoms2 + extra2),
                          DiscretePlanarMeasure.from_atoms(
                              atoms + [(0, 0, pick(own) / 10**31)], signed=True))
    return data, len(shared)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.permutations(UNRELATED), st.integers(3, 8),
       st.sampled_from(("rho1", "rho2", "rho")), st.integers(0, 2))
def test_unreduced_comparison_across_unrelated_scales(seed, dens, degree, name, index):
    # nu's rows sit over its own L_w L_s^m L_t^n and sigma over unrelated
    # denominators; consistent triples give the per-atom entries, and
    # 1/10^30 on one shared weight breaks a mixed entry's formulas and a
    # relation, which refuses the triple
    data, count = unrelated_scales_lh(seed, dens[:3])
    assert validate_lh(data).ok
    assert_refused_exactly_when_invalid(data, degree)
    mu = getattr(data, name)
    s, t, _ = [a for a in mu.atoms if a[0] and a[1]][index % count]
    moved = [(a, b, v + Fraction(1, 10**30)) if (a, b) == (s, t) else (a, b, v)
             for a, b, v in mu.atoms]
    broken = replace(data, **{name: DiscretePlanarMeasure.from_atoms(moved, mu.signed)})
    want, report = assert_refused_exactly_when_invalid(broken, degree)
    assert isinstance(want, str) and not report.ok


def test_rational_lh_to_cumulants_makes_no_fraction_arithmetic():
    # only the per-atom conversion to (sigma, nu) runs before the block; the
    # fresh nu clears its data inside it, sigma joins each numerator over
    # unrelated denominators, and each entry is one Fraction made from its
    # numerator and denominator
    data, _ = unrelated_scales_lh(5, (13, 10**30, 7))
    want = oracle_lh_to_cumulants(data, 8)
    fresh = replace(data)  # a new triple converts anew
    assert validate_lh(fresh).ok
    _, sigma, nu = fresh._levy
    assert "_cleared" not in vars(nu)
    with no_fraction_arithmetic():
        got = lh_to_cumulants(fresh, 8)
    assert got.entries == want and "_cleared" in vars(nu)
    assert {v.denominator for v in sigma} - {nu._cleared[2]}


def float_lh(rho1_weight, rho2_weight, rho_weight):
    atom = lambda w, signed=False: DiscretePlanarMeasure.from_atoms(
        [(1.0, 1.0, w)], signed=signed, kind=scalars.FLOAT)
    return LevyHincinData(0.0, 0.0, atom(rho1_weight), atom(rho2_weight),
                          atom(rho_weight, True), scalars.FLOAT)


def test_lh_to_cumulants_float_check_is_relative_to_the_entry():
    # weights near 1000 whose relations hold to 1e-12 relative pass, which an
    # absolute RELATION_TOL refused; 1e-6 relative fails
    lh_to_cumulants(float_lh(1000.0, 1000.0, 1000.0 * (1 + 1e-12)), 6)
    with pytest.raises(RealizabilityError, match="relation_rho1_ok=False, relation_rho2_ok=False"):
        lh_to_cumulants(float_lh(1000.0, 1000.0, 1000.0 * (1 + 1e-6)), 6)


def test_a_float_point_within_merge_tol_of_the_origin_is_the_origin():
    # rho1's atom at (1e-13, 0) belongs to the Gaussian part; read as a jump
    # it would put 10^26 on nu
    doc = {"kind": "float", "kappa10": 0.0, "kappa01": 0.0,
           "rho1": {"atoms": [[1e-13, 0.0, 1.0]]}, "rho2": {"atoms": [[0.0, 0.0, 2.0]]},
           "rho": {"atoms": [[0.0, 0.0, 0.5]]}}
    data = LevyHincinData.from_jsonable(doc)
    assert validate_lh(data).ok and data._levy[1] == (1.0, 0.5, 2.0)
    assert data._levy[2].atoms == ()
    gaussian = bifree_gaussian(1, 2, 0.5, 6, scalars.FLOAT)
    assert lh_to_cumulants(data, 6).entries == gaussian.entries


def test_round_trip_four_atom_triple_with_entries_in_the_hundreds():
    # kappa_{1,6} is about 184; the float triple extracted from the GNS model
    # once gave it by two formulas that differed by 1.2e-10, which an
    # absolute 1e-10 cross-check refused; now its one nu integrates it
    coords = [(-2, Fraction(-3, 2)), (-1, Fraction(-3, 2)), (-1, -1), (Fraction(1, 2), -2)]
    weights = [Fraction(5, 3), Fraction(5, 3), Fraction(2, 3), Fraction(5, 3)]
    atoms1 = [(s, t, a) for (s, t), a in zip(coords, weights)]
    atoms = [(s, t, t * a / s) for s, t, a in atoms1]
    atoms2 = [(s, t, t * c / s) for s, t, c in atoms]
    data = LevyHincinData(Fraction(-4, 3), Fraction(-4, 3),
                          DiscretePlanarMeasure.from_atoms(atoms1),
                          DiscretePlanarMeasure.from_atoms(atoms2),
                          DiscretePlanarMeasure.from_atoms(atoms, signed=True))
    cum = lh_to_cumulants(data, 8)
    assert cum.get(1, 6) == sum(c * t**5 for _, t, c in atoms)
    rebuilt = lh_to_cumulants(extract_levy_measures(gns_reconstruct(cum, 3)), 8)
    for key, value in cum.entries.items():
        assert rebuilt.entries[key] == pytest.approx(float(value), rel=1e-9, abs=1e-8)


def test_each_exact_gate_call_eliminates_once(rng, monkeypatch):
    # check_cpsd, check_cond_bounded and gns_reconstruct share one
    # elimination per table and window, whichever call comes first, for a
    # rational table and for its float copy alike; another window is another
    data = random_validated_lh(rng, 3)
    real = levy_hincin._eliminate
    windows = []
    monkeypatch.setattr(levy_hincin, "_eliminate",
                        lambda table, d: windows.append(d) or real(table, d))
    for order in ((check_cpsd, check_cond_bounded, gns_reconstruct),
                  (gns_reconstruct, check_cpsd, check_cond_bounded),
                  (check_cond_bounded, gns_reconstruct, check_cpsd)):
        for copy in (lambda table: table, float_copy):
            table = copy(lh_to_cumulants(data, 8))
            windows.clear()
            got = {gate: gate(table, 3) for gate in order}
            assert got[check_cpsd].rank == got[check_cond_bounded].rank_next == 3
            assert gns_reconstruct(table, 3) == got[gns_reconstruct]
            assert got[gns_reconstruct].dim == 3 and windows == [3]
            assert check_cpsd(table, 2).rank == 3 and windows == [3, 2]


def positive_only_on_g1():
    """kappa20 = kappa11 = kappa02 = kappa30 = 1, every other entry 0, to degree 4.

    G_1 = [[1, 1], [1, 1]] is positive with rank 1. In G_2 the zero pivot of
    s - t has a row that is nonzero only beyond G_1: s - t pairs with s^2
    through kappa30 - kappa21 = 1.
    """
    entries = {key: Fraction(0) for key in table_keys(4, 1)}
    entries.update({(2, 0): Fraction(1), (1, 1): Fraction(1), (0, 2): Fraction(1),
                    (3, 0): Fraction(1)})
    return CumulantTable(4, R, entries)


def test_the_leading_stop_reads_only_the_row_within_g_d():
    # the elimination of G_2 sets its full stop at the pivot of s - t and
    # goes on to the end of G_1, as G_1's own pass would, in either call order
    cpsd = levy_hincin.CpsdReport(True, 1, 1)
    flatness = levy_hincin.FlatnessReport(False, None, None, 1)
    for copy in (lambda table: table, float_copy):
        table = copy(positive_only_on_g1())
        assert (check_cpsd(table, 1), check_cond_bounded(table, 1)) == (cpsd, flatness)
        table = copy(positive_only_on_g1())
        assert (check_cond_bounded(table, 1), check_cpsd(table, 1)) == (flatness, cpsd)


def test_gns_refuses_positivity_on_degree_2d_plus_2_with_the_flatness_report():
    # check_cpsd passes the window, so gns_reconstruct does not say "not
    # conditionally positive"; it names the degree that refused positivity
    for copy in (lambda table: table, float_copy):
        with pytest.raises(RealizabilityError) as refusal:
            gns_reconstruct(copy(positive_only_on_g1()), 1)
        assert str(refusal.value) == (
            "nothing certified at this window: positivity refused on degree 4: "
            "FlatnessReport(certified=False, rank=None, rank_next=None, degree_window=1)")


def test_cpsd_gaussian_verdicts():
    good = bifree_gaussian(1, 1, Fraction(1, 2), 8)
    assert check_cpsd(good, 3) == levy_hincin.CpsdReport(True, 3, 2)

    bad_entries = dict(bifree_gaussian(1, 1, 0, 8).entries)
    bad_entries[(1, 1)] = Fraction(2)
    bad = CumulantTable(8, R, bad_entries)
    # its second pivot, 1 * 1 - 2 * 2, is negative: no rank
    for d in (1, 3):
        assert check_cpsd(bad, d) == levy_hincin.CpsdReport(False, d, None)
    for table in (good, bad):
        for d in (1, 3):
            assert check_cpsd(float_copy(table), d) == check_cpsd(table, d)


def test_cpsd_zero_table():
    zero = CumulantTable(8, R, {(m, t - m): 0 for t in range(1, 9) for m in range(t + 1)})
    assert check_cpsd(zero, 3).ok


def test_cpsd_degenerate_face_guard():
    # vanishing (2,0) with a surviving left entry beyond the window
    entries = {(m, t - m): Fraction(0) for t in range(1, 9) for m in range(t + 1)}
    entries[(0, 2)] = Fraction(1)
    entries[(4, 4)] = Fraction(1)
    table = CumulantTable(8, R, entries)
    assert not check_cpsd(table, 1).ok


def test_float_faces_compare_exactly():
    # kappa20 = 10^-12 is small, not 0: the float copy passes as the rational
    # table does, where an absolute ZERO_VARIANCE_TOL of 1e-12 read its left
    # face as degenerate and refused it for kappa11 = 1
    table = bifree_poisson(10**12, Fraction(1, 10**12), 1, 4)
    assert check_cpsd(float_copy(table), 1) == check_cpsd(table, 1) \
        == levy_hincin.CpsdReport(True, 1, 1)


def test_cpsd_needs_degree():
    with pytest.raises(DegreeError):
        check_cpsd(bifree_gaussian(1, 1, 0, 4), 3)


def test_empty_window_certifies_nothing():
    # kappa11 = 5 against kappa20 = kappa02 = 1 breaks Cauchy-Schwarz; a
    # window of d = 0 has no monomials and must not pass it
    entries = dict(bifree_gaussian(1, 1, 0, 3).entries)
    entries[(1, 1)] = Fraction(5)
    table = CumulantTable(3, R, entries)
    for gate in (check_cpsd, check_cond_bounded, gns_reconstruct):
        for d in (0, -1):
            with pytest.raises(DegreeError, match="window"):
                gate(table, d)
    assert not check_cpsd(table, 1).ok


def flat(rank, d=3):
    return levy_hincin.FlatnessReport(True, rank, rank, d)


def test_bounded_poisson_unit_witness():
    # one atom at (1, 1): rank 1, and the model's shifts are that unit atom
    table = bifree_poisson(1, 1, 1, 8)
    assert check_cond_bounded(table, 3) == flat(1)
    assert check_cond_bounded(float_copy(table), 3) == flat(1)
    model = gns_reconstruct(float_copy(table), 3)
    assert model.t1 == model.t2 == ((1.0,),)


def test_bounded_gaussian_nilpotent_shifts():
    table = bifree_gaussian(2, 1, Fraction(1, 2), 8)
    assert check_cond_bounded(table, 3) == flat(2)
    assert check_cond_bounded(float_copy(table), 3) == flat(2)
    model = gns_reconstruct(float_copy(table), 3)  # the shifts vanish on the quotient
    assert all(x == 0.0 for t in (model.t1, model.t2) for row in t for x in row)


def test_bounded_factorial_growth_fails():
    # (m+n)! integrates x^(m+n) e^-x on the diagonal s = t: positive, and
    # each degree adds a rank, so no window is flat and none certifies it
    exact = check_cond_bounded(factorial_table(), 3)
    assert exact == levy_hincin.FlatnessReport(False, 3, 4, 3)
    assert check_cond_bounded(float_copy(factorial_table()), 3) == exact
    assert check_cpsd(factorial_table(), 3).ok


def test_bounded_needs_degree():
    with pytest.raises(DegreeError):
        check_cond_bounded(bifree_poisson(1, 1, 1, 6), 3)


def test_constructor_tables_pass_gates():
    jump = DiscretePlanarMeasure.from_atoms(
        [(1, 1, Fraction(1, 2)), (-1, 2, Fraction(1, 2))])
    tables = [bifree_gaussian(1, 2, 1, 8),
              bifree_poisson(Fraction(3, 2), 1, -1, 8),
              compound_bifree_poisson(2, jump, 8)]
    for table in tables:
        assert check_cpsd(table, 3).ok
        assert check_cond_bounded(table, 3).ok


def test_model_tables_pass_gates(rng):
    # infinitely divisible realizations satisfy both gates
    for _ in range(5):
        model = random_commuting_model(rng, rng.randint(1, 4))
        cum = model_cumulants(model, 8)
        assert check_cpsd(cum, 3).ok
        assert check_cond_bounded(cum, 3).ok


def test_validated_triples_pass_cpsd(rng):
    for _ in range(5):
        data = random_validated_lh(rng, 3)
        assert validate_lh(data).ok
        cum = lh_to_cumulants(data, 8)
        assert check_cpsd(cum, 3).ok


def test_gns_gaussian_models():
    model = gns_reconstruct(bifree_gaussian(1, 1, Fraction(1, 2), 8), 3)
    assert model.dim == 2
    assert max(abs(x) for row in model.t1 for x in row) < 1e-9
    assert max(abs(x) for row in model.t2 for x in row) < 1e-9
    assert sum(x * x for x in model.f) == pytest.approx(1.0)
    assert sum(a * b for a, b in zip(model.f, model.g)) == pytest.approx(0.5)

    boundary = gns_reconstruct(bifree_gaussian(1, 4, 2, 8), 3)
    assert boundary.dim == 1


def test_gns_poisson_rank_one():
    lam, a, b = Fraction(2), Fraction(1, 2), Fraction(-1)
    table = lh_to_cumulants(poisson_lh(lam, a, b), 8)
    model = gns_reconstruct(table, 3)
    assert model.dim == 1
    assert model.t1[0][0] == pytest.approx(float(a))
    assert model.t2[0][0] == pytest.approx(float(b))
    rebuilt = model_cumulants(model, 8)
    for key, value in table.entries.items():
        assert rebuilt.entries[key] == pytest.approx(float(value), abs=1e-10)


def test_gns_point_mass_is_scalar_pair():
    empty = DiscretePlanarMeasure.from_atoms([])
    data = LevyHincinData(Fraction(2), Fraction(-1), empty, empty,
                          DiscretePlanarMeasure.from_atoms([], signed=True))
    model = gns_reconstruct(lh_to_cumulants(data, 8), 3)
    assert model.dim == 0
    assert model.lambda1 == 2.0 and model.lambda2 == -1.0
    assert all(v == 0 for v in model_cumulants(model, 4).entries.values()
               if v not in (2.0, -1.0))


def test_gns_rejects_bad_tables():
    bad_entries = dict(bifree_gaussian(1, 1, 0, 8).entries)
    bad_entries[(1, 1)] = Fraction(2)
    with pytest.raises(RealizabilityError):
        gns_reconstruct(CumulantTable(8, R, bad_entries), 3)
    with pytest.raises(RealizabilityError):
        gns_reconstruct(factorial_table(), 3)


def test_gns_raises_in_gate_order():
    # positivity is decided on degree 2d before degree 2d + 2 is required
    bad_entries = dict(bifree_gaussian(1, 1, 0, 6).entries)
    bad_entries[(1, 1)] = Fraction(2)
    with pytest.raises(RealizabilityError, match="not conditionally positive"):
        gns_reconstruct(CumulantTable(6, R, bad_entries), 3)
    with pytest.raises(DegreeError, match="need table degree >= 8, have 6"):
        gns_reconstruct(bifree_poisson(1, 1, 1, 6), 3)
    with pytest.raises(DegreeError, match="need table degree >= 6, have 4"):
        gns_reconstruct(bifree_poisson(1, 1, 1, 4), 3)


def test_extract_gaussian_concentrates_at_origin():
    model = FockModel.from_arrays([1, 0], [Fraction(1, 2), Fraction(1, 4)],
                                  [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    data = extract_levy_measures(model)
    assert [(s, t) for s, t, _ in data.rho1.atoms] == [(0.0, 0.0)]
    assert data.rho1.atoms[0][2] == pytest.approx(1.0)
    assert data.rho.atoms == ((0.0, 0.0, pytest.approx(0.5)),)


def test_extract_poisson_atoms():
    lam, a, b = 4.0, 0.5, 1.5
    root = math.sqrt(lam)
    model = FockModel.from_arrays([root * a], [root * b], [[a]], [[b]],
                                  lam * a, lam * b, kind=scalars.FLOAT)
    data = extract_levy_measures(model)
    assert data.rho1.atoms == ((a, b, pytest.approx(lam * a * a)),)
    assert data.rho2.atoms == ((a, b, pytest.approx(lam * b * b)),)
    assert data.rho.atoms == ((a, b, pytest.approx(lam * a * b)),)
    assert validate_lh(data).ok


def test_extract_zero_vectors_empty_measures():
    model = FockModel.from_arrays([0, 0], [0, 0], [[1, 0], [0, 2]], [[1, 0], [0, 2]],
                                  Fraction(5), Fraction(1))
    data = extract_levy_measures(model)
    assert data.rho1.atoms == () and data.rho2.atoms == () and data.rho.atoms == ()
    assert data.kappa10 == 5.0 and data.kappa01 == 1.0


def test_extract_splits_a_mixed_model_into_its_gaussian_part_and_jumps():
    # a Gaussian part (1, 1/2, 2) and two jump atoms of weight 3/4: the two
    # eigenpairs at the origin read as exactly (0.0, 0.0), where the Jacobi
    # sweep leaves them near 3e-17, and add up to sigma
    jump = DiscretePlanarMeasure.from_atoms([(1, Fraction(1, 2), Fraction(1, 2)),
                                             (Fraction(-1, 2), 2, Fraction(1, 2))])
    table = bifree_convolve(bifree_gaussian(1, 2, Fraction(1, 2), 8),
                            compound_bifree_poisson(Fraction(3, 2), jump, 8))
    out = extract_levy_measures(gns_reconstruct(table, 3))
    for mu, weight in ((out.rho1, 1.0), (out.rho2, 2.0), (out.rho, 0.5)):
        assert len(mu.atoms) == 3
        assert [w for s, t, w in mu.atoms if (s, t) == (0.0, 0.0)] == [pytest.approx(weight)]
    _, sigma, nu = out._levy
    assert sigma == pytest.approx((1.0, 0.5, 2.0))
    assert [x for atom in nu.atoms for x in atom] == pytest.approx([-0.5, 2.0, 0.75,
                                                                    1.0, 0.5, 0.75])
    rebuilt = lh_to_cumulants(out, 8)
    assert all(abs(rebuilt.get(*key) - float(value)) <= 1e-9
               for key, value in table.entries.items())
    # read back from its document, the triple converts to the same form
    again = LevyHincinData.from_jsonable(out.to_jsonable())
    assert validate_lh(again).ok and again._levy[1] == pytest.approx(sigma)
    assert [x for atom in again._levy[2].atoms for x in atom] == pytest.approx(
        [x for atom in nu.atoms for x in atom])


def test_extract_requires_commutation():
    bad = FockModel.from_arrays([1, 0], [1, 0], [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(CommutationError):
        extract_levy_measures(bad)


def test_round_trip_cumulants(rng):
    for _ in range(6):
        data = random_validated_lh(rng, rng.randint(1, 4))
        cum = lh_to_cumulants(data, 8)
        model = gns_reconstruct(cum, 3)
        rebuilt = lh_to_cumulants(extract_levy_measures(model), 8)
        for total in range(1, 7):
            for m in range(total + 1):
                assert rebuilt.get(m, total - m) == pytest.approx(
                    float(cum.get(m, total - m)), abs=1e-8)


def assert_same_atoms(source, found, tol=1e-8):
    assert len(source.atoms) == len(found.atoms)
    for s, t, w in source.atoms:
        s, t, w = float(s), float(t), float(w)
        nearest = min(found.atoms, key=lambda a: abs(a[0] - s) + abs(a[1] - t))
        assert nearest[0] == pytest.approx(s, abs=tol)
        assert nearest[1] == pytest.approx(t, abs=tol)
        assert nearest[2] == pytest.approx(w, abs=tol)


def test_round_trip_measures_atom_by_atom(rng):
    for _ in range(6):
        data = random_validated_lh(rng, rng.randint(2, 4))
        model = gns_reconstruct(lh_to_cumulants(data, 8), 3)
        out = extract_levy_measures(model)
        for source, found in ((data.rho1, out.rho1), (data.rho2, out.rho2),
                              (data.rho, out.rho)):
            assert_same_atoms(source, found)


def test_r_transform_from_lh_gaussian():
    series = lh_to_cumulants(gaussian_lh(Fraction(1), Fraction(2), Fraction(1)), 5)
    assert series.get(2, 0) == 1 and series.get(0, 2) == 2 and series.get(1, 1) == 1
    assert all(series.get(m, t - m) == 0 for t in range(3, 6) for m in range(t + 1))


def test_r_transform_from_lh_poisson():
    lam, a, b = Fraction(2), Fraction(1, 2), Fraction(3)
    series = lh_to_cumulants(poisson_lh(lam, a, b), 6)
    for total in range(1, 7):
        for m in range(total + 1):
            assert series.get(m, total - m) == lam * a**m * b**(total - m)


def test_r_transform_from_lh_compound(rng):
    # compound data: rho = lam * s * t * nu and friends; coefficients are
    # lam times the jump moments
    lam = Fraction(3, 2)
    nu = product_measure(random_line_measure(rng, 2), random_line_measure(rng, 2, SECOND))
    while any(s == 0 or t == 0 for s, t, _ in nu.atoms):
        nu = product_measure(random_line_measure(rng, 2), random_line_measure(rng, 2, SECOND))
    rho1 = DiscretePlanarMeasure.from_atoms([(s, t, lam * s * s * w) for s, t, w in nu.atoms])
    rho2 = DiscretePlanarMeasure.from_atoms([(s, t, lam * t * t * w) for s, t, w in nu.atoms])
    rho = DiscretePlanarMeasure.from_atoms([(s, t, lam * s * t * w) for s, t, w in nu.atoms],
                                           signed=True)
    data = LevyHincinData(lam * nu.moment(1, 0), lam * nu.moment(0, 1), rho1, rho2, rho)
    assert validate_lh(data).ok
    series = lh_to_cumulants(data, 6)
    for total in range(1, 7):
        for m in range(total + 1):
            assert series.get(m, total - m) == lam * nu.moment(m, total - m)
    # the series is the compound Poisson's cumulant table
    assert series.entries == compound_bifree_poisson(lam, nu, 6).entries


def test_r_transform_from_lh_rejects_invalid():
    with pytest.raises(RealizabilityError, match="^triple fails validation"):
        lh_to_cumulants(gaussian_lh(Fraction(1), Fraction(1), Fraction(2)), 4)


def test_gates_report_window():
    cum = bifree_poisson(1, 1, 1, 8)
    assert check_cpsd(cum, 2).degree_window == 2
    assert check_cond_bounded(cum, 3).degree_window == 3


def cauchy_schwarz_breaker(degree=8, excess=Fraction(1, 10**10)):
    """kappa20 = kappa02 = 1, kappa11 = 1 + excess and every other entry 0.

    kappa11^2 exceeds kappa20 kappa02 by about 2 excess, so the second
    Schur pivot is about -2 excess: by default -2e-10, inside a float
    table's PIVOT_TOL.
    """
    entries = {key: Fraction(0) for key in table_keys(degree, 1)}
    entries[(2, 0)] = entries[(0, 2)] = Fraction(1)
    entries[(1, 1)] = 1 + excess
    return CumulantTable(degree, R, entries)


def test_exact_gates_refuse_the_cauchy_schwarz_breaker():
    table = cauchy_schwarz_breaker()
    # the float gates, within PIVOT_TOL, let it through
    assert check_cpsd(float_copy(table), 3).ok and check_cond_bounded(float_copy(table), 3).ok
    assert check_cpsd(table, 3) == levy_hincin.CpsdReport(False, 3, None)
    assert check_cond_bounded(table, 3) == levy_hincin.FlatnessReport(False, None, None, 3)
    with pytest.raises(RealizabilityError, match="not conditionally positive"):
        gns_reconstruct(table, 3)


# twelve distinct points off the origin, in general position for degree 4
TWELVE = [(1, 1), (2, -1), (-1, 2), (3, 1), (1, -3), (-2, -1), (1, 2), (-1, -1), (2, 3),
          (-3, 1), (1, 0), (0, 2)]


def twelve_atom_poisson(degree):
    jump = DiscretePlanarMeasure.from_atoms(
        [(Fraction(s), Fraction(t, 2), Fraction(1, 12)) for s, t in TWELVE])
    return jump, compound_bifree_poisson(Fraction(3, 2), jump, degree)


def test_twelve_atoms_are_certified_at_the_first_window_that_holds_them():
    # 9 monomials of degree <= 3 cannot span the 12 atoms' quotient: the
    # window d = 3 certifies nothing, and d = 4 (14 monomials) is flat
    _, table = twelve_atom_poisson(8)
    assert check_cpsd(table, 3) == levy_hincin.CpsdReport(True, 3, 9)
    assert check_cond_bounded(table, 3) == levy_hincin.FlatnessReport(False, 9, 12, 3)
    with pytest.raises(RealizabilityError, match="nothing certified at this window"):
        gns_reconstruct(table, 3)
    jump, table = twelve_atom_poisson(10)
    assert check_cond_bounded(table, 4) == levy_hincin.FlatnessReport(True, 12, 12, 4)
    model = gns_reconstruct(table, 4)
    assert model.dim == 12
    out = extract_levy_measures(model)
    lam = Fraction(3, 2)
    for source, found in ((lambda s, t: s * s, out.rho1), (lambda s, t: t * t, out.rho2),
                          (lambda s, t: s * t, out.rho)):
        want = DiscretePlanarMeasure.from_atoms(
            [(s, t, lam * w * source(s, t)) for s, t, w in jump.atoms], signed=True)
        assert_same_atoms(want, found)


def dilated(table, c):
    """Entry (m, n) times c^(m+n): the table of the measures dilated by c."""
    return CumulantTable(table.degree, R, {(m, n): v * c ** (m + n)
                                           for (m, n), v in table.entries.items()})


def test_declined_clearing_gives_the_cleared_twins_verdicts(rng):
    # dilating by 1 / (10^100 + 7) puts denominators near 10^(100 (m+n)) on
    # the entries, so L^8 would need more than 8 * 664 bits and clear_graded
    # declines; the elimination then runs on Fractions and must divide them
    # exactly
    c = Fraction(1, 10**100 + 7)
    twins = [lh_to_cumulants(random_validated_lh(rng, 3), 8), cauchy_schwarz_breaker(),
             factorial_table(), twelve_atom_poisson(8)[1]]
    for twin in twins:
        table = dilated(twin, c)
        assert scalars.clear_graded(table.entries) == (1, table.entries)
        assert check_cpsd(table, 3) == check_cpsd(twin, 3)
        assert check_cond_bounded(table, 3) == check_cond_bounded(twin, 3)
    # the model of the dilated table is the twin's, dilated
    model, twin = gns_reconstruct(dilated(twins[0], c), 3), gns_reconstruct(twins[0], 3)
    scaled = [x * float(c) for x in twin.f + twin.g + sum(twin.t1 + twin.t2, ())]
    assert list(model.f + model.g + sum(model.t1 + model.t2, ())) == pytest.approx(
        scaled, rel=1e-12)


def test_exact_model_reproduces_the_table(rng):
    # the whitened model's cumulants are the table's to float rounding
    for _ in range(6):
        table = lh_to_cumulants(random_validated_lh(rng, rng.randint(1, 4)), 8)
        rebuilt = model_cumulants(gns_reconstruct(table, 3), 8)
        for key, value in table.entries.items():
            assert rebuilt.entries[key] == pytest.approx(float(value), rel=1e-12, abs=1e-12)


def test_float_gates_compare_each_pivot_with_its_own_diagonal_entry():
    # a Poisson dilated by 10^50 has Gram entries from about 10^100 to 10^300;
    # each pivot is judged against its own diagonal entry, so the float copy
    # gets the rational table's reports at every window its degree allows
    poisson = lh_to_cumulants(poisson_lh(Fraction(3, 2), Fraction(1, 2), Fraction(-2, 3)), 6)
    table = dilated(poisson, 10**50)
    copy = float_copy(table)
    for d in (1, 2):
        assert check_cpsd(copy, d) == check_cpsd(table, d) == levy_hincin.CpsdReport(True, d, 1)
        assert check_cond_bounded(copy, d) == check_cond_bounded(table, d) == flat(1, d)


def test_scaled_float_breakers_are_refused():
    # kappa11 = 1 + 10^-8 puts the second Schur pivot at -2e-8, twenty times
    # PIVOT_TOL; dilated by 10^80 and 10^100 the variance entries read 10^160
    # and 10^200, where a float elimination would overflow, and the exact read
    # refuses the float copy at every scale
    for c in (1, 10**80, 10**100):
        copy = float_copy(dilated(cauchy_schwarz_breaker(excess=Fraction(1, 10**8)), c))
        assert check_cpsd(copy, 3) == levy_hincin.CpsdReport(False, 3, None)
        assert check_cond_bounded(copy, 3) == levy_hincin.FlatnessReport(False, None, None, 3)
        with pytest.raises(RealizabilityError, match="not conditionally positive"):
            gns_reconstruct(copy, 3)
        # at 1 + 10^-10 the pivot is within PIVOT_TOL at every scale too
        copy = float_copy(dilated(cauchy_schwarz_breaker(), c))
        assert check_cpsd(copy, 3).ok and check_cond_bounded(copy, 3).ok


def test_a_snapped_pivot_with_a_row_above_tolerance_refuses_positivity():
    # the second Schur pivot, kappa02 - kappa11^2 / kappa20 = 10^-10, is within
    # PIVOT_TOL and reads as 0, but its row keeps kappa21 = 10^-8, ten times
    # PIVOT_TOL: a zero pivot with a nonzero row is not positive. The rational
    # twin keeps the pivot and is positive definite on all five monomials.
    entries = {key: Fraction(0) for key in table_keys(4, 1)}
    entries.update({(2, 0): Fraction(1), (1, 1): Fraction(1), (0, 2): 1 + Fraction(1, 10**10),
                    (2, 1): Fraction(1, 10**8), (4, 0): Fraction(2), (2, 2): Fraction(1),
                    (0, 4): Fraction(2)})
    table = CumulantTable(4, R, entries)
    assert check_cpsd(table, 2) == levy_hincin.CpsdReport(True, 2, 5)
    assert check_cpsd(float_copy(table), 2) == levy_hincin.CpsdReport(False, 2, None)


def model_entries(model):
    return [*model.f, *model.g, *(x for t in (model.t1, model.t2) for row in t for x in row),
            model.lambda1, model.lambda2]


def test_float_copy_models_match_the_rational_models():
    # the float copy keeps the rational table's pivots, so its model whitens
    # the same monomials; worst relative gap seen 1.3e-12
    tables = [(lh_to_cumulants(random_validated_lh(random.Random(seed), 1 + seed % 4), 8), 3)
              for seed in range(24)]
    tables.append((twelve_atom_poisson(10)[1], 4))
    for table, d in tables:
        want = gns_reconstruct(table, d)
        got = gns_reconstruct(float_copy(table), d)
        assert got.dim == want.dim
        assert model_entries(got) == pytest.approx(model_entries(want), rel=1e-11, abs=1e-11)


def test_float_models_follow_a_dilation():
    # dilating the measures by c multiplies f, g, T1, T2 and lambda by c; the
    # float copy's model follows from 10^-30 to 10^30 (worst gap seen 4.9e-14
    # of the largest entry), and T1 and T2 stay symmetric at entries near 10^30
    for seed in range(12):
        table = lh_to_cumulants(random_validated_lh(random.Random(seed), 1 + seed % 4), 8)
        want = model_entries(gns_reconstruct(table, 3))
        for c in (Fraction(1, 10**30), 10**8, 10**30):
            got = model_entries(gns_reconstruct(float_copy(dilated(table, c)), 3))
            scale = float(c) * max(map(abs, want))
            assert max(abs(x - float(c) * y) for x, y in zip(got, want)) <= 1e-11 * scale


def test_dilated_float_models_commute_and_extract_the_dilated_atoms():
    # dilating the measures by c scales the model's residuals with its
    # entries; at c = 10^4 they read 6.0e-8 and 4.3e-7, which an absolute
    # COMMUTATION_TOL refused. Worst gap seen 6.1e-15 of the largest atom
    # entry. At c = 10^-8 rho's weights st nu are about 10^-16; the three
    # measures derive from one nu, so each keeps every atom, and coordinates
    # near 10^-8 stay clear of DIAG_RESIDUAL_TOL max|T_i|, about 10^-16.
    data = random_validated_lh(random.Random(7), 4)
    table = lh_to_cumulants(data, 8)
    for c in (Fraction(1, 10**8), Fraction(1, 10**4), 1, 10**4, 10**8):
        out = extract_levy_measures(gns_reconstruct(float_copy(dilated(table, c)), 3))
        pairs = [(data.rho1, out.rho1), (data.rho2, out.rho2), (data.rho, out.rho)]
        for source, found in pairs:
            want = [(float(s * c), float(t * c), float(w * c * c)) for s, t, w in source.atoms]
            scale = max(abs(x) for atom in want for x in atom)
            assert len(found.atoms) == len(want)
            assert all(abs(x - y) <= 1e-12 * scale
                       for a, b in zip(found.atoms, want) for x, y in zip(a, b))


def test_jacobi_extract_matches_the_source_and_numpy():
    # seeded commuting float models of dims 1-12: the Jacobi extract against
    # the source atoms and against the numpy.linalg.eigh extract, atom by atom
    # in order; worst gaps seen: 1.3e-12 to the source, 1.4e-12 to numpy,
    # both at dim 10 on weights up to about 10^2
    worst_source = worst_numpy = 0.0
    for dim in range(1, 13):
        for seed in range(4):
            model, source = random_float_commuting_model(random.Random(100 * dim + seed), dim)
            found = extract_levy_measures(model)
            oracle = numpy_extract_levy_measures(model)
            for atoms, mine, theirs in zip(source, (found.rho1, found.rho2, found.rho),
                                           (oracle.rho1, oracle.rho2, oracle.rho)):
                want = DiscretePlanarMeasure.from_atoms(atoms, True, scalars.FLOAT).atoms
                assert len(mine.atoms) == len(theirs.atoms) == len(want) == dim
                for a, b, w in zip(mine.atoms, theirs.atoms, want):
                    worst_source = max(worst_source, *(abs(x - y) for x, y in zip(a, w)))
                    worst_numpy = max(worst_numpy, *(abs(x - y) for x, y in zip(a, b)))
    assert worst_source <= 1e-8 and worst_numpy <= 1e-8


def test_measures_in_a_triple_read_in_the_triple_kind():
    doc = {"kappa10": "2", "kappa01": "1", "kind": "rational",
           "rho1": {"atoms": [["1", "1/2", "2"]], "kind": "float"},
           "rho2": {"atoms": [["1", "1/2", "1/2"]], "kind": "float"},
           "rho": {"atoms": [["1", "1/2", "1"]], "kind": "float"}}
    data = LevyHincinData.from_jsonable(doc, scalars.FLOAT)
    assert data.kind == R
    assert {mu.kind for mu in (data.rho1, data.rho2, data.rho)} == {R}
    assert data.rho.signed and data.rho1.atoms == ((1, Fraction(1, 2), 2),)


def float_inverse_outputs():
    """float.hex of every float the inverse direction gives on float copies of 12 seeded tables.

    Returns (model lines, extract lines). Per table, the model lines hold the
    check_cpsd and check_cond_bounded reports and the gns_reconstruct model,
    and the extract lines the extracted triple and its float lh_to_cumulants
    table.
    """
    model_lines, extract_lines = [], []
    for seed in range(12):
        rng = random.Random(seed)
        data = random_validated_lh(rng, 1 + seed % 4)
        table = float_copy(lh_to_cumulants(data, 8))
        cpsd, bounded = check_cpsd(table, 3), check_cond_bounded(table, 3)
        model = gns_reconstruct(table, 3)
        recovered = extract_levy_measures(model)
        rebuilt = lh_to_cumulants(recovered, 8)
        model_lines.append(f"{cpsd} {bounded} {model.dim}")
        for lines, values in (
                (model_lines, model.f), (model_lines, model.g),
                (model_lines, [x for row in model.t1 for x in row]),
                (model_lines, [x for row in model.t2 for x in row]),
                (model_lines, [model.lambda1, model.lambda2]),
                (extract_lines, [recovered.kappa10, recovered.kappa01]),
                (extract_lines, [x for mu in (recovered.rho1, recovered.rho2, recovered.rho)
                                 for atom in mu.atoms for x in atom]),
                (extract_lines, rebuilt.entries.values())):
            lines.append(" ".join(float.hex(v) for v in values))
    return model_lines, extract_lines


def sha256_of(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# SHA-256 of the model lines, recorded once the float copies' gates took the
# rational path and test_float_copy_models_match_the_rational_models passed
FLOAT_MODEL_SHA256 = "05ebb131a6dbe2b920ea01563041aa1bba48e5cd762f92d90040ebf1c2dc7f11"
# SHA-256 of the extract lines, which read those models, re-recorded when the
# extract came to build each triple from its (sigma, nu); the Jacobi extract
# passed test_jacobi_extract_matches_the_source_and_numpy, and the dilation
# and twelve-atom tests passed
FLOAT_EXTRACT_SHA256 = "bbb6f533bdaffae62c2354ec0be134bd42880d0126a0cb5b2c4a663ba131d9d6"


def test_float_inverse_outputs_are_unchanged_bit_for_bit():
    model_lines, extract_lines = float_inverse_outputs()
    assert sha256_of(model_lines) == FLOAT_MODEL_SHA256
    assert sha256_of(extract_lines) == FLOAT_EXTRACT_SHA256


def test_extracted_triples_read_back_convert_to_the_same_cumulants():
    # an extracted triple carries its (sigma, nu); read back from its document
    # it is validated and converted afresh, to the same table bit for bit on
    # these seeds
    for seed in range(12):
        data = random_validated_lh(random.Random(seed), 1 + seed % 4)
        out = extract_levy_measures(gns_reconstruct(float_copy(lh_to_cumulants(data, 8)), 3))
        again = LevyHincinData.from_jsonable(out.to_jsonable())
        assert validate_lh(again).ok and validate_lh(again).max_relation_residual < 1e-15
        assert lh_to_cumulants(again, 8).entries == lh_to_cumulants(out, 8).entries

