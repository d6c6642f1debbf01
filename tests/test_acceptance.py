"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are pinned in the assertions; rational-mode
checks are exact equality.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from bifree import scalars
from bifree.cli import run as cli_run
from bifree.convolution import bifree_convolve, free_convolve_marginal, semigroup_scale
from bifree.cumulants import (CumulantTable, cumulants_to_moments, mobius_cumulant,
                              moments_to_cumulants, verify_voiculescu_identity)
from bifree.fock import (levy_marginal_model, model_cumulants,
                         moment_table_from_model)
from bifree.levy_hincin import (check_cond_bounded, check_cpsd,
                                extract_levy_measures, gns_reconstruct,
                                lh_to_cumulants)
from bifree.limits import (bifree_gaussian, bifree_poisson,
                           compound_bifree_poisson, poisson_family,
                           row_sum_moments, triangular_limit_estimate)
from bifree.measures import DiscretePlanarMeasure, moment_table
from bifree.partitions import (catalan, enumerate_nc, mobius_nc, mobius_top,
                               one_partition, zero_partition)

from conftest import (random_commuting_model, random_moment_table,
                      random_planar_measure, random_validated_lh)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} {self.label}: {elapsed:.2f}s (budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


def test_criterion_1_partition_lattice():
    with Budget("criterion 1 (partition lattice)", 10):
        for n in range(1, 10):
            assert len(enumerate_nc(n)) == catalan(n)
        for n in range(2, 8):
            assert sum(mobius_top(p) for p in enumerate_nc(n)) == 0
        for n in range(1, 8):
            expected = 1 if n == 1 else (-1) ** (n - 1) * catalan(n - 1)
            assert mobius_nc(zero_partition(n), one_partition(n)) == expected


def test_criterion_2_transforms_and_chi():
    with Budget("criterion 2 (round trip and literal Mobius sum)", 20):
        rng = random.Random(2)
        for _ in range(50):
            table = random_moment_table(rng, rng.randint(2, 6))
            assert cumulants_to_moments(moments_to_cumulants(table)).entries \
                == table.entries
        for _ in range(10):
            table = moment_table(random_planar_measure(rng, rng.randint(2, 4)), 5)
            kappa = moments_to_cumulants(table)
            for m, n in kappa.entries:
                assert mobius_cumulant(table, m, n) == kappa.get(m, n)


def test_criterion_3_voiculescu_identity():
    with Budget("criterion 3 (two-variable transform identity)", 30):
        rng = random.Random(3)
        for _ in range(10):
            table = moment_table(random_planar_measure(rng, 3), 7)
            assert verify_voiculescu_identity(table) == 0
        for _ in range(10):
            model = random_commuting_model(rng, rng.randint(1, 3))
            table = moment_table_from_model(model, 7)
            assert verify_voiculescu_identity(table) == 0


def test_criterion_4_fock_cumulant_consistency():
    with Budget("criterion 4 (operator model cumulants)", 20):
        rng = random.Random(4)
        for _ in range(25):
            model = random_commuting_model(rng, rng.randint(1, 4))
            inverted = moments_to_cumulants(moment_table_from_model(model, 6))
            assert inverted.entries == model_cumulants(model, 6).entries


def test_criterion_5_levy_hincin_round_trip():
    from test_levy_hincin import assert_same_atoms
    with Budget("criterion 5 (Levy-Hincin round trip)", 30):
        rng = random.Random(5)
        for _ in range(20):
            data = random_validated_lh(rng, rng.randint(1, 4))
            table = lh_to_cumulants(data, 8)
            model = gns_reconstruct(table, 3)
            recovered = extract_levy_measures(model)
            rebuilt = lh_to_cumulants(recovered, 8)
            for total in range(1, 7):
                for m in range(total + 1):
                    assert abs(float(rebuilt.get(m, total - m))
                               - float(table.get(m, total - m))) <= 1e-8
            assert_same_atoms(data.rho1, recovered.rho1, tol=1e-8)
            assert_same_atoms(data.rho2, recovered.rho2, tol=1e-8)
            assert_same_atoms(data.rho, recovered.rho, tol=1e-8)


def test_criterion_6_infinite_divisibility_gate():
    with Budget("criterion 6 (divisibility gate)", 5):
        jump = DiscretePlanarMeasure.from_atoms(
            [(1, -1, Fraction(1, 2)), (Fraction(1, 2), 2, Fraction(1, 2))])
        for table in (bifree_gaussian(1, 2, 1, 8),
                      bifree_poisson(Fraction(3, 2), 1, Fraction(-1, 2), 8),
                      compound_bifree_poisson(2, jump, 8)):
            assert check_cpsd(table, 3).ok
            assert check_cond_bounded(table, 3).ok
        bad_entries = dict(bifree_gaussian(1, 1, 0, 8).entries)
        bad_entries[(1, 1)] = Fraction(2)  # covariance beyond Cauchy-Schwarz
        assert not check_cpsd(CumulantTable(8, scalars.RATIONAL, bad_entries), 3).ok


def test_criterion_7_limit_theorem():
    with Budget("criterion 7 (triangular limit theorem)", 10):
        lam, alpha, beta = Fraction(3, 2), Fraction(1), Fraction(1, 2)
        family = poisson_family(lam, alpha, beta)
        for total in range(1, 6):
            for m in range(total + 1):
                values = triangular_limit_estimate(family, m, total - m,
                                                   [10, 100, 1000])
                assert all(v == lam * alpha**m * beta**(total - m) for v in values)
        limit = cumulants_to_moments(bifree_poisson(lam, alpha, beta, 5))
        errors = []
        for n_rows in (10, 100, 1000):
            approx = row_sum_moments(family, n_rows, 5)
            errors.append(max(abs(float(approx.get(m, n) - limit.get(m, n)))
                              for (m, n) in limit.entries))
        for early, late in zip(errors, errors[1:]):
            assert 8 <= early / late <= 12


def test_criterion_8_semigroup_laws():
    with Budget("criterion 8 (semigroup and marginals)", 10):
        rng = random.Random(8)
        from conftest import random_cumulant_table
        table = random_cumulant_table(rng, 6)
        s, t = Fraction(3, 2), Fraction(7, 3)
        combined = bifree_convolve(semigroup_scale(table, s),
                                   semigroup_scale(table, t))
        assert combined.entries == semigroup_scale(table, s + t).entries

        model = random_commuting_model(rng, 3)
        left = model_cumulants(levy_marginal_model(model, Fraction(9, 4)), 6)
        right = model_cumulants(levy_marginal_model(model, Fraction(4)), 6)
        both = model_cumulants(levy_marginal_model(model, Fraction(25, 4)), 6)
        assert bifree_convolve(left, right).entries == both.entries

        k1 = random_cumulant_table(rng, 6)
        k2 = random_cumulant_table(rng, 6)
        joint = cumulants_to_moments(bifree_convolve(k1, k2))
        m1 = cumulants_to_moments(k1)
        m2 = cumulants_to_moments(k2)
        free = free_convolve_marginal([m1.get(m, 0) for m in range(7)],
                                      [m2.get(m, 0) for m in range(7)], 6)
        assert free == [joint.get(m, 0) for m in range(7)]


def test_criterion_9_cli_determinism():
    from test_cli import CASES, invoke
    with Budget("criterion 9 (CLI determinism)", 5):
        for name, argv in CASES:
            code, out = invoke(argv)
            assert code == 0
            assert (GOLDEN / f"{name}.json").read_bytes() == out.encode()
            assert invoke(argv)[1] == out
