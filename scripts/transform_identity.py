#!/usr/bin/env python3
"""Coefficient residuals of the two-variable transform identity.

Checks

    R(z, w) = 1 + z R_a(z) + w R_b(w) - zw / G(K_a(z), K_b(w))

on truncations for random atomic measures and random commuting operator
models, in exact rational arithmetic: the cumulants of the first-block
recursion against the closed form, which is the identity solved for them
(bifree.cumulants.verify_voiculescu_identity). Every residual should be
exactly zero.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_commuting_model, random_planar_measure  # noqa: E402

from bifree.fock import moment_table_from_model  # noqa: E402
from bifree.measures import moment_table  # noqa: E402
from bifree.cumulants import verify_voiculescu_identity  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--degree", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        table = moment_table(random_planar_measure(rng, 3), args.degree)
        residual = verify_voiculescu_identity(table)
        print(f"measure {trial}: residual {residual}")
        failures += residual != 0
    for trial in range(args.trials):
        model = random_commuting_model(rng, rng.randint(1, 3))
        residual = verify_voiculescu_identity(
            moment_table_from_model(model, args.degree))
        print(f"model   {trial}: residual {residual}")
        failures += residual != 0
    print("all residuals exactly zero" if not failures
          else f"{failures} nonzero residuals")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
