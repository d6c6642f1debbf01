#!/usr/bin/env python3
"""Round trip through the Levy-Hincin correspondence on random atomic data.

Draws validated measure triples, runs triple -> cumulants -> operator model
-> extracted triple, and reports the worst cumulant and atom recovery
errors together with the exact gates' ranks of G_3 and G_4.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_validated_lh  # noqa: E402

from bifree.levy_hincin import (check_cond_bounded, check_cpsd,  # noqa: E402
                                extract_levy_measures, gns_reconstruct,
                                lh_to_cumulants)


def atom_error(source, found):
    worst = 0.0
    for s, t, w in source.atoms:
        s, t, w = float(s), float(t), float(w)
        nearest = min(found.atoms, key=lambda a: abs(a[0] - s) + abs(a[1] - t))
        worst = max(worst, abs(nearest[0] - s), abs(nearest[1] - t),
                    abs(nearest[2] - w))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--atoms", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'trial':>5}  {'atoms':>5}  {'dim':>3}  {'ranks':>5}  "
          f"{'cumulant err':>13}  {'atom err':>10}")
    for trial in range(args.trials):
        data = random_validated_lh(rng, rng.randint(1, args.atoms))
        table = lh_to_cumulants(data, 8)
        cpsd = check_cpsd(table, 3)
        bounded = check_cond_bounded(table, 3)
        assert cpsd.ok and bounded.ok
        model = gns_reconstruct(table, 3)
        recovered = extract_levy_measures(model)
        rebuilt = lh_to_cumulants(recovered, 8)
        cum_err = max(abs(float(rebuilt.get(m, t - m)) - float(table.get(m, t - m)))
                      for t in range(1, 7) for m in range(t + 1))
        atom_err = max(atom_error(data.rho1, recovered.rho1),
                       atom_error(data.rho2, recovered.rho2),
                       atom_error(data.rho, recovered.rho))
        print(f"{trial:>5}  {len(data.rho1.atoms):>5}  {model.dim:>3}  "
              f"{f'{bounded.rank}/{bounded.rank_next}':>5}  {cum_err:>13.3e}  {atom_err:>10.3e}")


if __name__ == "__main__":
    main()
