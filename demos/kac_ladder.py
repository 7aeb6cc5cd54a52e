"""Climb the determinant ladder: Gram forms, roots, and rank drops.

For each level up to the requested cap this prints the exact determinant of
the Gram form (with the central charge specialized along the one-parameter
family), the degenerate weights that annihilate it, and what happens to the
rank when you actually sit on one of them.

Run:  python3 demos/kac_ladder.py [--kappa 3/1] [--levels 4]
"""

import argparse
from fractions import Fraction

from loopcft.symbolic import LAMBDA, partition_count
from loopcft.verma import (
    central_charge,
    gram_rank_at,
    kac_determinant_at,
    kac_lambda,
    kac_table,
    singular_vectors,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa", type=Fraction, default=Fraction(3))
    parser.add_argument("--levels", type=int, default=4)
    args = parser.parse_args()

    kappa = args.kappa
    charge = central_charge(kappa)
    print(f"kappa = {kappa}, central charge = {charge}\n")

    for level in range(1, args.levels + 1):
        det = kac_determinant_at(level, charge)
        print(f"level {level}  (basis size {partition_count(level)})")
        print(f"  det = {det.canonical_text()}")

        roots = sorted({kac_lambda(r, s, kappa) for r, s in kac_table(level)})
        verified = [w for w in roots if det.substitute({LAMBDA: w}).is_zero]
        print(f"  degenerate weights with rs <= {level}: "
              + ", ".join(str(w) for w in verified))

        for w in verified:
            rank = gram_rank_at(level, w, charge)
            kernel = singular_vectors(level, w, charge)
            drop = partition_count(level) - rank
            print(f"    at lambda = {w}: rank {rank} "
                  f"(drop {drop}, kernel dimension {len(kernel)})")
        print()


if __name__ == "__main__":
    main()
