"""A walking tour of the mode operators and their bracket algebra.

Builds a handful of operators, shows their coefficient data, and verifies a
few bracket relations the hard way — by composing actions on states — before
letting the closed-form bracket do the same job symbolically.

Run:  python3 demos/commutator_tour.py [--max-mode 3]
"""

import argparse
from fractions import Fraction

from loopcft.operators import (
    OperatorTable,
    commutator_defect,
    fresh_state,
    vacuum_state,
)
from loopcft.symbolic import CC, LAMBDA, CoeffPoly, a


def show_operator(table: OperatorTable, n: int) -> None:
    op = table.L(n)
    print(f"mode {n}  (window {op.max_index})")
    print(f"  euler coefficient : {op.e_coeff.canonical_text() or '0'}")
    print(f"  identity part     : {op.id_coeff.canonical_text() or '0'}")
    for m in sorted(op.d_a):
        print(f"  d/d a_{m:<2}          : {op.d_a[m].canonical_text()}")
    for m in sorted(op.d_abar):
        print(f"  d/d abar_{m:<2}       : {op.d_abar[m].canonical_text()}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-mode", type=int, default=3)
    args = parser.parse_args()

    table = OperatorTable(max_index=8)

    print("=== a look inside two operators ===\n")
    show_operator(table, -1)
    show_operator(table, 2)

    print("=== the central term, seen on the vacuum ===\n")
    v = vacuum_state()
    c = CoeffPoly.generator(CC)
    lam = CoeffPoly.generator(LAMBDA)
    for n in (1, 2, 3):
        ln, lmn = table.L(n), table.L(-n)
        bracket = ln.apply(lmn.apply(v)) - lmn.apply(ln.apply(v))
        # [L_n, L_{-n}] 1 = (2n lambda + c (n^3 - n)/12) 1
        expect = v.scale(2 * n * lam + c * Fraction(n**3 - n, 12))
        ok = (bracket - expect).is_zero
        print(f"  [L_{n}, L_{-n}] acting on 1: "
              f"{bracket.poly.canonical_text()}   {'ok' if ok else 'MISMATCH'}")
    print()

    print("=== every bracket up to the requested mode, symbolically ===\n")
    k = args.max_mode
    wide = OperatorTable(max_index=2 * k + 2)
    bad = 0
    for n in range(-k, k + 1):
        for m in range(n + 1, k + 1):
            bad += not commutator_defect(wide.L(n), wide.L(m), wide).is_zero
    print(f"  same-family pairs with |n|,|m| <= {k}: "
          f"{'all satisfy the algebra' if bad == 0 else f'{bad} defects!'}")

    print("\n=== one concrete action ===\n")
    s = fresh_state(CoeffPoly.generator(a(2)))
    image = table.L(1).apply(s)
    print(f"  L_1 a_2 = {image.poly.canonical_text()}")


if __name__ == "__main__":
    main()
