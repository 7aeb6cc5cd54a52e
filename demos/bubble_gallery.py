"""Brownian-bubble masses on annuli: tables, limits, and a convergence scan.

Three short acts:
  1. the annulus function U(q) over a range of moduli,
  2. the kernel-difference limit converging to U(q) on the centered annulus,
  3. the same limit on an off-center hole, against the closed-form mass.

Run:  python3 demos/bubble_gallery.py [--csv scan.csv]
"""

import argparse
import math

from loopcft import spectral


def act_one() -> None:
    print("=== U(q) across the moduli ===\n")
    print(f"  {'q':>10}  {'U(q)':>18}  {'U(q)|log q|':>14}")
    for q in (1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.8, 0.95):
        u = spectral.U_of_q(q)
        print(f"  {q:>10.0e}  {u:>18.12f}  {u * abs(math.log(q)):>14.6f}")
    print()


def act_two() -> None:
    print("=== centered annulus: kernel difference vs U(q) ===\n")
    q = 0.3
    want = spectral.U_of_q(q)
    print(f"  target U({q}) = {want:.12f}")
    print(f"  {'gap':>10}  {'pi (H_disc - H_annulus)':>24}  {'rel err':>10}")
    for gap in (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3):
        diff = spectral.bubble_mass_limit(spectral.mobius_annulus(0.0, q), 0.0, gap)
        print(f"  {gap:>10.0e}  {diff:>24.12f}  {abs(diff - want) / want:>10.2e}")
    print()


def act_three(csv_path: str | None) -> None:
    print("=== off-center hole: straddled limit vs closed form ===\n")
    amap = spectral.mobius_annulus(0.3, 0.25)
    theta = 0.7
    closed = spectral.bubble_mass(amap, theta)
    print(f"  hole at 0.3 with radius 0.25 -> modulus q = {amap.q:.12f}")
    print(f"  closed-form mass at theta = {theta}: {closed:.12f}")
    print(f"  {'gap':>10}  {'straddled limit':>18}  {'rel err':>10}")
    gaps = (0.1, 0.03, 0.01, 3e-3, 1e-3)
    for gap in gaps:
        straddle = spectral.bubble_mass_limit(
            amap, theta - gap / 2, theta + gap / 2
        )
        rel = abs(straddle - closed) / abs(closed)
        print(f"  {gap:>10.0e}  {straddle:>18.12f}  {rel:>10.2e}")
    if csv_path:
        rows = spectral.write_bubble_limit_scan(
            csv_path, amap, theta, [theta + g for g in gaps]
        )
        print(f"\n  wrote {rows} rows to {csv_path}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default=None, help="also export the act-3 scan")
    args = parser.parse_args()
    act_one()
    act_two()
    act_three(args.csv)


if __name__ == "__main__":
    main()
