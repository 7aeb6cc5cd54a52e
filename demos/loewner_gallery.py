"""Chordal Loewner evolution: maps, traces, and the random driver.

Walks through the deterministic sanity cases (zero driver, vertical slit),
then samples a random driver and reports the statistics that identify its
diffusivity.  Optionally writes the sampled trace to CSV for plotting.

Run:  python3 demos/loewner_gallery.py [--kappa 3.0] [--seed 7] [--trace-csv out.csv]
"""

import argparse
import cmath
import math

from loopcft import loewner


def deterministic_acts() -> None:
    print("=== zero driver: the two-slit map g_t(z) = sqrt(z^2 + 4t) ===\n")
    still = loewner.DrivingFunction.zero(total_time=1.0, dt=1e-3)
    for z in (3j, 1 + 2j, -2 + 1j):
        got = loewner.forward_map(still, z, 1.0)
        want = cmath.sqrt(z * z + 4)
        if want.imag < 0:
            want = -want
        print(f"  g_1({z}) = {got:.10f}   closed form {want:.10f}   "
              f"err {abs(got - want):.2e}")
    print()

    print("=== vertical slit: the trace of the zero driver ===\n")
    tr = loewner.trace(loewner.DrivingFunction.zero(total_time=1.0, dt=1e-3))
    tip = tr.tip
    print(f"  tip after time 1: {tip:.8f}  (exact 2i, err {abs(tip - 2j):.2e})")
    print(f"  trace points: {len(tr.points)}, all on the imaginary axis: "
          f"{all(abs(p.real) < 1e-9 for p in tr.points)}")
    print()


def random_acts(kappa: float, seed: int, trace_csv: str | None) -> None:
    print(f"=== random driver with diffusivity kappa = {kappa} ===\n")
    dt = 1e-3
    driver = loewner.sample_sle_driving(kappa, 1.0, dt, seed=seed)
    tr = loewner.trace(driver)
    print(f"  seed {seed}: {len(tr.points)} trace points, tip {tr.tip:.6f}")
    heights = [p.imag for p in tr.points]
    print(f"  max height reached: {max(heights):.6f}")

    n = 3000
    total = total_sq = 0.0
    for w_final in loewner.sle_driving_endpoints(kappa, 1.0, dt, range(n)):
        total += w_final
        total_sq += w_final * w_final
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    se = kappa * math.sqrt(2.0 / (n - 1))
    print(f"\n  across {n} seeds: mean W_1 = {mean:+.4f}, "
          f"variance {var:.4f} (target {kappa}, 1 SE = {se:.4f})")

    if trace_csv:
        rows = loewner.write_trace_csv(trace_csv, tr)
        print(f"\n  wrote {rows} trace rows to {trace_csv}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace-csv", default=None)
    args = parser.parse_args()
    deterministic_acts()
    random_acts(args.kappa, args.seed, args.trace_csv)


if __name__ == "__main__":
    main()
