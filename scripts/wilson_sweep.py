#!/usr/bin/env python3
"""Rim-speed sweep of the rotating-shell voltage.

Prints the exact line-integral voltage against its non-relativistic
leading term over a range of rim speeds and fits the log-log slope of
the departure, which should be 2 (quadratic in Omega r2 / c).

Usage: python scripts/wilson_sweep.py [--eps-r 6] [--mu-r 1] [--points 9]
"""

import argparse

import numpy as np

from emforms.cylinder import CylinderScenario, wilson_wilson_V12
from emforms.media import MaterialParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps-r", type=float, default=6.0)
    ap.add_argument("--mu-r", type=float, default=1.0)
    ap.add_argument("--r1", type=float, default=0.02)
    ap.add_argument("--r2", type=float, default=0.04)
    ap.add_argument("--b0", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=9)
    args = ap.parse_args()

    mat = MaterialParams(eps_r=args.eps_r, mu_r=args.mu_r)
    betas = np.logspace(-4, -0.5, args.points)
    print(f"{'omega r2/c':>12} {'V12 leading [V]':>18} {'V12 exact [V]':>18} {'rel departure':>14}")
    departures = []
    for beta in betas:
        sc = CylinderScenario(
            r1=args.r1, r2=args.r2, omega=beta * mat.c / args.r2, b0=args.b0, mat=mat
        )
        lead = wilson_wilson_V12(sc, "leading")
        exact = wilson_wilson_V12(sc, "exact")
        dep = abs(exact - lead) / abs(lead)
        departures.append(dep)
        print(f"{beta:12.3e} {lead:18.10e} {exact:18.10e} {dep:14.3e}")

    slope = np.polyfit(np.log(betas), np.log(departures), 1)[0]
    print(f"\nlog-log slope of departure vs rim speed: {slope:.4f} (expect 2)")


if __name__ == "__main__":
    main()
