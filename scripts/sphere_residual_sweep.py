#!/usr/bin/env python3
"""Truncation-order check for the rotating-sphere solution.

The shipped sphere solution is matched at first order in the rim speed
but carries the exact constitutive excitation, so its interior
d star G residual must scale as (a Omega / c)^2. This sweep measures
that slope and the junction residual alongside it.

Usage: python scripts/sphere_residual_sweep.py [--eps-r 4] [--mu-r 2]
"""

import argparse

import numpy as np

from emforms.junction import covariant_jump_residual
from emforms.media import MaterialParams
from emforms.solutions import verify_solution
from emforms.sphere import SphereScenario, solve_sphere


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps-r", type=float, default=4.0)
    ap.add_argument("--mu-r", type=float, default=2.0)
    ap.add_argument("--radius", type=float, default=0.05)
    ap.add_argument("--e0", type=float, default=1000.0)
    ap.add_argument("--samples", type=int, default=60)
    args = ap.parse_args()

    mat = MaterialParams(eps_r=args.eps_r, mu_r=args.mu_r)
    betas = np.logspace(-4, -1, 7)
    print(f"{'a omega/c':>12} {'d*G rel residual':>18} {'junction rel':>14}")
    rels = []
    for beta in betas:
        sc = SphereScenario(
            a=args.radius, omega=beta * mat.c / args.radius, e0=args.e0, mat=mat
        )
        sol, _ = solve_sphere(sc)
        report = verify_solution(sol, samples_per_region=args.samples, seed=0)
        rel = report.regions["medium"]["dstar_g_max_rel"]
        (iface,) = sol.interfaces
        jrep = covariant_jump_residual(sol, iface, iface.events(16, seed=0))
        rels.append(rel)
        print(f"{beta:12.3e} {rel:18.3e} {jrep.max_rel:14.3e}")

    slope = np.polyfit(np.log(betas), np.log(rels), 1)[0]
    print(f"\nlog-log slope of d*G residual vs rim speed: {slope:.4f} (expect 2)")


if __name__ == "__main__":
    main()
