"""Drop the sphere under both drag laws and show the contact dichotomy.

With a log-divergent drag (slip on both surfaces) the fall reaches the
wall at a finite time with nonzero impact speed; with an inverse-law
drag (no-slip sphere) the gap decays exponentially and contact never
happens.  A free fall with no drag gives the analytic touchdown time
sqrt(2 h0 / G) as a sanity anchor.

Usage:
    python scripts/contact_dichotomy.py
    python scripts/contact_dichotomy.py --h0 0.1 --kappa 2 --t-max 100
"""

import argparse
import math

import numpy as np

from gapflow.dynamics import EventKind, FallParameters, simulate
from gapflow.profile import SlipRegime


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h0", type=float, default=0.25)
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--g-eff", type=float, default=1.0,
                    help="effective gravity (rho_S - rho_F) g / rho_S")
    ap.add_argument("--t-max", type=float, default=50.0)
    args = ap.parse_args()

    # rho_S = 2, rho_F = 1 make G = g / 2
    params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0 * args.g_eff,
                            kappa=args.kappa)
    print(f"h0 = {args.h0}, G = {params.G}, kappa = {params.kappa}")

    drag_free = FallParameters(rho_S=params.rho_S, rho_F=params.rho_F,
                               g=params.g, kappa=0.0)
    free = simulate(drag_free, SlipRegime.slip(1.0, 1.0),
                    args.h0, t_max=2.0 * args.t_max, rtol=1e-12, atol=1e-14)
    print(f"\nfree fall      : touchdown at t* = {free.event.t:.8f}"
          f"  (analytic {math.sqrt(2.0 * args.h0 / params.G):.8f})")

    slip = simulate(params, SlipRegime.slip(1.0, 1.0), args.h0,
                    t_max=args.t_max)
    if slip.event.kind == EventKind.TOUCHDOWN:
        print(f"slip,  D ~ |ln h|: touchdown at t* = {slip.event.t:.6f}"
              f"  impact speed {slip.event.speed:.6f}")
    else:
        print(f"slip,  D ~ |ln h|: {slip.event.kind} at t = {slip.event.t:.3f}")

    mixed = simulate(params, SlipRegime.mixed(1.0), args.h0, t_max=args.t_max)
    # the local rate at the end; past h = 1e-6 the run ends in one
    # closed-form row, over which ln h is affine in t
    y = np.abs(np.log(mixed.h))
    slope = (y[-1] - y[-2]) / (mixed.t[-1] - mixed.t[-2])
    print(f"mixed, D ~ 1/h  : {mixed.event.kind} at t = {mixed.event.t:.1f}"
          f"  h(end) = {mixed.event.h:.3e}"
          f"  |ln h| grows ~ {slope:.4f} * t  (no contact)")
    if mixed.event.note:
        print(f"                  note: {mixed.event.note}")


if __name__ == "__main__":
    main()
