"""Sweep the gap and tabulate drag for both boundary regimes.

Prints E(h) and n(h) with the regime's scaling ratio (E/|ln h| for slip,
E*h for mixed), then the least-squares fits of both candidate models so
the log-vs-inverse discrimination is visible at a glance.

Usage:
    python scripts/drag_sweep.py
    python scripts/drag_sweep.py --h-list 1e-2,1e-3,1e-4 --csv sweep.csv
"""

import argparse
import csv

from gapflow.drag import drag_curve, fit_scaling
from gapflow.model import DEFAULT_H_LIST
from gapflow.profile import ScalingModel, SlipRegime
from gapflow.quadrature import QuadratureSpec


def report(regime, name, h_list, spec):
    curve = drag_curve(regime, h_list, spec=spec)
    model = ScalingModel.of(regime.kind)
    scaled = curve.column("energy") / model.regressor(curve.column("h"))
    label = {ScalingModel.LOG: "E/|ln h|", ScalingModel.INVERSE: "E*h"}[model]

    print(f"\n== {name} ==")
    print(f"{'h':>10} {'E(h)':>12} {'n(h)':>12} {label:>12}")
    for row, s in zip(curve.rows, scaled):
        print(f"{row.h:>10.1e} {row.energy:>12.4f} {row.surface:>12.4f} {s:>12.4f}")
    print(f"window max/min of {label}: {scaled.max() / scaled.min():.4f}")

    if len(curve.rows) >= 4:
        for candidate in ScalingModel:
            fit = fit_scaling(curve, candidate)
            print(
                f"  {fit.name:>8} fit: a = {fit.a:10.4f}  b = {fit.b:10.4f}"
                f"  R^2 = {fit.r_squared:.6f}"
            )
    else:
        print("  (skipping fits: need at least 4 gaps)")
    print(f"exterior ring constant: {curve.provenance['exterior_constant']:.4f}")
    return curve


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h-list", default=None, help="comma-separated gaps")
    ap.add_argument("--rel-tol", type=float, default=1e-8)
    ap.add_argument("--csv", default=None, help="also write the rows here")
    args = ap.parse_args()

    h_list = (
        tuple(float(x) for x in args.h_list.split(","))
        if args.h_list
        else DEFAULT_H_LIST
    )
    spec = QuadratureSpec(rel_tol=args.rel_tol, abs_tol=1e-12)

    curves = [
        report(SlipRegime.slip(1.0, 1.0), "slip (beta_S = beta_Omega = 1)",
               h_list, spec),
        report(SlipRegime.mixed(1.0), "mixed (no-slip sphere, slip wall)",
               h_list, spec),
    ]

    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["regime", "h", "E_total", "E_grad", "E_sphere",
                             "E_wall", "n"])
            for curve in curves:
                for r in curve.rows:
                    writer.writerow([curve.regime.kind.value, r.h, r.energy,
                                     r.gradient_part, r.sphere_part,
                                     r.wall_part, r.surface])
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
