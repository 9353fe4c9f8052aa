"""Regenerate perfbench/pinned.json, the reference values the checks use.

    python3 perfbench/pin.py

Pins energy and surface_drag for every drag-sweep row of the default
seed's first PIN_ROUNDS rounds, the outcome, t_star, impact speed and
min h of every fall-scan cell of its first FALL_PIN_ROUNDS rounds, and the
`drag scan` row of every deep-gap input that finishes.  A fall cell that
fails the workload's outcome check is not pinned: the script stops.  Run it only when an intended change of the numbers
has been reviewed; the checks exist to catch unintended ones.
"""

import json
import os
import sys

from common import (
    ABS_TOL,
    DEEP_MIXED,
    DEEP_SLIP,
    DEFAULT_SEED,
    PINNED,
    SETTINGS,
    SRC,
    deep_key,
    drag_key,
    drag_round,
    fall_key,
    fall_round,
)

os.environ.update(SETTINGS["thread_env"])
sys.path.insert(0, str(SRC))

from gapflow.drag import drag_curve  # noqa: E402
from gapflow.quadrature import QuadratureSpec  # noqa: E402

from inproc import DragSweep, FallScan, fall_values, make_regime  # noqa: E402

PIN_ROUNDS = 16
FALL_PIN_ROUNDS = 4


def main():
    sweep = DragSweep(DEFAULT_SEED)
    rows = {
        drag_key(op): sweep.run(op)
        for k in range(PIN_ROUNDS)
        for op in drag_round(DEFAULT_SEED, k)
    }
    scan = FallScan(DEFAULT_SEED)
    falls = {}
    for k in range(FALL_PIN_ROUNDS):
        for op in fall_round(DEFAULT_SEED, k):
            row = scan.run(op)
            error = scan.check(op, row)
            if error:
                raise SystemExit(f"fall cell {op}: {error}")
            falls[fall_key(op)] = fall_values(row)
    deep = {}
    for op in DEEP_SLIP + DEEP_MIXED:
        kind, h, rel_tol = op
        spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=ABS_TOL)
        row = drag_curve(make_regime((kind, 1.0, 1.0)), [h], spec=spec).rows[0]
        deep[deep_key(op)] = {
            "E_total": row.energy,
            "E_grad": row.gradient_part,
            "E_sphere": row.sphere_part,
            "E_wall": row.wall_part,
            "n": row.surface,
        }
    pinned = {
        "drag-sweep": {"seed": DEFAULT_SEED, "rows": rows},
        "fall-scan": {"seed": DEFAULT_SEED, "rows": falls},
        "deep-gap": deep,
    }
    with open(PINNED, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
