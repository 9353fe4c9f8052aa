"""Child processes the benchmark starts, one at a time.

    python perfbench/child.py setup <workload> <seed>
        Import and do the workload's one-off set-up, then print "ready".
    python perfbench/child.py import-time
        Print the seconds `import gapflow.cli` takes.
    python perfbench/child.py trace-deep <regime> <h> <rel_tol> <out.json>
        Trace one deep-gap drag row and write its spans' totals and counters
        as JSON, with the error if the row raised.
"""

import json
import sys
import time


def setup(workload, seed):
    if workload == "drag-sweep":
        from inproc import DragSweep

        DragSweep(seed).setup()
    elif workload == "fall-scan":
        from inproc import FallScan

        FallScan(seed).setup()
    else:  # the subprocess workloads pay exactly the CLI's import
        import gapflow.cli  # noqa: F401
    print("ready", flush=True)


def import_time():
    t0 = time.perf_counter()
    import gapflow.cli  # noqa: F401

    print(repr(time.perf_counter() - t0), flush=True)


def trace_deep(kind, h, rel_tol, out):
    from gapflow.drag import exterior_constant
    from gapflow.quadrature import QuadratureSpec

    from common import ABS_TOL
    from inproc import make_regime
    from tracing import Tracer, guarded, traced_drag

    regime = make_regime((kind, 1.0, 1.0))
    exterior_constant(regime)
    tr = Tracer()
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=ABS_TOL)
    result, error = guarded(tr, traced_drag, tr, regime, h, spec)
    result = result or {"values": None, "untraced_s": 0.0, "traced_s": 0.0, "error": error}
    result.update(aggregate=tr.aggregate(), counts=dict(tr.counts))
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)


def main(argv):
    if argv[0] == "setup":
        setup(argv[1], int(argv[2]))
    elif argv[0] == "import-time":
        import_time()
    elif argv[0] == "trace-deep":
        trace_deep(argv[1], float(argv[2]), float(argv[3]), argv[4])
    else:
        raise SystemExit(f"unknown child command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
