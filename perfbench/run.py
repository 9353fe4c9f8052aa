#!/usr/bin/env python3
"""gapflow benchmark: four seeded workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload drag-sweep --seed 1 --seconds 16 --trace 0

Workloads (each a closed loop: one client, one operation at a time, in
one process, gapflow's `threads` left at 1):

    drag-sweep  energy + surface_drag rows at seeded (regime, h), warm
    fall-scan   single touchdown_scan cells at seeded (kappa, G, h0)
    cli-cold    `verify all`, `drag scan` (slip, mixed), `fall scan
                --regime mixed --t-max 50`, each a fresh subprocess
    deep-gap    fresh `drag scan` subprocesses below the validated sweep,
                each under a hard deadline

With --trace 0 the run measures whole rounds of operations for at least
--seconds and prints the end-to-end metrics.  Their times are wall-clock
seconds scaled to a reference host speed: right before and after each
timed operation, and before each set-up, the run times a calibration task
that touches no gapflow code (a fixed numpy kernel for drag-sweep, a fixed
scipy Radau solve for fall-scan, a fresh interpreter that imports numpy
for subprocesses) and multiplies the operation's time by reference /
calibration, the reference being pinned in environment.json.  On a shared
2-cpu host, raw times drifted by 20-50 % over seconds to tens of seconds;
the calibration cancels most of that common drift.  Raw medians are
printed beside.

With --trace 1 it runs a fixed, seeded list of operations with spans
around every call into a layer (twice, to check that the work counters
repeat), plus single-layer probes, and prints the per-layer metrics in
raw seconds, with the tracing overhead.

Either way every operation's output is checked, a table of metrics with
units and sample counts is printed, and the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The benchmark pins BLAS/OpenMP threads to 1 in its own environment and
runs gapflow from ./src.  It writes only under perfbench/out/.
"""

import os
import sys

from common import SETTINGS

# before numpy is first imported, here or in any child
os.environ.update(SETTINGS["thread_env"])

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

from common import (  # noqa: E402
    BENCH,
    CLI_COMMANDS,
    DEEP_HANGS,
    DEFAULT_SEED,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    BenchError,
    child_env,
    cli_round,
    deep_key,
    deep_round,
    drag_regimes,
    drag_round,
    fall_round,
    level_h,
    load_pinned,
    rel_close,
)
from procs import run_child, stderr_tail  # noqa: E402

perf = time.perf_counter
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_DEADLINE_S = 60.0
# a traced deep-gap child evaluates its row twice, the second time under
# spans, so it gets this multiple of the workload's deadline
TRACE_DEADLINE_FACTOR = 3.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "profile.psi_partials.rate_192": "Mpts/s",
    "profile.psi_partials.rate_1m": "Mpts/s",
    "profile.weighted_sups.busy_s": "s",
    "profile.coefficients.calls_per_s": "1/s",
    **{
        f"field.{fn}.{what}": unit
        for fn in ("aperture_frame", "pressure", "stokes_residual")
        for what, unit in (("calls", "count"), ("points", "count"), ("self_s", "s"))
    },
    "field.pressure.rate_192": "Mpts/s",
    **{
        f"quadrature.{fn}.{what}": unit
        for fn in ("integrate_gap", "integrate_surface")
        for what, unit in (
            ("calls", "count"),
            ("cells", "count"),
            ("evals", "count"),
            ("points", "count"),
            ("self_s", "s"),
            ("leaf_frac", "frac"),
        )
    },
    "quadrature.classify_singular.busy_s": "s",
    "quadrature.errors": "count",
    "quadrature.deadline_misses": "count",
    "drag.exterior_constant.cold_s": "s",
    "drag.energy.busy_s": "s",
    "drag.surface_drag.busy_s": "s",
    "dynamics.simulate.slip.busy_s": "s",
    "dynamics.simulate.mixed.busy_s": "s",
    "dynamics.law.calls": "count",
    "dynamics.law.self_s": "s",
    "dynamics.steps.h_phase": "count",
    "dynamics.steps.log_phase": "count",
    "cli.import_s": "s",
    **{f"cli.run.{name}.busy_s": "s" for name in CLI_COMMANDS},
    **{f"cli.cold.{name}_s": "s" for name in CLI_COMMANDS},
    "trace.overhead_frac": "frac",
}


def tail(values):
    """(value, percentile): the highest order statistic with ten samples
    beyond it, but never one below the median."""
    xs = sorted(values)
    n = len(xs)
    i = max(n - 11, n // 2)
    return xs[i], 100.0 * i / max(n - 1, 1)


def peak_self_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(argv, deadline, scratch, read_line=False):
    argv = [sys.executable, str(BENCH / "child.py"), *argv]
    return run_child(argv, deadline, child_env(), ROOT, scratch / "child.stderr", read_line)


def child_lines(argv, samples, scratch):
    """(seconds to its line, the line) of `samples` fresh children."""
    out = []
    for _ in range(samples):
        res = child(argv, CHILD_DEADLINE_S, scratch, read_line=True)
        if not res.ok or not res.line:
            raise BenchError(f"child {argv} failed: {res} {stderr_tail(scratch / 'child.stderr')}")
        out.append((res.line_s, res.line))
    return out


def reference(pinned, workload, seed):
    """A workload's pinned values; they exist for the default seed only."""
    ref = pinned[workload]
    return ref["rows"] if seed == ref["seed"] else None


def make_workload(name, seed, scratch):
    pinned = load_pinned()
    if name == "drag-sweep":
        from inproc import DragSweep  # imports gapflow: only in-process workloads do

        return DragSweep(seed, reference(pinned, name, seed))
    if name == "fall-scan":
        from inproc import FallScan

        return FallScan(seed, reference(pinned, name, seed))
    from cliops import CliCold, DeepGap

    if name == "cli-cold":
        return CliCold(seed, scratch)
    return DeepGap(seed, scratch, pinned["deep-gap"])


def describe(op):
    return " ".join(str(x) for x in op) if isinstance(op, tuple) else str(op)


# ------------------------------------------------------------ end to end


def measure(wl, seconds):
    """Whole rounds, at least one, until `seconds` have passed.

    Each operation is timed between two calibrations, the one after it
    serving as the one before the next, and its time is also given scaled
    to the reference host speed by their mean.  Returns records [op,
    seconds, scaled seconds, output, error].
    """
    records = []
    start = perf()
    k = 0
    after = wl.calibrate()
    while k == 0 or perf() - start < seconds:
        for op in wl.round(k):
            before = after
            t0 = perf()
            try:
                out, error = wl.run(op), None
            except Exception as exc:  # the operation failed; the run goes on
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = perf() - t0
            after = wl.calibrate()
            scale = 2.0 * wl.reference_s / (before + after)
            if error is None:
                error = wl.check(op, out)
            records.append([op, dt, dt * scale, out, error])
        k += 1
    bad = wl.final_check([(r[0], r[3]) for r in records if r[4] is None])
    for r in records:
        if r[4] is None and r[0] in bad:
            r[4] = bad[r[0]]
    return records


def setup_times(name, seed, scratch):
    """Scaled seconds from a fresh interpreter to the workload being ready."""
    from cliops import calibrate_cold

    env, stderr = child_env(), scratch / "calibration.stderr"
    out = []
    for _ in range(SETUP_SAMPLES):
        scale = SETTINGS["reference_s"]["subprocess"] / calibrate_cold(env, stderr)
        (seconds, _), = child_lines(["setup", name, str(seed)], 1, scratch)
        out.append(seconds * scale)
    return out


def untraced(name, seed, seconds, scratch):
    setup = setup_times(name, seed, scratch)
    wl = make_workload(name, seed, scratch)
    wl.setup()
    records = measure(wl, seconds)
    failures = [(describe(r[0]), r[4]) for r in records if r[4]]

    n = len(records)
    scaled = [r[2] for r in records]
    value, pct = tail(scaled)
    tail_note = f"p{pct:.1f}" + (", near the median: under 21 samples" if n - 11 < n // 2 else "")
    if name in ("cli-cold", "deep-gap"):
        rss, rss_n, rss_note = max(r[3].maxrss_mb for r in records if r[3]), n, "largest child"
    else:
        rss, rss_n, rss_note = peak_self_mb(), 1, "this process"
    rows = {
        "setup_s": (statistics.median(setup), len(setup), "median"),
        "ops_per_s": (n / sum(scaled), n, ""),
        "op_p50_s": (statistics.median(scaled), n, f"raw {statistics.median(r[1] for r in records):.4g} s"),
        "op_tail_s": (value, n, tail_note),
        "ok_frac": (sum(1 for r in records if not r[4]) / n, n, ""),
        "peak_rss_mb": (rss, rss_n, rss_note),
    }
    notes = []
    if name == "cli-cold":
        for cmd in CLI_COMMANDS:
            times = [r[2] for r in records if r[0] == cmd]
            raw = statistics.median(r[1] for r in records if r[0] == cmd)
            notes.append(
                f"{cmd}: median {statistics.median(times):.4g} s over {len(times)} runs (raw {raw:.4g} s)"
            )
    failed = sum(1 for r in records if r[4])
    return rows, END_TO_END, n, failed, failures, notes


# ------------------------------------------------------------- traced


def traced_plan(name, seed):
    """The fixed operations of a traced run.

    The workload's own operations come first; a two-operation slice of the
    drag and fall inputs reaches the layers the workload does not, so every
    per-layer metric is measured on every workload.  deep-gap reaches drag,
    field and quadrature through its own rows, each traced in a fresh child.
    """
    drag0, fall0 = drag_round(seed, 0), fall_round(seed, 0)
    drag_slice = [next(op for op in drag0 if op[0][0] == kind) for kind in ("slip", "mixed")]
    fall_slice = [next(op for op in fall0 if op[:2] == mix) for mix in (("slip", 50.0), ("mixed", 50.0))]
    return {
        "drag": drag0 + drag_round(seed, 1) if name == "drag-sweep" else [] if name == "deep-gap" else drag_slice,
        "fall": fall0 if name == "fall-scan" else fall_slice,
        "deep": deep_round(seed, 0)[:4] if name == "deep-gap" else [],
    }


def replay_pass(tr, plan, drag_wl, fall_wl, deep_ref, scratch):
    """Trace every planned operation once: [label, untraced s, traced s, error].

    An operation that raises is a failed one; the pass goes on.
    """
    from tracing import guarded, traced_drag, traced_fall

    records = []
    for op in plan["drag"]:
        spec, level = op
        res, error = guarded(tr, traced_drag, tr, drag_wl.regimes[spec], level_h(level))
        if res:
            error = res["error"] or drag_wl.check(op, tuple(res["values"]))
        times = (res["untraced_s"], res["traced_s"]) if res else (0.0, 0.0)
        records.append([f"drag {describe(op)}", *times, error])
    for op in plan["fall"]:
        res, error = guarded(tr, traced_fall, tr, op)
        if res:
            error = res["error"] or fall_wl.check(op, res["row"])
        times = (res["untraced_s"], res["traced_s"]) if res else (0.0, 0.0)
        records.append([f"fall {describe(op)}", *times, error])
    for op in plan["deep"]:
        kind, h, rel_tol = op
        path = scratch / "trace-deep.json"
        path.unlink(missing_ok=True)
        deadline = TRACE_DEADLINE_FACTOR * SETTINGS["deadline_s"]["deep-gap"]
        proc = child(["trace-deep", kind, repr(h), repr(rel_tol), str(path)], deadline, scratch)
        label = f"deep {describe(op)}"
        if not proc.ok:
            records.append([label, 0.0, 0.0, f"traced child failed: {proc}"])
            continue
        with open(path, encoding="utf-8") as f:
            res = json.load(f)
        tr.absorb(res["aggregate"], res["counts"])
        ref = deep_ref[deep_key(op)]
        error = res["error"]
        if error is None and not all(rel_close(v, ref[k]) for v, k in zip(res["values"], ("E_total", "n"))):
            error = f"{res['values']} differs from the pinned {ref}"
        records.append([label, res["untraced_s"], res["traced_s"], error])
    return records


def work_counters(tr):
    counters = dict(tr.counts)
    for name, (calls, _, _) in tr.aggregate().items():
        counters[f"{name}.calls"] = calls
    return counters


def traced(name, seed, seconds, scratch):
    import gapflow.cli

    from cliops import CliCold, DeepGap
    from inproc import DragSweep, FallScan
    from tracing import Tracer, guarded, probes

    del seconds  # the traced run's operations are fixed, so its counters repeat
    pinned = load_pinned()
    drag_wl = DragSweep(seed, reference(pinned, "drag-sweep", seed))
    drag_wl.setup()
    fall_wl = FallScan(seed, reference(pinned, "fall-scan", seed))
    plan = traced_plan(name, seed)

    # two passes over the same operations: the first gives the metrics,
    # the second must repeat its work counters exactly
    tr, second = Tracer(), Tracer()
    records = replay_pass(tr, plan, drag_wl, fall_wl, pinned["deep-gap"], scratch)
    repeat = replay_pass(second, plan, drag_wl, fall_wl, pinned["deep-gap"], scratch)
    failures = [(r[0], r[3]) for r in records + repeat if r[3]]
    counters, again = work_counters(tr), work_counters(second)
    if counters != again:
        diff = sorted(k for k in set(counters) | set(again) if counters.get(k) != again.get(k))
        failures.append(("work counters", f"differ between two passes on one seed: {diff}"))
    untraced_s = sum(r[1] for r in records)
    overhead = sum(r[2] for r in records) / untraced_s - 1.0

    cli = CliCold(seed, scratch)
    for cmd in cli_round(seed, 0):
        shutil.rmtree(cli.out, ignore_errors=True)
        cli.out.mkdir(parents=True)
        argv = [*CLI_COMMANDS[cmd], "--out", str(cli.out)]
        code, error = guarded(tr, tr.call, f"cli.run.{cmd}", gapflow.cli.run, argv)
        if error is None and code:
            error = f"exit code {code}"
        elif error is None:
            found, error = guarded(tr, cli.check_outputs, cmd)
            error = error or found
        records.append([f"cli.run {cmd}", 0.0, 0.0, error])
        if error:
            failures.append((f"cli.run {cmd}", error))

    cold = {}
    for op, wall, _, _, error in measure(cli, 0.0):  # one round, fresh processes
        cold[op] = wall
        if error:
            failures.append((f"cold {op}", error))
    imports = [float(line) for _, line in child_lines(["import-time"], IMPORT_SAMPLES, scratch)]
    layer = probes([drag_wl.regimes[spec] for spec in drag_regimes(seed)])

    misses, finished = [], []
    if name == "deep-gap":
        deep = DeepGap(seed, scratch, pinned["deep-gap"])
        for op in DEEP_HANGS:
            res = deep.run(op)
            if res.timed_out:
                misses.append(f"{describe(op)}: killed at the {deep.deadline} s deadline")
            else:
                # `drag scan` exits 3 on a numerical failure, such as a
                # QuadratureError from a refinement that gives up
                tr.counts["quadrature.errors"] += res.returncode == 3
                finished.append(f"{describe(op)}: exit code {res.returncode} after {res.wall_s:.2f} s")
            if res.orphans:
                failures.append((describe(op), "left a process behind"))

    agg = tr.aggregate()

    def span(name, i):
        return agg.get(name, (0, 0.0, 0.0))[i]

    m = dict(layer)
    for fn in ("aperture_frame", "pressure", "stokes_residual"):
        m[f"field.{fn}.calls"] = span(f"field.{fn}", 0)
        m[f"field.{fn}.points"] = tr.counts[f"field.{fn}.points"]
        m[f"field.{fn}.self_s"] = span(f"field.{fn}", 2)
    for fn in ("integrate_gap", "integrate_surface"):
        q = f"quadrature.{fn}"
        m[f"{q}.calls"] = span(q, 0)
        for what in ("cells", "evals", "points"):
            m[f"{q}.{what}"] = tr.counts[f"{q}.{what}"]
        m[f"{q}.self_s"] = span(q, 2)
        evals = tr.counts[f"{q}.evals"]
        m[f"{q}.leaf_frac"] = 2.0 * tr.counts[f"{q}.cells"] / evals if evals else 0.0
    m["quadrature.errors"] = tr.counts["quadrature.errors"]
    m["quadrature.deadline_misses"] = len(misses)
    m["drag.energy.busy_s"] = span("drag.energy", 1)
    m["drag.surface_drag.busy_s"] = span("drag.surface_drag", 1)
    for kind in ("slip", "mixed"):
        m[f"dynamics.simulate.{kind}.busy_s"] = span(f"dynamics.simulate.{kind}", 1)
    m["dynamics.law.calls"] = span("dynamics.law", 0)
    m["dynamics.law.self_s"] = span("dynamics.law", 2)
    for phase in ("h_phase", "log_phase"):
        m[f"dynamics.steps.{phase}"] = tr.counts[f"dynamics.steps.{phase}"]
    m["cli.import_s"] = statistics.median(imports)
    for cmd in CLI_COMMANDS:
        m[f"cli.run.{cmd}.busy_s"] = span(f"cli.run.{cmd}", 1)
        m[f"cli.cold.{cmd}_s"] = cold[cmd]
    m["trace.overhead_frac"] = overhead

    rows = {key: (m[key], "", "") for key in PER_LAYER}
    notes = [f"deadline miss: {line}" for line in misses]
    notes += [f"known hang finished: {line}" for line in finished]
    notes.append("work counters: " + json.dumps({k: counters[k] for k in sorted(counters)}))
    failed = sum(1 for r in records if r[3])
    return rows, PER_LAYER, len(records), failed, failures, notes


# ------------------------------------------------------------- output


def machine_line():
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    return f"machine: {os.cpu_count()} cpus, python {sys.version.split()[0]}, " + ", ".join(versions)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gapflow" / "__init__.py").is_file():
        print(f"run.py: no gapflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM unwind through the finally blocks, which stop any child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        rows, units, attempted, failed, failures, notes = (traced if args.trace else untraced)(
            args.workload, args.seed, args.seconds, scratch
        )
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mode = "traced, per layer" if args.trace else "end to end"
    print(f"gapflow benchmark: {args.workload}, seed {args.seed}, {mode}")
    print(machine_line())
    print("threads: " + " ".join(f"{k}={v}" for k, v in SETTINGS["thread_env"].items()))
    print(f"{'metric':40s} {'value':>16s} {'unit':8s} {'samples':>7s}  note")
    for key, (value, samples, note) in rows.items():
        print(f"{key:40s} {value:16.6g} {units[key]:8s} {samples!s:>7s}  {note}")
    for note in notes:
        print(note)
    print(f"operations: {attempted} attempted, {failed} failed")
    for label, error in failures:
        print(f"FAILED {label}: {error}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, (value, _, _) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
