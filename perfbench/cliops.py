"""The subprocess workloads, cli-cold and deep-gap: fresh `gapflow` runs.

Each operation is one command in a fresh interpreter, so import, empty
caches, config parsing and report writing all count.  One child runs at a
time, under the workload's deadline.
"""

import csv
import json
import shutil
import sys

from common import (
    CLI_COMMANDS,
    DEADLINE_S,
    REFERENCE_S,
    ROOT,
    BenchError,
    child_env,
    cli_round,
    deep_argv,
    deep_key,
    deep_round,
    rel_close,
)
from procs import run_child, stderr_tail


# a fresh interpreter importing numpy, the first thing every gapflow
# process does; it runs no gapflow code
CALIBRATION = "import numpy"
CALIBRATION_DEADLINE_S = 60.0


def calibrate_cold(env, stderr):
    """Seconds of a fresh interpreter that imports numpy and exits."""
    res = run_child([sys.executable, "-c", CALIBRATION], CALIBRATION_DEADLINE_S, env, ROOT, stderr)
    if not res.ok:
        raise BenchError(f"calibration child failed: {res} {stderr_tail(stderr)}")
    return res.wall_s


class _Commands:
    """Shared runner: one `python -m gapflow.cli` child per operation."""

    reference_s = REFERENCE_S["subprocess"]

    def __init__(self, seed, scratch):
        self.seed = seed
        self.out = scratch / self.name
        self.stderr = scratch / f"{self.name}.stderr"
        self.deadline = DEADLINE_S[self.name]
        self.env = child_env()

    def setup(self):
        pass

    def calibrate(self):
        return calibrate_cold(self.env, self.stderr)

    def run(self, op):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argv = [sys.executable, "-m", "gapflow.cli", *self.argv(op), "--out", str(self.out)]
        return run_child(argv, self.deadline, self.env, ROOT, self.stderr)

    def check(self, op, res):
        if res.timed_out:
            return f"missed the {self.deadline} s deadline; killed"
        if res.orphans:
            return "left a process behind"
        if res.returncode != 0:
            return f"exit code {res.returncode}: {stderr_tail(self.stderr)}"
        try:
            return self.check_outputs(op)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc}"

    def final_check(self, done):
        return {}

    def report(self, name):
        with open(self.out / name, encoding="utf-8") as f:
            report = json.load(f)
        if report.get("passed") is not True:
            failed = [row["name"] for row in report["checks"] if not row["passed"]]
            raise ValueError(f"{name} says passed = false: {failed}")
        return report


class CliCold(_Commands):
    name = "cli-cold"

    def round(self, k):
        return cli_round(self.seed, k)

    def argv(self, op):
        return CLI_COMMANDS[op]

    def check_outputs(self, op):
        if op == "verify_all":
            self.report("verify_all.json")
        elif op.startswith("drag_scan"):
            rows = self.report("drag_scan.json")["rows"]
            if len(rows) != 5:
                return f"drag scan wrote {len(rows)} rows, not 5"
        else:
            with open(self.out / "fall_scan.csv", encoding="utf-8") as f:
                outcomes = [row["outcome"] for row in csv.DictReader(f)]
            if outcomes != ["NoContact"] * 3:
                return f"mixed fall scan outcomes {outcomes}"
        return None


class DeepGap(_Commands):
    """`drag scan` at one gap below the validated sweep."""

    name = "deep-gap"

    def __init__(self, seed, scratch, reference):
        super().__init__(seed, scratch)
        # deep_key -> {"E_total": ..., "n": ...} pinned from a finished run
        self.reference = reference

    def round(self, k):
        return deep_round(self.seed, k)

    def argv(self, op):
        return deep_argv(op)

    def check_outputs(self, op):
        rows = self.report("drag_scan.json")["rows"]
        ref = self.reference[deep_key(op)]
        if len(rows) != 1 or not all(rel_close(rows[0][k], ref[k]) for k in ref):
            return f"rows {rows} differ from the pinned {ref}"
        return None
