"""Paths, settings and the seeded inputs of the four workloads.

Nothing here imports gapflow, so the harness can pin thread counts and
time the program's import from outside.

Inputs come in rounds.  A round holds a workload's fixed mix of inputs,
drawn and ordered from the seed and the round's number; a run repeats
whole rounds until its time is up, so runs on different seeds measure the
same mix.
"""

import json
import os
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINNED = BENCH / "pinned.json"
SETTINGS = json.loads((BENCH / "environment.json").read_text())
DEFAULT_SEED = SETTINGS["default_seed"]
DEADLINE_S = SETTINGS["deadline_s"]
REFERENCE_S = SETTINGS["reference_s"]

# gapflow.cli's default quadrature tolerances
REL_TOL = 1e-8
ABS_TOL = 1e-12
# relative tolerance on every drag value the benchmark checks: ten times
# the requested quadrature tolerance
OUTPUT_RTOL = 1e-7
# relative tolerance on the fall values the benchmark checks: t_star,
# impact speed and min h move by up to 1e-7 between gapflow's default ODE
# tolerance (1e-9) and one ten times tighter
FALL_RTOL = 1e-6
# a Touchdown row's min h is the gap at which the touchdown event fired,
# located only to a few parts in 1e4
TOUCHDOWN_RTOL = 1e-3

WORKLOADS = ("drag-sweep", "fall-scan", "cli-cold", "deep-gap")


class BenchError(RuntimeError):
    """The benchmark could not run, as opposed to an operation failing."""

# ------------------------------------------------------------ drag-sweep
# Four regimes, well under the eight entries of exterior_constant's cache.
# Gaps sit on a grid of 32 levels per decade over [1e-6, 1e-2]; each round
# gives every regime one level from each quarter of the grid.
LEVELS_PER_DECADE = 32
TOP_LEVEL = 4 * LEVELS_PER_DECADE
STRATA = 4


def level_h(level):
    return 10.0 ** (-2.0 - level / LEVELS_PER_DECADE)


def _log_uniform(rng, lo, hi):
    """A log-uniform value in [lo, hi], rounded to four digits."""
    return float(f"{lo * (hi / lo) ** rng.random():.4g}")


def drag_regimes(seed):
    """(kind, beta_S, beta_Omega) for two slip and two mixed regimes."""
    rng = random.Random(f"drag-sweep regimes {seed}")
    slip = [("slip", _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0)) for _ in range(2)]
    mixed = [("mixed", 0.0, _log_uniform(rng, 0.5, 2.0)) for _ in range(2)]
    return slip + mixed


def drag_round(seed, k):
    """16 drag rows: ((kind, beta_S, beta_Omega), level)."""
    rng = random.Random(f"drag-sweep {seed} {k}")
    width = TOP_LEVEL // STRATA
    ops = [
        (regime, rng.randrange(width * q, width * (q + 1) + (q == STRATA - 1)))
        for regime in drag_regimes(seed)
        for q in range(STRATA)
    ]
    rng.shuffle(ops)
    return ops


def drag_key(op):
    (kind, beta_S, beta_Omega), level = op
    return f"{kind}:{beta_S!r}:{beta_Omega!r}:{level}"


# ------------------------------------------------------------- fall-scan
# The cells follow the program's own `fall scan` grid (RunConfig: kappa_list
# 0.5, 1, 2 with G_list 1 and h0_list 0.25), so kappa and G / kappa span
# [0.5, 2] and h0 lies around 0.25.  Mixed cells at t_max 50 are the ROADMAP
# aim-1 command and most of a round; slip falls are cheap (RK45 to
# touchdown); one mixed cell in ten runs on to the ln h = -700 floor, which
# t_max 1e4 reaches over the whole range.  A round is long enough that a
# run of 16 s holds two whole rounds however the host's speed drifts, so
# the tail's percentile stays put.
FLOOR_T_MAX = 1e4
FALL_MIX = 6 * [("slip", 50.0)] + 12 * [("mixed", 50.0)] + 2 * [("mixed", FLOOR_T_MAX)]
FALL_RANGE = 0.5, 2.0  # kappa and G / kappa
FALL_H0 = 0.2, 0.3


def fall_round(seed, k):
    """20 touchdown_scan cells: (kind, t_max, kappa, G, h0).

    The cost of a fall grows with G / kappa, so within each kind the cells
    take G / kappa from equal slices of FALL_RANGE in log scale and h0 from
    equal slices of FALL_H0, paired at random: every round holds the same
    spread of costs.
    """
    rng = random.Random(f"fall-scan {seed} {k}")
    lo, hi = FALL_RANGE
    ops = []
    for mix in dict.fromkeys(FALL_MIX):
        cells = FALL_MIX.count(mix)
        slices = rng.sample(range(cells), cells)
        for j, i in enumerate(slices):
            kappa = _log_uniform(rng, lo, hi)
            ratio = lo * (hi / lo) ** ((j + rng.random()) / cells)
            h0 = FALL_H0[0] + (FALL_H0[1] - FALL_H0[0]) * (i + rng.random()) / cells
            ops.append((*mix, kappa, float(f"{kappa * ratio:.4g}"), round(h0, 4)))
    rng.shuffle(ops)
    return ops


def fall_key(op):
    kind, *numbers = op
    return ":".join([kind, *map(repr, numbers)])


# -------------------------------------------------------------- cli-cold
CLI_COMMANDS = {
    "verify_all": ("verify", "all"),
    "drag_scan_slip": ("drag", "scan"),
    "drag_scan_mixed": ("drag", "scan", "--regime", "mixed"),
    "fall_scan_mixed": ("fall", "scan", "--regime", "mixed", "--t-max", "50"),
}


def cli_round(seed, k):
    """The four commands in a seeded order."""
    rng = random.Random(f"cli-cold {seed} {k}")
    names = list(CLI_COMMANDS)
    rng.shuffle(names)
    return names


# -------------------------------------------------------------- deep-gap
# `drag scan` inputs (regime, h, rel_tol) below the validated sweep.  The
# DEEP_SLIP and DEEP_MIXED inputs finish in about a second as a fresh
# `drag scan`; the DEEP_HANGS inputs ran past 30 s.  Operations may not
# fail by design, so the hanging inputs are tried only by the traced run,
# each killed at the deadline.
DEEP_SLIP = (
    ("slip", 5e-8, 1e-8),
    ("slip", 1e-7, 1e-8),
    ("slip", 2e-7, 1e-8),
    ("slip", 1e-6, 1e-10),
    ("slip", 2e-6, 1e-10),
)
DEEP_MIXED = (
    ("mixed", 2e-7, 1e-8),
    ("mixed", 3e-7, 1e-8),
    ("mixed", 5e-7, 1e-8),
    ("mixed", 1e-6, 1e-9),
)
DEEP_HANGS = (
    ("slip", 1e-8, 1e-8),
    ("mixed", 1e-7, 1e-8),
    ("mixed", 1e-6, 1e-10),
)


def deep_round(seed, k):
    """Every finishing input once, in a seeded order."""
    rng = random.Random(f"deep-gap {seed} {k}")
    ops = list(DEEP_SLIP + DEEP_MIXED)
    rng.shuffle(ops)
    return ops


def deep_key(op):
    kind, h, rel_tol = op
    return f"{kind}:{h!r}:{rel_tol!r}"


def deep_argv(op):
    kind, h, rel_tol = op
    return ("drag", "scan", "--regime", kind, "--h-list", repr(h), "--rel-tol", repr(rel_tol))


# ------------------------------------------------------------- processes


def child_env():
    """The benchmark's environment for children: gapflow from src/."""
    env = dict(os.environ)
    env.update(SETTINGS["thread_env"])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def load_pinned():
    with open(PINNED, encoding="utf-8") as f:
        return json.load(f)


def rel_close(a, b, rtol=OUTPUT_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b))
