"""Command-line front end: checks, scans, and fall runs as disk artifacts.

Subcommands
-----------
profile check      boundary-constraint identities of the cubic profile
field verify       divergence, flux, and boundary residuals of the gap field
drag scan          gap sweep of energy and traction drag -> CSV + report
drag fit           scaling-law fits (log vs inverse) with ratio checks
integral classify  small-gap behavior of the model singular integral
fall simulate      reduced contact ODE -> trajectory CSV + event JSON
fall scan          outcome grid over (kappa, G, h0) -> CSV
verify all         fast battery over the profile/field/integral checks

Configuration is a flat key set (see RunConfig): values come from an
optional JSON file passed with --config, overridden by the key's flag:
--key lower-cased with "-" for "_" (out_dir is --out).  validate types
each value by its key's annotation, whichever source gave it: a float
key takes an int or a float, not a bool, and finite, and holds it as a
float; a tuple key a nonempty list of such numbers, or a comma-separated
string of them; an int key an int, not a bool; a bool key a bool; a str
key one of its CHOICES (out_dir any string).  Any other value exits 2
with a message naming the key, before the range checks run; so does a
JSON integer with more digits than int() reads (Python's limit,
sys.get_int_max_str_digits()), under any key.  Every JSON
report embeds a config echo that reproduces the run when fed back
through --config, and every check row carries the analysis anchor label
it validates (the "anchor" field), so reports are traceable row by row.

Reports are deterministic: no timestamps unless --stamp is given, keys
are sorted, and every computation runs serially in a fixed order, so a
given config produces bit-identical artifacts.
Artifacts are written atomically (temp file in the target directory,
then rename).  The output directory is --out if given, else the
GAPFLOW_OUTPUT_DIR environment variable, else the working directory; one
that cannot be made is a config error that names its source.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
configuration, 3 numerical failure.

A command loads only the layers it runs: this module imports the standard
library and the numpy-free `gapflow.model`, and each command imports its
own layers when it runs, so the fall commands start without numpy.
A process runs its command with the collector's generation-0 threshold
raised to GC_THRESHOLD, and ends with gc.freeze() after the command
returns: every object left, most of them numpy's, is garbage it never
reuses, and the frozen ones are skipped by the collections the
interpreter runs at shutdown.  An in-process `run` leaves the collector
as it finds it.
"""

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
import tempfile
from array import array
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .model import (
    ATOL_DEFAULT,
    DEFAULT_H_LIST,
    DELTA_DEFAULT,
    H_MAX_DEFAULT,
    RTOL_DEFAULT,
    TOUCHDOWN_H,
    FallParameters,
    QuadratureError,
    QuadratureSpec,
    RegimeKind,
    ScalingModel,
    SlipRegime,
    StiffnessError,
)

SCHEMA = "gapflow.report/1"
ENV_OUT_DIR = "GAPFLOW_OUTPUT_DIR"

# Check thresholds.  The identity checks run at solver precision; the
# envelope and scaling windows mirror the uniformity claims they test.
PROFILE_TOL = 1e-12
LIMIT_TOL = 1e-12
DIV_TOL = 1e-12
DIV_FD_TOL = 1e-6
FLUX_TOL = 1e-9
BC_TOL = 1e-8
SLIP_L2_BOUND = 10.0
ENVELOPE_FACTOR = 10.0
ENVELOPE_SWEEP = (1e-2, 1e-4, 1e-6)
RATIO_WINDOW = 1.5
AGREEMENT_WINDOW = 0.3
ORACLE_RTOL = 1e-8

# step for the cross-check divergence stencil, relative to the local
# gap height; 4th-order central differences balance truncation against
# roundoff near this value for gaps down to 1e-6
FD_SCALE = 2e-3
FD_POINTS = 50
FLUX_RADII = (0.05, 0.1, 0.15, 0.19)
# random draws of profile check and field verify: 10**6 take 0.55 s and
# 35 MB in profile check, 0.27 s and 40 MB in field verify (wall time and
# peak RSS of the whole command, on a 2-core machine), 4 and 6 MB above
# their default draws; 10**9 would take about ten minutes
MAX_DRAWS = 10**6
# draws that profile check and field verify draw and evaluate at a time,
# so that their memory does not grow with draws: even, so that the two
# draws of a profile coin word share a block, and above the default
# draws, so that a default run is one block
DRAW_BLOCK = 2**14
# generation-0 threshold of the collector in a CLI process: a cold
# verify all or drag scan allocates some 25k container objects, most of
# them numpy's import, and frees few; the default 700 collects them 35
# times in about 4 ms, 10k twice in about 2 ms, with the same peak RSS
# (switching the collector off saves the 2 ms but raised the peak RSS by
# 0.2-0.4 MB, on a 2-core machine)
GC_THRESHOLD = 10_000
# characters of an output directory that an error message echoes
PATH_ECHO = 80


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


class RunConfig(NamedTuple):
    """Flat run configuration; one key set shared by every subcommand.

    ``out_dir`` and ``stamp`` are execution knobs that do not affect
    computed values; they are excluded from the config echo.  A key's
    flag is in FLAGS when it is not --key, and its help in HELP.
    """

    regime: str = "slip"
    beta_S: float = 1.0
    beta_Omega: float = 1.0
    delta: float = DELTA_DEFAULT
    h_max: float = H_MAX_DEFAULT
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    h: float = 1e-4
    h_list: tuple = DEFAULT_H_LIST
    exterior: str = "included"
    draws: int = 10000
    seed: int = 20260814
    rho_S: float = 2.0
    rho_F: float = 1.0
    g: float = 2.0
    kappa: float = 1.0
    h0: float = 0.25
    v0: float = 0.0
    t_max: float = 10.0
    ode_rtol: float = RTOL_DEFAULT
    ode_atol: float = ATOL_DEFAULT
    p: float = 1.0
    q: float = 1.0
    kappa_list: tuple = (0.5, 1.0, 2.0)
    G_list: tuple = (1.0,)
    h0_list: tuple = (0.25,)
    out_dir: str = None
    stamp: bool = False


FLAGS = {"out_dir": "--out"}
HELP = {
    "h_list": "comma-separated gaps",
    "out_dir": "output directory",
    "stamp": "embed a UTC timestamp (breaks bit-identical reruns)",
}
ECHO_EXCLUDE = ("out_dir", "stamp")
# the values a str key takes; out_dir takes any string, or None
CHOICES = {"regime": ("slip", "mixed"), "exterior": ("included", "excluded")}


# ---------------------------------------------------------------- config


# what load_config reads for a JSON integer with more digits than int()
# reads (sys.get_int_max_str_digits()); _typed rejects it under its key
_LONG_INT = object()


def _parse_int(digits):
    try:
        return int(digits)
    except ValueError:
        return _LONG_INT


def load_config(path):
    """Read a flat JSON config file; unknown keys are an error."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f, parse_int=_parse_int)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(RunConfig._fields))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return data


def effective_config(args):
    """Layer defaults, then the config file, then explicit flags."""
    overrides = load_config(args.config) if args.config else {}
    for key in RunConfig._fields:
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    return RunConfig(**overrides)


def _typed(key, kind, value):
    """value as the rule for its annotation kind (module docstring) types
    it, or a ConfigError that names the key."""
    if value is _LONG_INT:
        raise ConfigError(f"{key} must have at most {sys.get_int_max_str_digits()} digits")
    if kind is float:
        if type(value) not in (int, float):  # a bool is an int
            raise ConfigError(f"{key} must be a number")
        if not abs(value) <= sys.float_info.max:  # nan, inf, or an int past it
            raise ConfigError(f"{key} must be finite")
        return float(value)
    if kind is tuple:
        if isinstance(value, str):
            try:
                value = [float(s) for s in value.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"{key} must be comma-separated numbers") from None
        if type(value) not in (list, tuple) or not value:  # a default is a tuple
            raise ConfigError(f"{key} must be a nonempty list of numbers")
        return tuple(_typed(f"{key} entry", float, x) for x in value)
    if key in CHOICES:
        ok, need = value in CHOICES[key], " or ".join(map(repr, CHOICES[key]))
    else:  # out_dir's default is None
        ok = type(value) is kind or (kind is str and value is None)
        need = {int: "an integer", bool: "true or false", str: "a string"}[kind]
    if not ok:
        raise ConfigError(f"{key} must be {need}")
    return value


def _regime(cfg):
    if cfg.regime == "slip":
        return SlipRegime.slip(cfg.beta_S, cfg.beta_Omega)
    return SlipRegime.mixed(cfg.beta_Omega)


def _spec(cfg):
    return QuadratureSpec(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)


def validate(cfg):
    """Type every value by its annotation, then check the ranges, before
    any computation starts; return the typed config."""
    cfg = RunConfig(*map(_typed, cfg._fields, RunConfig.__annotations__.values(), cfg))
    _regime(cfg)
    _spec(cfg)
    FallParameters(rho_S=cfg.rho_S, rho_F=cfg.rho_F, g=cfg.g, kappa=cfg.kappa)
    if not 0.0 < cfg.delta < 0.25:
        raise ConfigError("delta must lie in (0, 1/4)")
    if cfg.h_max <= 0.0:
        raise ConfigError("h_max must be positive")
    if not 0.0 < cfg.h < cfg.h_max:
        raise ConfigError("h must lie in (0, h_max)")
    if any(x <= 0.0 for x in cfg.h_list):
        raise ConfigError("h_list entries must be positive")
    if not 1 <= cfg.draws <= MAX_DRAWS:
        raise ConfigError(f"draws must lie in [1, MAX_DRAWS = {MAX_DRAWS}]")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if not TOUCHDOWN_H < cfg.h0 < cfg.h_max:
        raise ConfigError(f"h0 must lie in ({TOUCHDOWN_H}, h_max)")
    if cfg.t_max <= 0.0:
        raise ConfigError("t_max must be positive")
    if cfg.out_dir is not None and "\0" in cfg.out_dir:  # no path holds one
        raise ConfigError("out_dir must not contain a NUL character")
    if cfg.ode_rtol <= 0.0 or cfg.ode_atol <= 0.0:
        raise ConfigError("ODE tolerances must be positive")
    if cfg.p < 0.0 or cfg.q <= 0.0:
        raise ConfigError("classification needs p >= 0 and q > 0")
    if any(k < 0.0 for k in cfg.kappa_list):
        raise ConfigError("kappa_list entries must be nonnegative")
    if cfg.regime == "mixed" and min(cfg.kappa, *cfg.kappa_list) <= 0.0:
        raise ConfigError("the mixed regime needs kappa and kappa_list entries > 0")
    if any(G <= 0.0 for G in cfg.G_list):
        raise ConfigError("G_list entries must be positive")
    if any(not TOUCHDOWN_H < x < cfg.h_max for x in cfg.h0_list):
        raise ConfigError(f"h0_list entries must lie in ({TOUCHDOWN_H}, h_max)")
    return cfg


# ---------------------------------------------------------------- reports


def check_row(name, anchor, measured, threshold, passed=None):
    """One report row; default pass criterion is measured <= threshold.
    A measurement that is not finite is a numerical failure (ValueError)
    that names the row."""
    if not math.isfinite(measured):
        raise ValueError(f"check {name} measured {float(measured)!r}")
    if passed is None:
        passed = bool(measured <= threshold)
    return {
        "name": name,
        "anchor": anchor,
        "measured": float(measured),
        "threshold": float(threshold),
        "passed": bool(passed),
    }


def _worst(*values):
    """The largest of values, NaN if one is NaN: the builtin max keeps
    its first argument against a NaN, and so can drop a NaN measurement."""
    return math.nan if any(x != x for x in values) else max(values)


def _echo(cfg):
    echo = cfg._asdict()
    for key in ECHO_EXCLUDE:
        echo.pop(key)
    return echo


def envelope(cfg, command, checks, extra):
    timestamp = None
    if cfg.stamp:  # only a stamped run loads datetime
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat()
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": _echo(cfg),
        "timestamp": timestamp,
        "checks": checks,
        "passed": all(row["passed"] for row in checks),
    }
    report.update(extra)
    return report


def _write_atomic(path, text):
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        # mkstemp makes the file 0600, and os.replace keeps the mode: give
        # it the mode open() gives a new file
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, report):
    # standard JSON only: a NaN or infinity raises ValueError (exit 3)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(Path(path), text + "\n")


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # repr of a builtin float is the shortest round-trip form with a
        # '.' decimal; numpy scalars are unwrapped first
        writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    _write_atomic(Path(path), buf.getvalue())


def _out_dir(cfg):
    """The report directory, made if missing; a ConfigError that names the
    path's source (out_dir or the environment variable), echoes the path
    cut to PATH_ECHO characters and gives the OS reason when it cannot be
    made."""
    key, base = "out_dir", cfg.out_dir
    if not base:
        key, base = ENV_OUT_DIR, os.environ.get(ENV_OUT_DIR) or "."
    path = Path(base)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        shown = base if len(base) <= PATH_ECHO else base[: PATH_ECHO - 3] + "..."
        raise ConfigError(f"{key} {shown!r} cannot be made a directory: {exc.strerror}") from None
    return path


# -------------------------------------------------------- check sections


def _uniform(lo, hi, words):
    """What numpy's Generator.uniform(lo, hi) makes of the PCG64 outputs
    words: the top 53 bits of each as a double in [0, 1), scaled."""
    return lo + (hi - lo) * ((words >> 11) * 2.0**-53)


def _profile_draws(seed, draws):
    """Yield the draws in blocks of at most DRAW_BLOCK, each a (5, n)
    array of rows (mixed, h, r, beta_S, beta_Omega), bit for bit as a
    per-draw loop of numpy Generator calls on default_rng(seed) makes
    them: a coin rng.integers(2), then rng.uniform for log10 h, r,
    log10 beta_S (slip draws only) and log10 beta_Omega.  They are read
    off PCG64's raw outputs (`gapflow.pcg64`), block by block
    (`_profile_block`); the outputs a block does not read carry over to
    the next.
    """
    import numpy as np

    from .pcg64 import PCG64

    bit_generator = PCG64(seed)
    words = np.empty(0, dtype=np.uint64)
    for start in range(0, draws, DRAW_BLOCK):
        n = min(DRAW_BLOCK, draws - start)
        # a pair of draws reads at most 9 outputs
        more = max(0, 9 * ((n + 1) // 2) - words.size)
        words = np.concatenate((words, bit_generator.random_raw(more)))
        block, used = _profile_block(words, n)
        words = words[used:].copy()  # not a view that keeps the block's words
        yield block


def _profile_block(words, n):
    """The (5, n) draws that PCG64's outputs words begin with, and how
    many of the words they read:

    - a coin is bit 31 of a 32-bit draw: the low half of a fresh output,
      whose high half PCG64 keeps for the next coin.  So a pair of draws
      reads one coin word, bit 31 for the first and bit 63 for the
      second, then 3 words for each mixed draw and 4 for each slip draw;
    - the coins decide where the next coin word lies, so Python steps
      from one coin word to the next, and numpy gathers the other words;
    - a double is `_uniform` of its word;
    - 10.0 ** x stays Python's scalar pow, whose bits numpy's array power
      does not always give.
    """
    import numpy as np

    # bits 31 and 63 of each word, the top bits of its bytes 3 and 7
    coins = words.astype("<u8", copy=False).view(np.uint8)[3::4] >> 7
    step = (9 - coins[0::2] - coins[1::2]).tobytes()
    at, pos = array("q"), 0  # the coin words: C longs, not int objects
    for _ in range((n + 1) // 2):
        at.append(pos)
        pos += step[pos]
    at = np.frombuffer(at, dtype=np.int64)
    mixed = coins.reshape(-1, 2)[at].ravel()[:n]
    del coins, step  # freed before the block is drawn
    slip = mixed == 0
    # each draw's h word, followed by r, beta_S if slip, and beta_Omega
    h_at = np.column_stack((at + 1, at + 5 - mixed[0::2])).ravel()[:n]

    def pow10(x):
        return np.fromiter(map((10.0).__pow__, memoryview(x)), float, x.size)

    block = np.zeros((5, n))
    block[0] = mixed
    block[1] = pow10(_uniform(-6.0, math.log10(0.45), words[h_at]))
    block[2] = _uniform(0.0, 0.9, words[h_at + 1])
    block[3, slip] = pow10(_uniform(-3.0, 3.0, words[h_at[slip] + 2]))
    block[4] = pow10(_uniform(-3.0, 3.0, words[h_at + 2 + slip]))
    return block, pos


def _profile_rows(cfg):
    """Constraint identities of the cubic profile over random draws.

    Draws mix both regimes and log-uniform slip lengths; the residuals
    are the constraint equations themselves, normalized by 1 + alpha so
    large slip coefficients do not inflate the scale.  The draws come from
    `_profile_draws`, block by block; each block's profile is evaluated
    once per regime kind, and the maxima are taken over the blocks.
    """
    import numpy as np

    from .profile import _coefficients

    sphere_value = wall_navier = sphere_cond = 0.0
    for is_mixed, h, r, beta_S, beta_Omega in _profile_draws(cfg.seed, cfg.draws):
        for kind in (RegimeKind.SLIP, RegimeKind.MIXED):
            m = is_mixed == (kind is RegimeKind.MIXED)
            if not m.any():
                continue
            c = _coefficients(kind, beta_S[m], beta_Omega[m], h[m], r[m])
            slope_sum = c.p1 + 2.0 * c.p2 + 3.0 * c.p3
            if kind is RegimeKind.MIXED:
                res = np.abs(slope_sum)
            else:
                res = np.abs(2.0 * c.p2 + 6.0 * c.p3 + c.alpha_S * slope_sum) / (
                    1.0 + c.alpha_S
                )
            sphere_value = _worst(sphere_value, np.max(np.abs(c.p1 + c.p2 + c.p3 - 1.0)))
            wall_navier = _worst(
                wall_navier,
                np.max(np.abs(2.0 * c.p2 - c.alpha_P * c.p1) / (1.0 + c.alpha_P)),
            )
            sphere_cond = _worst(sphere_cond, np.max(res))
    return [
        # the cubic carries no constant term, so the wall value is exact
        # by representation; the row records that the identity is covered
        check_row("wall_value", "Φ(r,0)=0", 0.0, PROFILE_TOL),
        check_row("sphere_value", "Φ(r,1)=1", sphere_value, PROFILE_TOL),
        check_row("wall_navier", "(bdy1)", wall_navier, PROFILE_TOL),
        check_row("sphere_condition", "(test_s)", sphere_cond, PROFILE_TOL),
    ]


def _limit_rows():
    """Free slip (1, 0, 0), N_i(0) / Delta(0) of the slip family, and the
    no-slip cubic (0, 3, -2), the leading-coefficient ratios of the mixed
    family (0 for N1, of lower degree), read off profile._family at unit
    slip lengths: the limits do not depend on them, and there the ratios
    are exact."""
    from .profile import _family

    delta, *nums = _family(RegimeKind.SLIP, 1.0, 1.0)
    lin = [n[0] / delta[0] for n in nums]
    delta, *nums = _family(RegimeKind.MIXED, 1.0, 1.0)
    mix = [n[-1] / delta[-1] if n.size == delta.size else 0.0 for n in nums]
    res_lin = _worst(abs(lin[0] - 1.0), abs(lin[1]), abs(lin[2]))
    res_mix = _worst(abs(mix[0]), abs(mix[1] - 3.0), abs(mix[2] + 2.0))
    return [
        check_row("limit_slip_linear", "(def_Phideb)", res_lin, LIMIT_TOL),
        check_row("limit_mixed_cubic", "(def_Phideb)", res_mix, LIMIT_TOL),
    ]


def _field_rows(cfg):
    """Divergence, flux, and boundary residuals of the gap field at cfg.h;
    the random points are drawn and evaluated DRAW_BLOCK at a time."""
    import numpy as np

    from .field import aperture_frame, navier_residuals, sphere_slip_l2
    from .geometry import gamma_s
    from .pcg64 import PCG64

    regime, h = _regime(cfg), cfg.h
    # the points' r and z/H, block by block, are the bits of two
    # rng.uniform(size=draws) calls on default_rng(seed + 1): z/H comes
    # from a second stream on the seed, advanced past the draws of r,
    # which then also gives the FD and Navier draws
    r_stream = PCG64(cfg.seed + 1)
    stream = PCG64(cfg.seed + 1).advance(cfg.draws)
    div_max = 0.0
    for start in range(0, cfg.draws, DRAW_BLOCK):
        n = min(DRAW_BLOCK, cfg.draws - start)
        r = _uniform(0.0, 0.9, r_stream.random_raw(n))
        z = _uniform(0.0, 1.0, stream.random_raw(n)) * (h + gamma_s(r))
        frame = aperture_frame(regime, h, r, z)
        # gradient entries grow like 1/h near the axis, so the exactness of
        # the cancellation is measured relative to the local term scale
        term_scale = (
            np.abs(frame.du_r_dr) + np.abs(frame.u_r_by_r) + np.abs(frame.du_z_dz)
        )
        div_max = _worst(div_max, float(np.max(np.abs(frame.div) / term_scale)))

    # FD_POINTS (r, z/H) pairs, each r drawn just before its z/H
    words = stream.random_raw(2 * FD_POINTS).reshape(FD_POINTS, 2)
    rr, z_frac = _uniform(np.array([0.05, 0.3]), np.array([0.5, 0.7]), words).T
    H = h + gamma_s(rr)
    zz = z_frac * H
    e = FD_SCALE * H
    steps = np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * e
    u_r = aperture_frame(regime, h, rr + steps, zz).u_r
    u_z = aperture_frame(regime, h, rr, zz + steps).u_z
    dur_dr = (u_r[0] - 8 * u_r[1] + 8 * u_r[2] - u_r[3]) / (12 * e)
    duz_dz = (u_z[0] - 8 * u_z[1] + 8 * u_z[2] - u_z[3]) / (12 * e)
    centre = aperture_frame(regime, h, rr, zz).u_r
    fd_worst = float(np.max(np.abs(dur_dr + centre / rr + duz_dz)))

    # column flux int_0^H u_r dz = -r/2; Gauss-Legendre resolves the cubic
    x, w = np.polynomial.legendre.leggauss(24)
    flux_worst = 0.0
    for rr in FLUX_RADII:
        H = h + gamma_s(rr)
        zz = 0.5 * H * (x + 1.0)
        u_r = aperture_frame(regime, h, np.full_like(zz, rr), zz).u_r
        flux = 0.5 * H * float(np.sum(w * u_r))
        flux_worst = _worst(flux_worst, abs(flux + rr / 2.0))

    res = navier_residuals(regime, h, _uniform(0.0, 0.9, stream.random_raw(256)))
    slip_l2 = sphere_slip_l2(regime, h, cfg.delta, _spec(cfg))

    return [
        check_row("divergence_analytic", "(tildephih)", div_max, DIV_TOL),
        check_row("divergence_fd", "(tildephih)", fd_worst, DIV_FD_TOL),
        check_row("flux_identity", "(tildephih)", flux_worst, FLUX_TOL),
        check_row(
            "wall_impermeability",
            "φ_h·n = 0 on ∂Ω",
            float(np.max(np.abs(res.wall_impermeability))),
            BC_TOL,
        ),
        check_row(
            "wall_navier",
            "(bdy1)",
            float(np.max(np.abs(res.wall_tangential))),
            BC_TOL,
        ),
        check_row(
            "sphere_normal",
            "n·φ̃_h = √(1−r²)",
            float(np.max(np.abs(res.sphere_normal))),
            BC_TOL,
        ),
        check_row("sphere_tangential_l2", "(est:bdy)", slip_l2, SLIP_L2_BOUND),
    ]


def _envelope_rows(cfg):
    """Uniformity of the weighted derivative sups across a small h sweep."""
    from .profile import weighted_sups

    regime = _regime(cfg)
    sups = [weighted_sups(regime, h, delta=cfg.delta) for h in ENVELOPE_SWEEP]
    ratio = 0.0
    for label in sups[0]:
        values = [s[label] for s in sups]
        ratio = _worst(ratio, _worst(*values) / min(values))
    anchor = "prop_Psi" if regime.kind is RegimeKind.SLIP else "prop_Psi_mix"
    return [check_row("envelope_uniformity", anchor, ratio, ENVELOPE_FACTOR)]


def _oracle_row(case, delta):
    """Worst relative error of the logarithmic case against its closed form."""
    from .quadrature import log_case_oracle

    rel = 0.0
    for hh, value in case.values:
        oracle = log_case_oracle(hh, delta)
        if oracle == 0.0:
            raise ValueError(f"the log-case oracle is 0 at h = {hh!r}, delta = {delta!r}")
        rel = _worst(rel, abs(value - oracle) / oracle)
    return check_row("log_case_oracle", "lem:int", rel, ORACLE_RTOL)


def _integral_rows(cfg):
    """The logarithmic showcase case against its closed form."""
    from .quadrature import FIT_R2_FLOOR, classify_singular

    case = classify_singular(1.0, 1.0, cfg.delta, spec=_spec(cfg))
    return [
        _oracle_row(case, cfg.delta),
        check_row(
            "log_case_classified",
            "lem:int",
            case.selected.r_squared,
            FIT_R2_FLOOR,
            passed=case.selected.r_squared >= FIT_R2_FLOOR,
        ),
    ]


# ------------------------------------------------------------- commands


def _numpy_quiet(command):
    """The command run under np.errstate(all="ignore"): a non-finite value
    ends in the check row or the one-line failure that names it, with no
    RuntimeWarning ahead of it on stderr.  The fall commands, which load
    no numpy, do not take it."""

    def quiet(cfg, out):
        import numpy as np

        with np.errstate(all="ignore"):
            return command(cfg, out)

    return quiet


@_numpy_quiet
def cmd_profile_check(cfg, out):
    return _profile_rows(cfg) + _limit_rows(), {}


@_numpy_quiet
def cmd_field_verify(cfg, out):
    return _field_rows(cfg), {}


def _curve(cfg):
    from .drag import drag_curve

    return drag_curve(
        _regime(cfg),
        cfg.h_list,
        r_max=cfg.delta,
        spec=_spec(cfg),
        exterior=cfg.exterior,
    )


def _scaling_anchors(kind):
    if kind is RegimeKind.SLIP:
        return "c|ln(h)| ≤ D(h) ≤ C|ln(h)|", "c|ln(h)| ≤ D(h) ≤ C|ln(h)|"
    return "est_m:1", "n(h) ≥ C/h"


@_numpy_quiet
def cmd_drag_scan(cfg, out):
    import numpy as np

    curve = _curve(cfg)
    header = ("h", "E_total", "E_grad", "E_sphere", "E_wall", "n")
    rows = [
        (r.h, r.energy, r.gradient_part, r.sphere_part, r.wall_part, r.surface)
        for r in curve.rows
    ]
    write_csv(out / "drag_scan.csv", header, rows)
    energies = curve.column("energy")
    # rows are ordered by decreasing h, so drag must increase row by row
    increments = np.diff(energies)
    energy_anchor, surface_anchor = _scaling_anchors(curve.regime.kind)
    agreement = float(np.max(np.abs(curve.column("surface") / energies - 1.0)))
    checks = [
        check_row(
            "drag_monotone_blowup",
            energy_anchor,
            float(np.min(increments)) if len(increments) else 0.0,
            0.0,
            passed=bool(np.all(increments > 0.0)) or len(increments) == 0,
        ),
        check_row("surface_energy_agreement", "(n(h))", agreement, AGREEMENT_WINDOW),
    ]
    extra = {
        "provenance": dict(curve.provenance),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return checks, extra


def _fit_json(fits):
    """The report block of named ModelFits."""
    return {
        name: {"a": f.a, "b": f.b, "r_squared": f.r_squared}
        for name, f in sorted(fits.items())
    }


@_numpy_quiet
def cmd_drag_fit(cfg, out):
    import numpy as np

    from .drag import fit_scaling
    from .quadrature import FIT_R2_FLOOR

    if len(set(cfg.h_list)) < 4:
        raise ConfigError("drag fit needs at least 4 distinct gaps in h_list")
    curve = _curve(cfg)
    kind = curve.regime.kind
    expected = ScalingModel.of(kind)
    (other,) = set(ScalingModel) - {expected}
    regressor = expected.regressor(curve.column("h"))

    def window(quantity):
        scaled = curve.column(quantity) / regressor
        return float(np.max(scaled) / np.min(scaled))

    fits = {
        quantity: {
            model.value: fit_scaling(curve, model, quantity) for model in ScalingModel
        }
        for quantity in ("energy", "surface")
    }
    r2 = fits["energy"][expected.value].r_squared
    r2_other = fits["energy"][other.value].r_squared

    energy_anchor, surface_anchor = _scaling_anchors(kind)
    checks = [
        check_row("energy_ratio_window", energy_anchor, window("energy"), RATIO_WINDOW),
        check_row(
            "surface_ratio_window", surface_anchor, window("surface"), RATIO_WINDOW
        ),
        check_row(
            f"{expected.value}_fit_r2", energy_anchor, r2, FIT_R2_FLOOR, passed=r2 >= FIT_R2_FLOOR
        ),
        check_row(
            "model_discrimination",
            energy_anchor,
            r2 - r2_other,
            0.0,
            passed=r2 > r2_other,
        ),
    ]
    extra = {
        "fits": {quantity: _fit_json(by_model) for quantity, by_model in fits.items()},
        "selected_model": expected.value,
        "kappa_calibrated": fits["energy"][expected.value].a,
        "provenance": dict(curve.provenance),
    }
    return checks, extra


@_numpy_quiet
def cmd_integral_classify(cfg, out):
    from .quadrature import CLASSIFY_H_MIN, FIT_R2_FLOOR, classify_singular

    if min(cfg.h_list) < CLASSIFY_H_MIN:
        raise ConfigError(f"h_list entries must be >= {CLASSIFY_H_MIN:g} for classification")
    case = classify_singular(cfg.p, cfg.q, cfg.delta, cfg.h_list, spec=_spec(cfg))
    checks = [
        check_row(
            "selected_fit_r2",
            "lem:int",
            case.selected.r_squared,
            FIT_R2_FLOOR,
            passed=case.selected.r_squared >= FIT_R2_FLOOR,
        )
    ]
    if (cfg.p, cfg.q) == (1.0, 1.0):
        checks.append(_oracle_row(case, cfg.delta))
    extra = {
        "case": {
            "p": case.p,
            "q": case.q,
            "delta": case.delta,
            "classification": case.classification.value,
            "exponent": case.exponent,
            "values": [[hh, value] for hh, value in case.values],
            "fits": _fit_json(case.fits),
            "selected": case.selected.name,
        }
    }
    return checks, extra


def cmd_fall_simulate(cfg, out):
    from .dynamics import simulate

    params = FallParameters(rho_S=cfg.rho_S, rho_F=cfg.rho_F, g=cfg.g, kappa=cfg.kappa)
    regime = _regime(cfg)
    traj = simulate(
        params,
        regime,
        cfg.h0,
        v0=cfg.v0,
        t_max=cfg.t_max,
        rtol=cfg.ode_rtol,
        atol=cfg.ode_atol,
        h_max=cfg.h_max,
    )
    write_csv(
        out / "fall_simulate_trajectory.csv",
        ("t", "h", "h_prime"),
        zip(traj.times, traj.gaps, traj.speeds),
    )
    ev = traj.event
    anchor = "thm_slip" if regime.kind is RegimeKind.SLIP else "thm_mixed"
    checks = [
        # reporting row: the terminal time can never exceed the horizon
        check_row("terminal_event", anchor, ev.t, cfg.t_max)
    ]
    extra = {
        "event": {
            "kind": ev.kind,
            "t": ev.t,
            "h": ev.h,
            "speed": ev.speed,
            "note": ev.note,
        },
        "effective_gravity": params.G,
        "samples": len(traj),
    }
    return checks, extra


def cmd_fall_scan(cfg, out):
    from .dynamics import touchdown_scan

    rows = touchdown_scan(
        _regime(cfg),
        cfg.kappa_list,
        cfg.G_list,
        cfg.h0_list,
        t_max=cfg.t_max,
        rtol=cfg.ode_rtol,
        atol=cfg.ode_atol,
        h_max=cfg.h_max,
    )
    write_csv(
        out / "fall_scan.csv",
        ("kappa", "G", "h0", "outcome", "t_star", "impact_speed", "min_h", "error"),
        [
            (r.kappa, r.G, r.h0, r.outcome, r.t_star, r.impact_speed, r.min_h, r.error)
            for r in rows
        ],
    )
    if rows and all(r.outcome == "Error" for r in rows):
        raise StiffnessError("every scan cell failed; see fall_scan.csv")
    return [], {}


@_numpy_quiet
def cmd_verify_all(cfg, out):
    # the battery's layers load before the profile draws: compiled after
    # them, field and quadrature left the peak RSS of a cold run about
    # 0.3 MB higher (39.8 against 39.5 MB on a 2-core machine)
    from . import field, profile, quadrature  # noqa: F401

    checks = [
        *_profile_rows(cfg),
        *_limit_rows(),
        *_field_rows(cfg),
        *_envelope_rows(cfg),
        *_integral_rows(cfg),
    ]
    return checks, {}


# (group, action) -> (command, the JSON report it writes or None); each
# command writes its CSV itself and returns (checks, extra report keys)
COMMANDS = {
    ("profile", "check"): (cmd_profile_check, "profile_check.json"),
    ("field", "verify"): (cmd_field_verify, "field_verify.json"),
    ("drag", "scan"): (cmd_drag_scan, "drag_scan.json"),
    ("drag", "fit"): (cmd_drag_fit, "drag_fit.json"),
    ("integral", "classify"): (cmd_integral_classify, "integral_classify.json"),
    ("fall", "simulate"): (cmd_fall_simulate, "fall_simulate_event.json"),
    ("fall", "scan"): (cmd_fall_scan, None),
    ("verify", "all"): (cmd_verify_all, "verify_all.json"),
}


# ------------------------------------------------------------ arg parsing


def _common_parser():
    """--config, then each RunConfig key's flag, typed by its annotation."""
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--config", default=None, help="flat JSON config file")
    for key, annotation in RunConfig.__annotations__.items():
        flag = FLAGS.get(key, "--" + key.lower().replace("_", "-"))
        kind = {"type": annotation} if annotation in (float, int) else {}
        if annotation is bool:
            kind = {"action": "store_const", "const": True}
        add(flag, dest=key, default=None, help=HELP.get(key), **kind)
    return common


def build_parser():
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="gapflow",
        description="checks, drag scans, and fall runs for the gap-flow model",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group in dict.fromkeys(g for g, _ in COMMANDS):
        sub = groups.add_parser(group).add_subparsers(dest="action", required=True)
        for action in (a for g, a in COMMANDS if g == group):
            sub.add_parser(action, parents=[common])
    return parser


def run(argv=None):
    """Parse argv, execute the subcommand, and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = validate(effective_config(args))
        out = _out_dir(cfg)
    except (ValueError, OSError) as exc:  # a ConfigError or a JSONDecodeError too
        print(f"gapflow: invalid config: {exc}", file=sys.stderr)
        return 2

    command, report_name = COMMANDS[(args.group, args.action)]
    try:
        checks, extra = command(cfg, out)
        report = envelope(cfg, f"{args.group} {args.action}", checks, extra)
        if report_name is not None:
            write_json(out / report_name, report)
    except ConfigError as exc:
        print(f"gapflow: invalid config: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, StiffnessError, ValueError) as exc:
        print(f"gapflow: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0 if report["passed"] else 1


def main():
    gc.set_threshold(GC_THRESHOLD)
    code = run()
    gc.freeze()  # every object is garbage now: the shutdown's collections skip it
    sys.exit(code)


if __name__ == "__main__":
    main()
