"""CLI contract tests: exit codes, artifacts, determinism, config echo."""

import argparse
import gc
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gapflow
import gapflow.cli as cli
from gapflow.cli import RunConfig, run
from gapflow.drag import exterior_constant
from gapflow import field, ode, profile
from gapflow.profile import RegimeKind, SlipRegime, coefficients

# keep the random-draw sections small; the full-size battery is exercised
# by the acceptance suite
FAST = ("--draws", "500")
# the draws profile check and field verify evaluate at a time
BLOCK = cli.DRAW_BLOCK
# the sources, for fresh interpreters: the tests need no installed gapflow
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(*args, cwd=None):
    """Python run with args in a fresh interpreter, gapflow from SRC."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
    )


def _read(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _rows(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------ happy paths


def test_verify_all_slip_passes(tmp_path):
    code = run(["verify", "all", "--regime", "slip", "--h", "1e-4",
                "--out", str(tmp_path), *FAST])
    assert code == 0
    report = _read(tmp_path / "verify_all.json")
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"divergence_analytic", "divergence_fd", "flux_identity",
            "wall_navier", "sphere_normal"} <= names


def test_verify_all_mixed_passes(tmp_path):
    code = run(["verify", "all", "--regime", "mixed", "--h", "1e-4",
                "--out", str(tmp_path), *FAST])
    assert code == 0
    report = _read(tmp_path / "verify_all.json")
    anchors = {c["anchor"] for c in report["checks"]}
    assert "prop_Psi_mix" in anchors


def test_report_envelope_shape(tmp_path):
    run(["profile", "check", "--out", str(tmp_path), *FAST])
    report = _read(tmp_path / "profile_check.json")
    assert report["schema"] == "gapflow.report/1"
    assert report["command"] == "profile check"
    assert report["timestamp"] is None
    assert report["version"] == gapflow.__version__
    for row in report["checks"]:
        assert set(row) == {"name", "anchor", "measured", "threshold", "passed"}
        assert row["anchor"]  # every row names its anchor label


def test_profile_check_anchor_strings(tmp_path):
    run(["profile", "check", "--out", str(tmp_path), *FAST])
    report = _read(tmp_path / "profile_check.json")
    by_name = {c["name"]: c["anchor"] for c in report["checks"]}
    assert by_name["wall_value"] == "Φ(r,0)=0"
    assert by_name["sphere_value"] == "Φ(r,1)=1"
    assert by_name["wall_navier"] == "(bdy1)"
    assert report["passed"] is True


def test_stamp_embeds_timestamp(tmp_path):
    run(["profile", "check", "--stamp", "--out", str(tmp_path), *FAST])
    report = _read(tmp_path / "profile_check.json")
    assert report["timestamp"] is not None
    assert "T" in report["timestamp"]


def test_drag_scan_row_count_and_header(tmp_path):
    code = run(["drag", "scan", "--regime", "slip",
                "--h-list", "1e-2,1e-3,1e-4,1e-5,1e-6", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _rows(tmp_path / "drag_scan.csv")
    assert header == ["h", "E_total", "E_grad", "E_sphere", "E_wall", "n"]
    assert len(rows) == 5
    hs = [float(row[0]) for row in rows]
    assert hs == sorted(hs, reverse=True)
    for row in rows:
        assert all(math.isfinite(float(x)) for x in row)
    report = _read(tmp_path / "drag_scan.json")
    assert len(report["rows"]) == 5
    assert report["provenance"]["exterior"] == "included"


def test_drag_scan_exterior_excluded_shifts_totals(tmp_path):
    run(["drag", "scan", "--regime", "slip", "--h-list", "1e-2,1e-3,1e-4",
         "--out", str(tmp_path)])
    with_ring = _read(tmp_path / "drag_scan.json")["rows"]
    run(["drag", "scan", "--regime", "slip", "--h-list", "1e-2,1e-3,1e-4",
         "--exterior", "excluded", "--out", str(tmp_path)])
    bare = _read(tmp_path / "drag_scan.json")["rows"]
    shifts = {round(a["E_total"] - b["E_total"], 9)
              for a, b in zip(with_ring, bare)}
    assert len(shifts) == 1  # one h-independent constant
    assert shifts.pop() > 0.0


def test_drag_fit_slip_prefers_log(tmp_path):
    code = run(["drag", "fit", "--regime", "slip",
                "--h-list", "1e-3,1e-4,1e-5,1e-6", "--out", str(tmp_path)])
    assert code == 0
    report = _read(tmp_path / "drag_fit.json")
    assert report["selected_model"] == "log"
    fits = report["fits"]["energy"]
    assert fits["log"]["r_squared"] > fits["inverse"]["r_squared"]
    assert fits["log"]["r_squared"] >= 0.99
    assert report["kappa_calibrated"] > 0.0


def test_drag_fit_mixed_prefers_inverse(tmp_path):
    code = run(["drag", "fit", "--regime", "mixed",
                "--h-list", "1e-3,1e-4,1e-5,1e-6", "--out", str(tmp_path)])
    assert code == 0
    report = _read(tmp_path / "drag_fit.json")
    assert report["selected_model"] == "inverse"
    fits = report["fits"]["energy"]
    assert fits["inverse"]["r_squared"] >= 0.99
    assert fits["inverse"]["r_squared"] > fits["log"]["r_squared"]


def test_integral_classify_cases(tmp_path):
    run(["integral", "classify", "--p", "1", "--q", "1", "--out", str(tmp_path)])
    case = _read(tmp_path / "integral_classify.json")["case"]
    assert case["classification"] == "logarithmic"
    run(["integral", "classify", "--p", "0", "--q", "1", "--out", str(tmp_path)])
    case = _read(tmp_path / "integral_classify.json")["case"]
    assert case["classification"] == "power-law"
    assert case["exponent"] == -0.5
    run(["integral", "classify", "--p", "3", "--q", "1", "--out", str(tmp_path)])
    case = _read(tmp_path / "integral_classify.json")["case"]
    assert case["classification"] == "bounded"


def test_integral_classify_oracle_row(tmp_path):
    run(["integral", "classify", "--p", "1", "--q", "1", "--out", str(tmp_path)])
    report = _read(tmp_path / "integral_classify.json")
    oracle = [c for c in report["checks"] if c["name"] == "log_case_oracle"]
    assert len(oracle) == 1
    assert oracle[0]["measured"] <= 1e-8
    assert oracle[0]["anchor"] == "lem:int"


def test_fall_simulate_mixed_reports_no_contact(tmp_path):
    code = run(["fall", "simulate", "--regime", "mixed", "--h0", "0.25",
                "--t-max", "50", "--out", str(tmp_path)])
    assert code == 0
    report = _read(tmp_path / "fall_simulate_event.json")
    assert report["event"]["kind"] == "NoContact"
    assert report["event"]["h"] > 0.0
    assert report["checks"][0]["anchor"] == "thm_mixed"


def test_fall_simulate_slip_touches_down(tmp_path):
    code = run(["fall", "simulate", "--regime", "slip", "--h0", "0.25",
                "--t-max", "10", "--out", str(tmp_path)])
    assert code == 0
    report = _read(tmp_path / "fall_simulate_event.json")
    assert report["event"]["kind"] == "Touchdown"
    assert report["event"]["speed"] > 0.0
    assert report["checks"][0]["anchor"] == "thm_slip"
    header, rows = _rows(tmp_path / "fall_simulate_trajectory.csv")
    assert header == ["t", "h", "h_prime"]
    ts = [float(row[0]) for row in rows]
    assert ts == sorted(ts)
    assert all(float(row[1]) > 0.0 for row in rows)


def test_fall_scan_grid_shape(tmp_path):
    code = run(["fall", "scan", "--regime", "slip", "--kappa-list", "0.5,1.0",
                "--g-list", "1.0", "--h0-list", "0.1,0.25", "--t-max", "20",
                "--out", str(tmp_path)])
    assert code == 0
    header, rows = _rows(tmp_path / "fall_scan.csv")
    assert header == ["kappa", "G", "h0", "outcome", "t_star", "impact_speed",
                      "min_h", "error"]
    assert len(rows) == 4
    assert all(row[3] == "Touchdown" for row in rows)


def test_fall_scan_honours_h_max(tmp_path):
    # h0 = 0.7 lies above the default escape height 0.5 but below --h-max
    code = run(["fall", "scan", "--h-max", "1.0", "--h0-list", "0.7",
                "--out", str(tmp_path)])
    assert code == 0
    _, rows = _rows(tmp_path / "fall_scan.csv")
    assert rows and all(row[3] == "Touchdown" for row in rows)


# ---------------------------------------------------------- determinism


def test_verify_all_reruns_are_bit_identical(tmp_path):
    blobs = []
    for k in range(4):
        out = tmp_path / f"run{k}"
        code = run(["verify", "all", "--regime", "slip", "--h", "1e-4",
                    "--out", str(out), *FAST])
        assert code == 0
        blobs.append((out / "verify_all.json").read_bytes())
    assert len(set(blobs)) == 1


def _profile_maxima_reference(seed, draws):
    """The scalar loop _profile_rows replaces: rng.uniform and one
    coefficients call per draw; returns the three residual maxima."""
    rng = np.random.default_rng(seed)
    sphere_value = wall_navier = sphere_cond = 0.0
    for _ in range(draws):
        mixed = bool(rng.integers(2))
        h = float(10.0 ** rng.uniform(-6.0, math.log10(0.45)))
        r = float(rng.uniform(0.0, 0.9))
        if mixed:
            regime = SlipRegime.mixed(float(10.0 ** rng.uniform(-3.0, 3.0)))
        else:
            regime = SlipRegime.slip(
                float(10.0 ** rng.uniform(-3.0, 3.0)),
                float(10.0 ** rng.uniform(-3.0, 3.0)),
            )
        c = coefficients(regime, h, r)
        sphere_value = max(sphere_value, abs(c.p1 + c.p2 + c.p3 - 1.0))
        wall_navier = max(
            wall_navier, abs(2.0 * c.p2 - c.alpha_P * c.p1) / (1.0 + c.alpha_P)
        )
        slope_sum = c.p1 + 2.0 * c.p2 + 3.0 * c.p3
        if mixed:
            res = abs(slope_sum)
        else:
            res = abs(2.0 * c.p2 + 6.0 * c.p3 + c.alpha_S * slope_sum) / (
                1.0 + c.alpha_S
            )
        sphere_cond = max(sphere_cond, res)
    return sphere_value, wall_navier, sphere_cond


@pytest.mark.parametrize("draws", [1, 2, 3, 500, BLOCK + 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_profile_rows_match_the_scalar_loop(seed, draws):
    # small draws leave one regime kind without draws; the rows still match
    rows = {row["name"]: row["measured"]
            for row in cli._profile_rows(RunConfig(seed=seed, draws=draws))}
    measured = (rows["sphere_value"], rows["wall_navier"], rows["sphere_condition"])
    assert measured == _profile_maxima_reference(seed, draws)


def _profile_draws_reference(seed, draws):
    """The per-draw Generator loop that _profile_draws walks in blocks:
    one rng.integers(2) coin, then one rng.random() per number, flat in
    the order (mixed, h, r, beta_S, beta_Omega)."""
    rng = np.random.default_rng(seed)

    def uniform(lo, hi):  # what rng.uniform(lo, hi) computes
        return lo + (hi - lo) * rng.random()

    flat = []
    for _ in range(draws):
        mixed = bool(rng.integers(2))
        h = 10.0 ** uniform(-6.0, math.log10(0.45))
        r = uniform(0.0, 0.9)
        beta_S = 0.0 if mixed else 10.0 ** uniform(-3.0, 3.0)
        flat += [mixed, h, r, beta_S, 10.0 ** uniform(-3.0, 3.0)]
    return np.array(flat, dtype=float)


@pytest.mark.parametrize(
    "draws", [1, 2, 3, 4095, 4097, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10**4]
)
@pytest.mark.parametrize("seed", [0, 1, 12345, RunConfig._field_defaults["seed"]])
def test_profile_draws_match_the_generator_loop(seed, draws):
    # PCG64's raw stream, walked block by block, gives the Generator
    # calls' bits, across the blocks' boundaries too
    blocks = list(cli._profile_draws(seed, draws))
    assert [b.shape for b in blocks[:-1]] == [(5, BLOCK)] * (len(blocks) - 1)
    flat = np.concatenate([b.T.ravel() for b in blocks])
    reference = _profile_draws_reference(seed, draws)
    assert flat.shape == (5 * draws,)
    assert np.array_equal(flat.view(np.int64), reference.view(np.int64))


def _field_measured_reference(cfg):
    """The measured values of _field_rows with its random points drawn
    and evaluated in one piece, from one generator."""
    from gapflow.field import aperture_frame, navier_residuals, sphere_slip_l2
    from gapflow.geometry import gamma_s

    regime, h = cli._regime(cfg), cfg.h
    rng = np.random.default_rng(cfg.seed + 1)
    r = rng.uniform(0.0, 0.9, size=cfg.draws)
    z = rng.uniform(0.0, 1.0, size=cfg.draws) * (h + gamma_s(r))
    frame = aperture_frame(regime, h, r, z)
    term_scale = np.abs(frame.du_r_dr) + np.abs(frame.u_r_by_r) + np.abs(frame.du_z_dz)
    div_max = float(np.max(np.abs(frame.div) / term_scale))

    rr, z_frac = rng.uniform((0.05, 0.3), (0.5, 0.7), size=(cli.FD_POINTS, 2)).T
    H = h + gamma_s(rr)
    zz = z_frac * H
    e = cli.FD_SCALE * H
    steps = np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * e
    u_r = aperture_frame(regime, h, rr + steps, zz).u_r
    u_z = aperture_frame(regime, h, rr, zz + steps).u_z
    dur_dr = (u_r[0] - 8 * u_r[1] + 8 * u_r[2] - u_r[3]) / (12 * e)
    duz_dz = (u_z[0] - 8 * u_z[1] + 8 * u_z[2] - u_z[3]) / (12 * e)
    centre = aperture_frame(regime, h, rr, zz).u_r
    fd_worst = float(np.max(np.abs(dur_dr + centre / rr + duz_dz)))

    x, w = np.polynomial.legendre.leggauss(24)
    flux_worst = 0.0
    for rr in cli.FLUX_RADII:
        H = h + gamma_s(rr)
        zz = 0.5 * H * (x + 1.0)
        u_r = aperture_frame(regime, h, np.full_like(zz, rr), zz).u_r
        flux_worst = max(flux_worst, abs(0.5 * H * float(np.sum(w * u_r)) + rr / 2.0))

    res = navier_residuals(regime, h, rng.uniform(0.0, 0.9, size=256))
    residuals = (res.wall_impermeability, res.wall_tangential, res.sphere_normal)
    return [div_max, fd_worst, flux_worst,
            *(float(np.max(np.abs(x))) for x in residuals),
            sphere_slip_l2(regime, h, cfg.delta, cli._spec(cfg))]


@pytest.mark.parametrize("draws", [1, BLOCK + 1])
@pytest.mark.parametrize("regime", ["slip", "mixed"])
def test_field_rows_match_the_one_piece_draws(regime, draws):
    # the points' two streams, drawn in blocks, leave the FD and Navier
    # draws where one generator leaves them
    cfg = RunConfig(regime=regime, draws=draws)
    measured = [row["measured"] for row in cli._field_rows(cfg)]
    assert measured == _field_measured_reference(cfg)


def _kernel_calls(tmp_path, monkeypatch, draws):
    """(regime kind, points) of each _coefficients call of profile check,
    and the points of each aperture_frame call of field verify."""
    kernel, frame = profile._coefficients, field.aperture_frame
    kernel_calls, frame_calls = [], []

    def counted_kernel(kind, beta_S, beta_Omega, h, r):
        kernel_calls.append((kind, np.size(h)))
        return kernel(kind, beta_S, beta_Omega, h, r)

    def counted_frame(regime, h, r, z):
        frame_calls.append(np.broadcast(r, z).size)
        return frame(regime, h, r, z)

    # the CLI imports both from their modules when the rows run
    monkeypatch.setattr(profile, "_coefficients", counted_kernel)
    monkeypatch.setattr(field, "aperture_frame", counted_frame)
    for argv in (["profile", "check"], ["field", "verify"]):
        assert run([*argv, "--draws", str(draws), "--out", str(tmp_path)]) == 0
    return kernel_calls, frame_calls


# the points of field verify's aperture_frame calls after its random
# points: the FD stencils in r and z, their centres, and the flux radii
FD_AND_FLUX_CALLS = [4 * cli.FD_POINTS, 4 * cli.FD_POINTS, cli.FD_POINTS] + [24] * 4


def test_profile_check_makes_one_kernel_call_per_regime_kind(tmp_path, monkeypatch):
    draws = RunConfig().draws
    assert draws == 10000 <= BLOCK
    kernel_calls, frame_calls = _kernel_calls(tmp_path, monkeypatch, draws)
    assert Counter(kind for kind, _ in kernel_calls) == {RegimeKind.SLIP: 1, RegimeKind.MIXED: 1}
    assert sum(points for _, points in kernel_calls) == draws
    assert frame_calls == [draws] + FD_AND_FLUX_CALLS


def test_the_draw_block_bounds_each_kernel_call(tmp_path, monkeypatch):
    # three blocks, the last of one draw: one call per regime kind and
    # block, and one aperture_frame call per block, none past the block
    draws = 2 * BLOCK + 1
    kernel_calls, frame_calls = _kernel_calls(tmp_path, monkeypatch, draws)
    per_kind = Counter(kind for kind, _ in kernel_calls)
    assert sorted(per_kind.values()) == [2, 3]
    assert max(points for _, points in kernel_calls) <= BLOCK
    assert sum(points for _, points in kernel_calls) == draws
    assert frame_calls == [BLOCK, BLOCK, 1] + FD_AND_FLUX_CALLS


def _nan_at_first_point(value):
    value = np.array(value, dtype=float)
    value.flat[0] = math.nan
    return value


@pytest.mark.parametrize("block", [0, 1, 2])
def test_a_nan_in_any_profile_block_fails_its_rows(monkeypatch, block):
    # 2 BLOCK + 1 draws: a call per regime kind in blocks 0 and 1, and
    # one call for the last block's single draw
    kernel, calls = profile._coefficients, []

    def nan_kernel(*args):
        c = kernel(*args)
        calls.append(len(calls))
        return c._replace(p1=_nan_at_first_point(c.p1)) if len(calls) - 1 == 2 * block else c

    monkeypatch.setattr(profile, "_coefficients", nan_kernel)
    with pytest.raises(ValueError, match="^check sphere_value measured nan$"):
        cli._profile_rows(RunConfig(draws=2 * BLOCK + 1))
    assert len(calls) == 5


@pytest.mark.parametrize(
    "call, row",
    [(0, "divergence_analytic"), (1, "divergence_analytic"), (2, "divergence_analytic"),
     (7, "flux_identity")],
    ids=["block-0", "block-1", "block-2", "flux-radius-1"],
)
def test_a_nan_in_any_field_block_fails_its_row(monkeypatch, call, row):
    # aperture_frame runs on the 3 draw blocks, the FD stencils and
    # centres, then the FLUX_RADII columns
    frame, calls = field.aperture_frame, []

    def nan_frame(*args):
        f = frame(*args)
        calls.append(len(calls))
        if len(calls) - 1 == call:
            f = f._replace(**{k: _nan_at_first_point(v) for k, v in f._asdict().items()})
        return f

    monkeypatch.setattr(field, "aperture_frame", nan_frame)
    with pytest.raises(ValueError, match=f"^check {row} measured nan$"):
        cli._field_rows(RunConfig(draws=2 * BLOCK + 1))


def test_a_nan_envelope_exits_3_and_names_the_row(tmp_path):
    # at beta_Omega = 1e-300 the third-order quotients of weighted_sups
    # overflow to NaN at h = 1e-4 and 1e-6; the builtin max dropped them,
    # and verify all passed with envelope_uniformity 1.568
    proc = _fresh("-m", "gapflow.cli", "verify", "all", "--regime", "mixed",
                  "--beta-omega", "1e-300", "--out", str(tmp_path))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "gapflow: numerical failure: check envelope_uniformity measured nan"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_reports_take_the_mode_open_gives_a_new_file(tmp_path, umask):
    # the atomic write's temp file is made 0600; the report must not keep it
    saved = os.umask(umask)
    try:
        assert run(["profile", "check", "--draws", "10", "--out", str(tmp_path)]) == 0
        assert run(["fall", "scan", "--t-max", "1", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(saved)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["profile_check.json", "fall_scan.csv", "plain"],
                                  0o666 & ~umask)


def test_drag_scan_reruns_are_bit_identical(tmp_path):
    blobs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        run(["drag", "scan", "--regime", "slip", "--h-list", "1e-2,1e-3,1e-4",
             "--out", str(out)])
        blobs.append((out / "drag_scan.csv").read_bytes()
                     + (out / "drag_scan.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_config_echo_round_trips(tmp_path):
    first = tmp_path / "first"
    run(["drag", "scan", "--regime", "mixed", "--h-list", "1e-2,1e-3,1e-4",
         "--exterior", "excluded", "--out", str(first)])
    echo = _read(first / "drag_scan.json")["config"]
    cfg_file = tmp_path / "echo.json"
    cfg_file.write_text(json.dumps(echo))
    second = tmp_path / "second"
    code = run(["drag", "scan", "--config", str(cfg_file), "--out", str(second)])
    assert code == 0
    assert (first / "drag_scan.csv").read_bytes() == (
        second / "drag_scan.csv"
    ).read_bytes()
    assert (first / "drag_scan.json").read_bytes() == (
        second / "drag_scan.json"
    ).read_bytes()


def test_echo_excludes_execution_knobs(tmp_path):
    run(["profile", "check", "--out", str(tmp_path), *FAST])
    echo = _read(tmp_path / "profile_check.json")["config"]
    assert "threads" not in echo
    assert "out_dir" not in echo
    assert "stamp" not in echo


def test_no_temp_files_left_behind(tmp_path):
    run(["profile", "check", "--out", str(tmp_path), *FAST])
    run(["fall", "simulate", "--regime", "slip", "--out", str(tmp_path)])
    leftovers = [p for p in tmp_path.iterdir()
                 if p.suffix not in (".json", ".csv")]
    assert leftovers == []


# --------------------------------------------------------- config layering


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"regime": "mixed", "h": 1e-3}))
    run(["field", "verify", "--config", str(cfg_file), "--h", "1e-4",
         "--out", str(tmp_path), *FAST])
    echo = _read(tmp_path / "field_verify.json")["config"]
    assert echo["regime"] == "mixed"  # from the file
    assert echo["h"] == 1e-4  # flag wins


def test_threads_config_key_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"threads": 4}))
    assert run(["profile", "check", "--config", str(cfg_file)]) == 2
    assert "unknown config keys: threads" in capsys.readouterr().err
    assert run(["profile", "check", "--threads", "4"]) == 2


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPFLOW_OUTPUT_DIR", str(tmp_path / "envdir"))
    code = run(["profile", "check", *FAST])
    assert code == 0
    assert (tmp_path / "envdir" / "profile_check.json").exists()


def test_out_flag_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPFLOW_OUTPUT_DIR", str(tmp_path / "envdir"))
    run(["profile", "check", "--out", str(tmp_path / "flagdir"), *FAST])
    assert (tmp_path / "flagdir" / "profile_check.json").exists()
    assert not (tmp_path / "envdir").exists()


@pytest.mark.parametrize("source", ["config", "flag", "environment"])
@pytest.mark.parametrize("case", ["under-a-file", "overlong"])
def test_an_out_dir_that_cannot_be_made_exits_2(source, case, tmp_path, capsys, monkeypatch):
    # the one-line message names where the path came from, gives the OS
    # reason and echoes at most PATH_ECHO characters of the path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    (tmp_path / "file").write_text("")
    if case == "under-a-file":
        out, reason = str(tmp_path / "file" / "x"), os.strerror(20)  # ENOTDIR
    else:
        out, reason = str(tmp_path / ("a" * 5000)), os.strerror(36)  # ENAMETOOLONG
    argv = ["profile", "check", *FAST]
    key = "out_dir"
    if source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": out}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    elif source == "flag":
        argv += ["--out", out]
    else:
        monkeypatch.setenv(cli.ENV_OUT_DIR, out)
        key = cli.ENV_OUT_DIR
    files = sorted(tmp_path.iterdir())
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith(f"gapflow: invalid config: {key} '{out[:20]}")
    assert err.rstrip().endswith(f": {reason}")
    assert sorted(tmp_path.iterdir()) == files  # no report written


def test_run_config_defaults_are_valid():
    cli.validate(RunConfig())


def test_flags_and_config_keys_are_one_set():
    dests = vars(cli.build_parser().parse_args(["drag", "scan"]))
    assert dests.keys() - {"config", "group", "action"} == set(RunConfig._fields)


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_only_the_named_subcommand_builds_its_flags():
    # deterministic work counter: argv names one subcommand, and the
    # parser builds the thirty-odd flags of that one alone
    parser = cli.build_parser()
    parser.parse_args(["fall", "scan", "--regime", "mixed"])
    built = [
        (group, action)
        for group, sub in _subparsers(parser).items()
        for action, leaf in _subparsers(sub).items()
        if len(leaf._actions) > 1  # beyond --help
    ]
    assert built == [("fall", "scan")]


# the CLI's flags, listed literally so that deriving them from RunConfig
# cannot rename one: (flag, argument, dest, parsed value)
FLAGS = [
    ("--config", "c.json", "config", "c.json"),
    ("--out", "d", "out_dir", "d"),
    ("--stamp", None, "stamp", True),
    ("--seed", "7", "seed", 7),
    ("--regime", "mixed", "regime", "mixed"),
    ("--beta-s", "0.5", "beta_S", 0.5),
    ("--beta-omega", "0.5", "beta_Omega", 0.5),
    ("--delta", "0.1", "delta", 0.1),
    ("--h-max", "0.4", "h_max", 0.4),
    ("--rel-tol", "1e-9", "rel_tol", 1e-9),
    ("--abs-tol", "1e-13", "abs_tol", 1e-13),
    ("--exterior", "excluded", "exterior", "excluded"),
    ("--h", "1e-3", "h", 1e-3),
    ("--h-list", "1e-2,1e-3", "h_list", "1e-2,1e-3"),
    ("--draws", "50", "draws", 50),
    ("--rho-s", "3", "rho_S", 3.0),
    ("--rho-f", "0.5", "rho_F", 0.5),
    ("--g", "9.8", "g", 9.8),
    ("--kappa", "2", "kappa", 2.0),
    ("--h0", "0.2", "h0", 0.2),
    ("--v0", "-0.1", "v0", -0.1),
    ("--t-max", "5", "t_max", 5.0),
    ("--ode-rtol", "1e-9", "ode_rtol", 1e-9),
    ("--ode-atol", "1e-12", "ode_atol", 1e-12),
    ("--p", "0", "p", 0.0),
    ("--q", "2", "q", 2.0),
    ("--kappa-list", "1,2", "kappa_list", "1,2"),
    ("--g-list", "1", "G_list", "1"),
    ("--h0-list", "0.1", "h0_list", "0.1"),
]


@pytest.mark.parametrize("flag, arg, dest, value", FLAGS, ids=[f[0] for f in FLAGS])
def test_each_flag_keeps_its_dest_and_type(flag, arg, dest, value):
    argv = ["drag", "scan", flag] + ([arg] if arg is not None else [])
    parsed = getattr(cli.build_parser().parse_args(argv), dest)
    assert parsed == value
    assert type(parsed) is type(value)


@pytest.mark.parametrize("key", ["regime", "exterior"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_unknown_regime_or_exterior_exits_2(key, source, tmp_path, capsys):
    # the values are checked by validate, so flags and config files agree
    if source == "flag":
        argv = [f"--{key}", "foo"]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: "foo"}))
        argv = ["--config", str(cfg_file)]
    assert run(["drag", "scan", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and key in err


@pytest.mark.parametrize("group, action", list(cli.COMMANDS), ids=" ".join)
def test_every_subcommand_has_help(group, action, capsys):
    assert run([group, action, "--help"]) == 0
    assert f"gapflow {group} {action}" in capsys.readouterr().out


CSV_OF = {("drag", "scan"): "drag_scan.csv",
          ("fall", "simulate"): "fall_simulate_trajectory.csv",
          ("fall", "scan"): "fall_scan.csv"}


@pytest.mark.parametrize("group, action", list(cli.COMMANDS), ids=" ".join)
def test_each_command_writes_the_report_its_entry_names(group, action, tmp_path):
    _, report_name = cli.COMMANDS[(group, action)]
    code = run([group, action, "--h-list", "1e-2,1e-3,1e-4,1e-5",
                "--out", str(tmp_path), *FAST])
    assert code in (0, 1)
    written = {p.name for p in tmp_path.iterdir()}
    expected = {report_name, CSV_OF.get((group, action))} - {None}
    assert written == expected
    if report_name is not None:
        report = _read(tmp_path / report_name)
        assert report["command"] == f"{group} {action}"
        assert code == (0 if report["passed"] else 1)


def test_drag_scan_delta_sets_the_exterior_aperture(tmp_path):
    code = run(["drag", "scan", "--regime", "slip", "--h-list", "1e-2,1e-3",
                "--delta", "0.15", "--out", str(tmp_path)])
    assert code == 0
    prov = _read(tmp_path / "drag_scan.json")["provenance"]
    assert prov["r_max"] == 0.15
    assert prov["exterior_constant"] == exterior_constant(
        SlipRegime.slip(1.0, 1.0), 0.15
    )


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["drag", "scan", "--h-list", "1e-2,-1"],
        ["fall", "simulate", "--regime", "slip", "--h0", "0.9"],
        ["integral", "classify", "--p", "-1", "--q", "1"],
        ["integral", "classify", "--p", "1", "--q", "1",
         "--h-list", "1e-9,1e-10"],
        ["drag", "fit", "--h-list", "1e-2,1e-3"],
        ["verify", "all", "--delta", "0.3"],
        ["profile", "check", "--draws", "0"],
        ["fall", "scan", "--h0-list", "0.9"],
        ["drag", "scan", "--abs-tol", "nan"],
        ["drag", "scan", "--abs-tol", "inf"],
        ["drag", "scan", "--rel-tol", "nan"],
        ["drag", "scan", "--h-list", "nan"],
        ["drag", "scan", "--h-list", "1e-2,inf"],
        ["fall", "scan", "--kappa-list", "nan"],
        ["fall", "scan", "--kappa-list", "inf"],
        ["fall", "scan", "--g-list", "-1"],
        ["fall", "simulate", "--t-max", "inf"],
        ["fall", "simulate", "--h0", "1e-13"],
        ["fall", "scan", "--h0-list", "1e-13"],
        ["fall", "simulate", "--regime", "mixed", "--kappa", "0"],
        ["fall", "scan", "--regime", "mixed", "--kappa-list", "1,0"],
        ["profile", "check", "--draws", "1000001"],
        ["profile", "check", "--seed", "-1"],
        ["fall", "scan", "--kappa-list", "1,x"],
        ["drag", "scan", "--h-list", ","],
    ],
)
def test_invalid_config_exits_2(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "invalid config" in capsys.readouterr().err


# an integer with more digits than int() reads from a string (Python's
# default limit is 4300): a config file can hold one, json.load cannot read it
HUGE = 10**5000

# ill-typed values of each RunConfig annotation, as a config file can give
# them, by case label: the domain the typing rule of cli.validate rejects,
# and a path no directory can have ("nul")
ILL_TYPED = {
    float: {"bool": True, "str": "1", "str-inf": "inf", "word": "x", "null": None,
            "nested": [[1.0]], "empty": [], "object": {}, "big": 10**400, "huge": HUGE},
    tuple: {"bool": True, "number": 1.0, "str": "1,x", "blank": " , ", "null": None,
            "nested": [[1.0]], "empty": [], "object": {"0.1": 1, "0.01": 2, "0.001": 3},
            "bool-entry": [True, 2], "str-entry": ["0.25"], "big": [10**400],
            "huge-entry": [0.1, HUGE]},
    int: {"bool": True, "float": 1.5, "str": "1", "null": None, "nested": [[1]],
          "empty": [], "object": {}, "huge": HUGE},
    bool: {"int": 1, "str": "no", "null": None, "nested": [[True]], "empty": [],
           "object": {}, "big": 10**400, "huge": HUGE},
    str: {"bool": True, "int": 1, "str": "foo", "null": None, "nested": [["slip"]],
          "empty": [], "object": {}, "big": 10**400, "huge": HUGE, "nul": "a\u0000b"},
}
ILL_TYPED_CASES = [
    (key, label, value)
    for key, kind in RunConfig.__annotations__.items()
    for label, value in ILL_TYPED[kind].items()
    # out_dir takes any string, or None
    if key in cli.CHOICES or kind is not str or label not in ("str", "null")
]


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key, _, value in ILL_TYPED_CASES],
    ids=[f"{key}-{label}" for key, label, _ in ILL_TYPED_CASES],
)
def test_ill_typed_config_values_exit_2(key, value, tmp_path, capsys, monkeypatch):
    # a config file can give any JSON type; a wrong one is a config error
    # that names its key, never a traceback (exit 1), a failed scan (exit 3)
    # or a silently read value; no --out, which would override out_dir
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg_file = tmp_path / "cfg.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # to write HUGE
    try:
        cfg_file.write_text(json.dumps({key: value}))
    finally:
        sys.set_int_max_str_digits(limit)
    assert run(["profile", "check", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gapflow: invalid config: {key} ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg_file]  # no report written


def test_an_integer_float_key_passes(tmp_path):
    # JSON writes a whole number as an int, which a float key takes and
    # holds as a float, so the config echo writes it as one
    cfg = cli.validate(RunConfig(beta_S=2, v0=0))
    assert [(type(x), x) for x in (cfg.beta_S, cfg.v0)] == [(float, 2.0), (float, 0.0)]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"beta_S": 2, "v0": 0}')
    assert run(["profile", "check", "--config", str(cfg_file), "--out", str(tmp_path), *FAST]) == 0
    text = (tmp_path / "profile_check.json").read_text(encoding="utf-8")
    assert '"beta_S": 2.0,' in text and '"v0": 0.0\n' in text


@pytest.mark.parametrize(
    "key", [key for key, kind in RunConfig.__annotations__.items() if kind is tuple]
)
def test_a_config_file_takes_a_comma_string_for_a_list_key(key, tmp_path):
    # the flags' form: the same entries as the JSON list of the default
    default = RunConfig._field_defaults[key]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: " " + ", ".join(map(repr, default)) + ","}))
    assert run(["profile", "check", "--config", str(cfg_file), "--out", str(tmp_path), *FAST]) == 0
    assert _read(tmp_path / "profile_check.json")["config"][key] == list(default)


def test_an_integer_past_the_digit_limit_says_so(tmp_path, capsys):
    # an int key takes any int, but not one json.load cannot read
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"seed": ' + "9" * 5000 + "}")
    assert run(["profile", "check", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"gapflow: invalid config: seed must have at most {limit} digits\n"


def test_draws_above_the_bound_name_it(tmp_path, capsys):
    cli.validate(RunConfig(draws=cli.MAX_DRAWS))
    assert run(["verify", "all", "--draws", str(cli.MAX_DRAWS + 1),
                "--out", str(tmp_path)]) == 2
    assert f"MAX_DRAWS = {cli.MAX_DRAWS}" in capsys.readouterr().err


# `drag fit` exits 1 on purpose: its energy_ratio_window check reads
# E/|ln h| = 1.541 against RATIO_WINDOW = 1.5 over the default sweep
# (ROADMAP item 5); the fix of that check flips this pin.
@pytest.mark.parametrize(
    "argv, code",
    [
        (["profile", "check"], 0),
        (["field", "verify"], 0),
        (["drag", "scan"], 0),
        (["drag", "fit"], 1),
        (["integral", "classify"], 0),
        (["fall", "simulate"], 0),
        (["fall", "scan"], 0),
        (["verify", "all"], 0),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, list) else None,
)
def test_default_run_exit_code(argv, code, tmp_path):
    assert run(argv + ["--out", str(tmp_path)]) == code


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"regime": "slip", "bogus": 1}))
    assert run(["profile", "check", "--config", str(cfg_file)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_d_delta_config_key_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"regime": "slip", "d_delta": 0.1}))
    assert run(["profile", "check", "--config", str(cfg_file)]) == 2
    assert "d_delta" in capsys.readouterr().err


def test_malformed_config_file_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("not json {")
    assert run(["profile", "check", "--config", str(cfg_file)]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["bogus"]) == 2
    assert run(["drag", "bogus"]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    code = run(["integral", "classify", "--p", "0", "--q", "2",
                "--rel-tol", "1e-15", "--abs-tol", "1e-18",
                "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, report, failing",
    [
        (["integral", "classify", "--p", "2", "--q", "1", "--delta", "1e-3"],
         "integral_classify.json", {"selected_fit_r2"}),
        (["integral", "classify", "--p", "0", "--q", "0.75", "--delta", "1e-2"],
         "integral_classify.json", {"selected_fit_r2"}),
        # the aperture holds no lubrication region, so the weighted sups
        # are not uniform either
        (["verify", "all", "--delta", "1e-10"],
         "verify_all.json", {"log_case_classified", "envelope_uniformity"}),
    ],
    ids=["bounded-p2-q1", "power-p0-q0.75", "verify-all-delta-1e-10"],
)
def test_a_converged_integral_whose_fit_fails_writes_a_failing_report(
    argv, report, failing, tmp_path, capsys
):
    # every integral converges, so the fits' R^2 is a check row, not exit 3
    assert run([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""
    checks = _read(tmp_path / report)["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == failing


def test_the_log_case_oracle_holds_when_delta_squared_is_below_eps_h(tmp_path, capsys):
    # (h + delta^2) / h rounds to 1 here; log1p keeps the oracle positive
    argv = ["integral", "classify", "--p", "1", "--q", "1", "--delta", "1e-10",
            "--h-list", "1e-2", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert _read(tmp_path / "integral_classify.json")["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [["verify", "all"], ["integral", "classify", "--p", "1", "--q", "1"]],
    ids=["verify-all", "integral-classify"],
)
def test_an_underflowing_log_case_oracle_names_delta(argv, tmp_path, capsys):
    # delta^2 underflows to 0, so the oracle is 0 and no relative error exists
    assert run([*argv, "--delta", "1e-200", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line == (
        "gapflow: numerical failure: the log-case oracle is 0 at h = 0.01, delta = 1e-200"
    )


def test_a_drag_row_failure_names_the_gap_and_the_terms(tmp_path, capsys):
    code = run(["drag", "scan", "--regime", "mixed", "--h-list", "1e-2",
                "--rel-tol", "1e-14", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "drag row at h = 0.01: " in err
    assert " in gradient, dissipation (tolerance below the roundoff floor): estimate " in err


@pytest.mark.parametrize(
    "args, error",
    [
        (["--v0=-1e300"], "ZeroDivisionError"),
        (["--regime", "mixed", "--g", "1e-10", "--t-max", "1e300"], "OverflowError"),
        # a slip step carries h to 0 or below, where the law's log(h) fails
        (["--g", "1.7e308", "--rho-s", "1", "--rho-f", "0"], "ValueError: math domain error"),
    ],
    ids=["zero-division", "overflow", "domain"],
)
def test_fall_float_arithmetic_failure_exits_3(tmp_path, capsys, args, error):
    assert run(["fall", "simulate", *args, "--out", str(tmp_path)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("gapflow: numerical failure: float arithmetic failed from h0=0.25, v0=")
    assert f": {error}" in line


def test_a_tail_entered_at_rest_ends_with_a_result(tmp_path, capsys):
    # kappa = 1e-300: h' reaches 0 below SWITCH_H, where the floor time
    # rounds to the entry time and the coast h/|h'| would divide by zero
    argv = ["fall", "simulate", "--regime", "mixed", "--h0", "1e-7",
            "--v0=1e-3", "--kappa", "1e-300", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    event = _read(tmp_path / "fall_simulate_event.json")["event"]
    assert (event["kind"], event["speed"]) == ("NoContact", 0.0)
    assert event["note"] == (
        "gap fell below the representable range (ln h = -700) at t; no contact"
    )


@pytest.mark.parametrize(
    "v0, h_rest",
    # h rests where a ln h = v0 + a ln h0: h0 e^{v0/a}, up to rounding
    [("0", 9.999999999999994e-08), ("-1e-3", 9.990004998333731e-08)],
    ids=["from-rest", "falling"],
)
def test_a_tail_without_gravity_ends_with_a_result(tmp_path, capsys, v0, h_rest):
    # rho_F = rho_S: G = 0, so the gap never reaches the ln h = -700 floor
    argv = ["fall", "simulate", "--regime", "mixed", "--h0", "1e-7", "--rho-f", "2",
            f"--v0={v0}", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    event = _read(tmp_path / "fall_simulate_event.json")["event"]
    assert (event["kind"], event["t"], event["h"], event["note"]) == ("NoContact", 10.0, h_rest, "")
    assert math.copysign(1.0, event["speed"]) == 1.0 and event["speed"] == 0.0


def test_the_mixed_fall_that_stalls_on_its_tail_event_ends_in_one_line(
    tmp_path, capsys, monkeypatch
):
    # ROADMAP item 3's tail-event stall: these inputs stop with "integrator
    # stalled ... an event changed sign over the step" (exit 3), the same
    # rounded to 4 digits exit 0; a fix may turn the 3 into a 0
    monkeypatch.chdir(tmp_path)
    argv = ["fall", "simulate", "--regime", "mixed", "--kappa", "367.89707246880454",
            "--g", "0.5832689902143082", "--h0", "7.964553565526876e-05",
            "--t-max", "1e8", "--out", str(tmp_path)]
    assert run(argv) in (0, 3)
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


def test_a_fall_over_the_step_budget_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    assert run(["fall", "simulate", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "MAX_STEPS = 10" in err
    assert list(tmp_path.iterdir()) == []
    # in a scan the cell becomes an Error row; h0 = 1e-7 starts in the
    # closed-form tail, takes no step and ends as it does without a budget
    assert run(["fall", "scan", "--regime", "mixed", "--kappa-list", "1",
                "--h0-list", "1e-7,0.25", "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "fall_scan.csv")
    assert [row[3] for row in rows] == ["NoContact", "Error"]
    assert "MAX_STEPS = 10" in rows[1][-1]


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_drag_scan_below_the_validated_sweep_ends(tmp_path):
    # h = 1e-8 converges within the global budget; at h = 1e-300 the
    # integrands overflow and the non-finite estimate is a numerical failure
    assert run(["drag", "scan", "--h-list", "1e-2,1e-8", "--out", str(tmp_path)]) == 0
    assert run(["drag", "scan", "--h-list", "1e-300", "--out", str(tmp_path)]) == 3


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_a_non_finite_exterior_constant_exits_3_without_nan(tmp_path, capsys):
    # at delta = 1e-300 the exterior grid underflows and its constant is NaN
    assert run(["drag", "scan", "--delta", "1e-300", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "delta = 1e-300" in err
    for path in tmp_path.iterdir():
        text = path.read_text(encoding="utf-8").lower()
        assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("delta", ["1e-300", "1e-160"])
def test_a_non_finite_exterior_constant_prints_one_line(tmp_path, delta):
    # a fresh process, since pytest captures numpy's warnings itself
    proc = _fresh("-m", "gapflow.cli", "drag", "scan", "--delta", delta, "--out", str(tmp_path))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        f"gapflow: numerical failure: the exterior constant is not finite (nan) "
        f"at aperture radius delta = {float(delta)!r}"
    ]
    assert list(tmp_path.iterdir()) == []


# a drag row whose Psi partials overflow at a slip length of 1e-300
NAN_ROW = (
    "drag row at h = 0.001: quadrature did not converge in volume (non-finite estimate): "
    "estimate nan, error nan against tol nan on 4 cells"
)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["drag", "scan", "--beta-s", "1e-300"], NAN_ROW),
        (["drag", "scan", "--beta-omega", "1e-300"], NAN_ROW),
        (["drag", "fit", "--regime", "mixed", "--beta-omega", "1e-300"], NAN_ROW),
        (["integral", "classify", "--p", "0", "--q", "1e300"], "quadrature did not converge "
         "(non-finite estimate): estimate inf, error nan against tol inf on 2 cells"),
    ],
    ids=["drag-scan-beta-s", "drag-scan-beta-omega", "drag-fit-mixed", "classify-q-1e300"],
)
def test_numpy_warnings_stay_off_stderr(tmp_path, argv, line):
    # a fresh process, since pytest captures numpy's warnings itself: the
    # overflows of these inputs end in one line, with no RuntimeWarning
    proc = _fresh("-m", "gapflow.cli", *argv, "--out", str(tmp_path))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"gapflow: numerical failure: {line}"]


def test_write_json_refuses_non_finite_values(tmp_path):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "report.json", {"x": value})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kind, poly, term, row",
    [
        (profile.RegimeKind.MIXED, 2, -1, "limit_mixed_cubic"),
        (profile.RegimeKind.SLIP, 1, 0, "limit_slip_linear"),
    ],
    ids=["mixed-N2-leading", "slip-N1-constant"],
)
def test_limit_rows_read_the_profile_family(monkeypatch, kind, poly, term, row):
    # the limit rows read the polynomials that every profile evaluation
    # runs, so perturbing one coefficient of them fails its limit row; the
    # rows run alone, since the perturbed family also moves the draws' rows
    family = profile._family

    def perturbed(k, beta_S, beta_Omega):
        polys = [np.array(c, dtype=float) for c in family(k, beta_S, beta_Omega)]
        if k is kind:
            polys[poly][term] *= 1.0 + 1e-9
        return tuple(polys)

    assert all(c["passed"] for c in cli._limit_rows())
    monkeypatch.setattr(profile, "_family", perturbed)
    failed = [c["name"] for c in cli._limit_rows() if not c["passed"]]
    assert failed == [row]


def test_failed_check_exits_1(tmp_path, monkeypatch):
    # an unreachable threshold turns a healthy report into a failing one
    monkeypatch.setattr(cli, "FLUX_TOL", 0.0)
    code = run(["field", "verify", "--regime", "slip", "--h", "1e-2",
                "--out", str(tmp_path), *FAST])
    assert code == 1
    report = _read(tmp_path / "field_verify.json")
    assert report["passed"] is False
    assert (tmp_path / "field_verify.json").exists()  # artifact still written


def test_console_script_entry_point(tmp_path):
    proc = _fresh("-m", "gapflow.cli", "profile", "check", "--draws", "200",
                  "--out", str(tmp_path))
    assert proc.returncode == 0
    assert (tmp_path / "profile_check.json").exists()


def test_main_freezes_the_collector_and_run_does_not(tmp_path):
    # main runs its command with automatic collection rarer than the
    # default, and ends the process, so it freezes every object for the
    # shutdown's collections; run, called in-process, leaves the collector
    # as it was
    script = (
        "import atexit, gc, sys\n"
        "import gapflow.cli as cli\n"
        "command, report = cli.COMMANDS['profile', 'check']\n"
        "def seen(cfg, out):\n"
        "    print(gc.isenabled(), gc.get_threshold()[0])\n"
        "    return command(cfg, out)\n"
        "cli.COMMANDS['profile', 'check'] = (seen, report)\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['gapflow', 'profile', 'check', '--draws', '10', "
        f"'--out', {str(tmp_path / 'main')!r}]\n"
        "cli.main()\n"
    )
    proc = _fresh("-c", script)
    during = f"True {cli.GC_THRESHOLD}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, during + "True\n", "")
    assert cli.GC_THRESHOLD > gc.get_threshold()[0]
    collector = (gc.isenabled(), gc.get_threshold())
    assert run(["profile", "check", "--draws", "10", "--out", str(tmp_path / "run")]) == 0
    assert (gc.isenabled(), gc.get_threshold()) == collector
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "all"], 0),
        (["drag", "scan"], 0),
        (["drag", "scan", "--regime", "mixed"], 0),
        (["fall", "scan", "--regime", "mixed", "--t-max", "50"], 0),
        (["drag", "fit"], 1),
        (["integral", "classify", "--p", "0", "--q", "2", "--h-list", "1e-8,1e-8"], 0),
        (["integral", "classify", "--h-list", "1e-6,1e-6,1e-6"], 0),
        (["profile", "check", "--config", "ill-typed.json"], 2),
        (["fall", "simulate", "--g", "1.7e308", "--rho-s", "1", "--rho-f", "0"], 3),
    ],
    ids=["verify-all", "drag-scan-slip", "drag-scan-mixed", "fall-scan-mixed", "drag-fit",
         "repeated-gap-classify-p0-q2", "repeated-gap-classify", "ill-typed-config",
         "fall-domain-error"],
)
def test_every_exit_code_survives_main(tmp_path, monkeypatch, argv, code):
    # python -m gapflow.cli ends each command as run returns it, and for
    # exits 0 and 1 writes the bytes that an in-process run writes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ill-typed.json").write_text('{"seed": true}')
    proc = _fresh("-m", "gapflow.cli", *argv, "--out", "main", cwd=tmp_path)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) <= 1
    if code <= 1:
        assert run([*argv, "--out", "run"]) == code
        written = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "run").iterdir())
        for name in written:
            assert (tmp_path / "main" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_falls_run_without_scipy(tmp_path):
    # a mixed fall scan and a slip fall simulate in one fresh interpreter:
    # both steppers, the event location and the tail load no scipy module,
    # and no numpy either
    script = (
        "import sys\n"
        "from gapflow.cli import run\n"
        f"assert run(['fall', 'scan', '--regime', 'mixed', '--t-max', '50', "
        f"'--out', {str(tmp_path / 'scan')!r}]) == 0\n"
        f"assert run(['fall', 'simulate', '--regime', 'slip', "
        f"'--out', {str(tmp_path / 'simulate')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = _fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "False", ""]
    assert (tmp_path / "scan" / "fall_scan.csv").exists()
    assert (tmp_path / "simulate" / "fall_simulate_event.json").exists()
