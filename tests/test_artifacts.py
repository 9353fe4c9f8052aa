"""The default artifacts, pinned by their sha256 digests.

Every file that the eight default subcommands write, and those of
`drag scan` and `fall scan` with `--regime mixed`, is pinned here by its
digest, recorded before the per-command imports and the block draws of
`profile check` and `verify all` landed: a speed change must leave these
bytes alone.  The rerun tests of `test_cli` compare two runs of one tree;
this one compares the tree with the bytes it wrote before.  A digest
moves only together with a CHANGES.md line that gives the reason.  The
reports embed `gapflow.__version__`, so a version bump moves every JSON
digest.
"""

import hashlib

import pytest

from gapflow.cli import run

DIGESTS = {
    ("profile", "check"): (0, {
        "profile_check.json": "6488efca5cd7f6246ef97194a309930b4b61b753928666e5cd4d63a4a8d3d569",
    }),
    ("field", "verify"): (0, {
        "field_verify.json": "694e004e2c5a389bec8575a344c4be86801609f3e763ea65f4d4f40e2f284217",
    }),
    ("drag", "scan"): (0, {
        "drag_scan.csv": "78655609afeb88991686f05b9c40a64b3df9cc81d1e53f3e787abec830c2c9e1",
        "drag_scan.json": "1ec9de293130ab327d4a6acb97c39fb39cb6d080bccd25d8ec0c3f5a8fe601f4",
    }),
    # exit 1 by design of its ratio window (see test_cli's default exit codes)
    ("drag", "fit"): (1, {
        "drag_fit.json": "461661dd92ece3b5f8b9613df9709348dbd98515db666086ad7b5f60b83d0365",
    }),
    ("integral", "classify"): (0, {
        "integral_classify.json": "9d29dd366d06d17b4d2f2c3a5a86fb2743a387bd1b6b968d9c0e96246feb5f01",
    }),
    ("fall", "simulate"): (0, {
        "fall_simulate_event.json": "206a9551d909cde684a15e747c2dbd81f273bd3098f80901227d178be25d1c08",
        "fall_simulate_trajectory.csv": "b8f2405b01b6cfb275f70db4e2605cc021a228d69fbf55c0110e9a0c0eab0ceb",
    }),
    ("fall", "scan"): (0, {
        "fall_scan.csv": "f7176f051ed7a17c85375d3a92cdf44e9fb0545c1098ab48bf39a704673b05a0",
    }),
    ("verify", "all"): (0, {
        "verify_all.json": "63240c9c7d1e3266a49cb251037c8bd8cc3d7bb340a0d09fb9801ea3edfefca6",
    }),
    ("drag", "scan", "--regime", "mixed"): (0, {
        "drag_scan.csv": "54bec61a8ab09b8a1e977f28dcf1c4c1f378b435351717be077534788cc48d2c",
        "drag_scan.json": "603b1a44b1112bfb9ba16c6bee532948cb58275fc6647583fa9d0132a7839f40",
    }),
    ("fall", "scan", "--regime", "mixed"): (0, {
        "fall_scan.csv": "30a3e1dee9e89b67f3f7d419bf465852892cf06b9be580887bcda3583aee3829",
    }),
}


@pytest.mark.parametrize("argv", DIGESTS, ids=" ".join)
def test_a_default_run_writes_its_pinned_bytes(argv, tmp_path):
    code, digests = DIGESTS[argv]
    assert run([*argv, "--out", str(tmp_path)]) == code
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == digests
