"""CLI contract tests: exit codes, determinism, witness replay, emitters."""

import cmath
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robertson_kit
from robertson_kit import cli, robertson
from robertson_kit.cli import main, replay_witness
from robertson_kit.radii import ConcavitySetting, phi_quadratic, phi_value, soundness_grid
from robertson_kit.robertson import (SchwarzSpec, extremal_member, generate_member, make_params,
                                    member_from_json, member_to_json)
from robertson_kit.schwarzian import ScanOpts, norm_estimates

# the child process imports the same package as this one
PACKAGE_ROOT = str(Path(robertson_kit.__file__).resolve().parent.parent)


def run_cli(*argv):
    """`robkit argv` in process through cli.main, as a CompletedProcess with its
    exit code and standard streams; argparse's usage errors exit by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def test_module_entry_point_exit_code(tmp_path):
    # a child process: `python -m robertson_kit` runs cli.main and exits with its code
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}
    argv = ["verify", "--theorem", "2.1iii", "--mode", "paper", "--samples", "1"]
    proc = subprocess.run([sys.executable, "-m", "robertson_kit", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["exit_code"] == 3
    assert proc.stderr.startswith("[VIOLATED] 2.1iii")
    usage = subprocess.run([sys.executable, "-m", "robertson_kit", "bogus-command"],
                           capture_output=True, text=True, env=env)
    assert usage.returncode == 2 and "usage: robkit" in usage.stderr


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # eval_at and the quadrature nodes import numpy.polynomial on first use:
    # loading it takes about 4 ms, which a run that needs neither would pay
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}
    code = "import sys, robertson_kit.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_verify_asserted_suite_passes(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify", "--theorem", "2.3", "--alpha", "0", "--beta", "0",
        "--samples", "10", "--seed", "7", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert rep["summary"]["violated"] == 0
    assert rep["checks"][0]["status"] == "holds"


def test_verify_printed_bound_yields_finding(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify", "--theorem", "2.1iii", "--mode", "paper",
        "--samples", "1", "--seed", "7", "--out", str(out),
    )
    assert proc.returncode == 3, proc.stderr
    rep = json.loads(out.read_text())
    rec = rep["checks"][0]
    assert rec["status"] == "violated" and not rec["asserted"]
    assert rec["worst"]["margin"] < 0
    # run alone, 2.1iii scans the general batch: omega = +-z and 1 sampled member,
    # and omega = z witnesses the printed bound's margin -k
    assert rec["samples"] == (2 + 1) * 24 * 48
    assert rec["worst"]["spec"] == {"kind": "unit_constant_times_z", "rotation": [1.0, 0.0],
                                    "power": 1}


def test_verify_usage_error_exit_2():
    proc = run_cli("verify", "--theorem", "nope")
    assert proc.returncode == 2
    proc2 = run_cli("bogus-command")
    assert proc2.returncode == 2


@pytest.mark.parametrize("command, flags", [
    (["verify"], {"alpha": "-1e-05", "beta": "2.5e-05", "Aco": "-1E+00", "rmax": "-1e-3"}),
    (["emit", "growth"], {"alpha": "-1e-05", "rmax": "-1e-05", "step": "-inf"}),
    (["radii", "probe"], {"alpha": "-1.5e-05", "Aco": "-2e0"}),
])
def test_float_flags_take_negative_values_in_exponent_form(command, flags):
    # Python 3.11's argparse took "-1e-05" for an option: "expected one argument"
    argv = [*command, *(x for key, value in flags.items() for x in (f"--{key}", value))]
    args = cli.build_parser().parse_args(argv)
    # verify keeps --Aco and --rmax under their RunConfig field names
    dests = {"Aco": "a_co", "rmax": "r_max"} if command == ["verify"] else {}
    assert ({key: getattr(args, dests.get(key, key)) for key in flags}
            == {k: float(v) for k, v in flags.items()})


# the options each command reads, as the README lists them
COMMAND_OPTIONS = {
    ("verify",): {"--theorem", "--alpha", "--beta", "--Aco", "--mode", "--samples", "--seed",
                  "--order", "--rmax", "--out"},
    ("emit", "growth"): {"--alpha", "--beta", "--rmax", "--step", "--out"},
    ("emit", "distortion"): {"--alpha", "--beta", "--rmax", "--step", "--samples", "--seed",
                             "--order", "--out"},
    ("emit", "phi"): {"--alpha", "--beta", "--step", "--Aco", "--mode", "--out"},
    ("emit", "member"): {"--alpha", "--beta", "--spec", "--order", "--out"},
    ("emit", "norm"): {"--alpha", "--beta", "--variant", "--weight", "--radial", "--angular",
                       "--rmax-scan", "--refine-tol", "--out"},
    ("radii", "concavity"): {"--alpha", "--beta", "--Aco", "--mode"},
    ("radii", "convexity"): {"--alpha", "--beta", "--mode"},
    ("radii", "probe"): {"--alpha", "--beta", "--seed", "--Aco", "--budget"},
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS, ids="-".join)
def test_each_command_declares_the_options_it_reads(command, capsys):
    # argparse refuses every option a command does not declare
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*command, "--help"])
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"} == (
        COMMAND_OPTIONS[command])


@pytest.mark.parametrize("argv, error", [
    pytest.param(argv, "unrecognized arguments", id=name) for name, argv in [
        ("emit-growth-samples", ["emit", "growth", "--samples", "3"]),
        ("emit-distortion-Aco", ["emit", "distortion", "--Aco", "1.5"]),
        ("emit-phi-rmax", ["emit", "phi", "--rmax", "0.5"]),
        ("emit-member-seed", ["emit", "member", "--spec", "spec.json", "--seed", "3"]),
        # probe and norm members are read by their exact P_f and S_f alone
        ("emit-norm-order-4097", ["emit", "norm", "--order", "4097"]),
        ("emit-norm-order-1", ["emit", "norm", "--order", "1"]),
        ("radii-probe-order-4097", ["radii", "probe", "--order", "4097"]),
        # a prefix stands for no option: read as --rmax-scan, --rmax 0.99
        # would scan to 0.99, while emit norm reads no --rmax
        ("emit-norm-rmax-prefix", ["emit", "norm", "--rmax", "0.99", "--weight", "1"]),
        ("verify-theorem-prefix", ["verify", "--theo", "2.3"]),
        ("radii-probe-budget-prefix", ["radii", "probe", "--bud", "10"]),
    ]] + [
    pytest.param(["emit", "member"], "required: --spec", id="emit-member-no-spec"),
    # options come after the emit target
    pytest.param(["emit", "--alpha", "0.3", "growth"], "invalid choice", id="emit-option-first"),
])
def test_unread_options_exit_2(capsys, argv, error):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2 and error in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("radii", "concavity", "--order", "64"),
    ("radii", "convexity", "--seed", "3"),
])
def test_radii_formulas_reject_member_options(argv):
    # the closed-form radii build no members, so --order and --seed are not theirs
    proc = run_cli(*argv)
    assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr


def test_verify_invalid_params_exit_2():
    proc = run_cli("verify", "--theorem", "2.3", "--alpha", "2.0")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "2.3", "--samples", "1", "--rmax", "1.5"),
        ("emit", "norm", "--rmax-scan", "1.5"),
    ],
)
def test_bad_scan_radius_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_scan_radius_near_boundary_needs_no_series_tail():
    # generated members evaluate P_f exactly, so r_max 0.99 has no series
    # tail to certify; omega = +-z^2 give 2kr = 1.98 there, margin 0.02
    proc = run_cli("verify", "--theorem", "2.3", "--samples", "1", "--rmax", "0.99")
    assert proc.returncode == 0, proc.stderr
    (record,) = json.loads(proc.stdout)["checks"]
    assert record["status"] == "holds"
    assert abs(record["min_margin"] - 0.02) < 1e-3


def test_classical_checks_hold(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify", "--theorem", "22.4", "--samples", "8", "--seed", "3",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr


def test_corrected_concavity_asserted_holds(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify", "--theorem", "concavity", "--mode", "corrected",
        "--samples", "10", "--seed", "5", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr


def test_paper_concavity_is_finding(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify", "--theorem", "concavity", "--mode", "paper",
        "--samples", "10", "--seed", "5", "--out", str(out),
    )
    # the printed radius is unsound; the canonical rotation member
    # witnesses it, so this must come back as a finding
    assert proc.returncode == 3, proc.stderr
    rep = json.loads(out.read_text())
    assert rep["checks"][0]["status"] == "violated"


# ---------------------------------------------------------------------------
# determinism and replay
# ---------------------------------------------------------------------------


def _strip_timestamp(report: dict) -> dict:
    report = dict(report)
    report.pop("generated_at", None)
    return report


def test_report_determinism(tmp_path):
    args = (
        "verify", "--theorem", "2.1ii", "--alpha", "0.3", "--beta", "0.2",
        "--samples", "6", "--seed", "21",
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    ra = _strip_timestamp(json.loads(a.read_text()))
    rb = _strip_timestamp(json.loads(b.read_text()))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_witness_replay_within_tolerance(tmp_path):
    out = tmp_path / "r.json"
    run_cli(
        "verify", "--theorem", "2.1iii", "--mode", "paper",
        "--samples", "5", "--seed", "19", "--out", str(out),
    )
    rep = json.loads(out.read_text())
    w = rep["checks"][0]["worst"]
    assert abs(replay_witness(w) - w["margin"]) < 1e-12


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.7853981633974483, 0.25)])
def test_witness_replay_every_check(tmp_path, alpha, beta):
    out = tmp_path / "r.json"
    main(
        [
            "verify", "--theorem", "all", "--samples", "2",
            "--alpha", str(alpha), "--beta", str(beta), "--out", str(out),
        ]
    )
    records = json.loads(out.read_text())["checks"]
    unwitnessed = [r["id"] for r in records if r["worst"] is None]
    assert unwitnessed == ["convexity:paper_literal"]
    for r in records:
        if r["worst"] is not None:
            w = r["worst"]
            assert abs(replay_witness(w) - w["margin"]) < 1e-12, r["id"]


@pytest.mark.parametrize(
    "options, code",
    [
        pytest.param(["--alpha", "0.0", "--beta", "0.0"], 3, id="0.0-0.0"),
        pytest.param(["--alpha", "0.7853981633974483", "--beta", "0.25"], 3,
                     id="0.7853981633974483-0.25"),
        pytest.param(["--alpha", "1.2", "--beta", "0"], 3, id="1.2-0"),
        pytest.param(["--mode", "paper"], 3, id="paper"),
        pytest.param(["--beta", "0.9"], 1, id="0-0.9"),  # k = 0.1: check 2.5 fails
    ],
)
def test_witness_replay_exact_at_defaults(tmp_path, options, code):
    # at every golden verify configuration each witness, 2.2's included (its
    # scan and its replay both read bounds.growth_envelope), replays to its
    # recorded margin bit for bit
    out = tmp_path / "r.json"
    assert main(["verify", "--theorem", "all", *options, "--out", str(out)]) == code
    for r in json.loads(out.read_text())["checks"]:
        if r["worst"] is not None:
            assert replay_witness(r["worst"]) == r["worst"]["margin"], r["id"]


def test_witness_replay_norm_check(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify", "--theorem", "2.4", "--alpha", "0.7853981633974483",
        "--beta", "0.25", "--samples", "5", "--seed", "7", "--out", str(out),
    )
    assert proc.returncode == 3  # printed Schwarzian bound fails off axis
    rep = json.loads(out.read_text())
    w = rep["checks"][0]["worst"]
    assert w["margin"] < 0
    assert abs(replay_witness(w) - w["margin"]) < 1e-12


def test_verify_builds_each_member_and_norm_once(tmp_path, monkeypatch):
    generated, norms = [], []
    real_generate, real_norms = cli.generate_member, cli.norm_estimates

    def generate(*args, **kwargs):
        generated.append((args, tuple(sorted(kwargs.items()))))
        return real_generate(*args, **kwargs)

    def estimates(members, weights, *args, **kwargs):
        # the (member, weight) pairs of one batch call
        norms.extend((id(m), w) for m in members for w in weights)
        return real_norms(members, weights, *args, **kwargs)

    monkeypatch.setattr(cli, "generate_member", generate)
    monkeypatch.setattr(cli, "norm_estimates", estimates)
    argv = ["verify", "--theorem", "all", "--samples", "2", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 3
    n_generated = len(generated)
    # the general batch of omega = +-z and the sp0 batch of omega = z^2, each
    # with 2 sampled members; convex at alpha = beta = 0 is the general batch again
    assert n_generated == len(set(generated)) == (2 + 2) + (1 + 2)
    # weight 1 (2.3) and weight 2 (2.4, reused by AB) over the sp0 batch,
    # each pair estimated once
    assert len(norms) == len(set(norms)) == 2 * (1 + 2)
    # a second run recomputes everything: no cache outlives a run
    assert main(argv) == 3
    assert len(generated) == 2 * n_generated
    assert len(norms) == 2 * 2 * (1 + 2)
    # 2.3 alone needs no Schwarzian norm
    del norms[:]
    assert main(["verify", "--theorem", "2.3", "--samples", "2",
                 "--out", str(tmp_path / "r23.json")]) == 0
    assert len(norms) == len(set(norms)) == 1 + 2
    assert {w for _, w in norms} == {1}


def test_verify_scans_member_blocks_and_p_on_grid_once(tmp_path, monkeypatch):
    # each grid-scanned record walks its member batch, in order, in blocks of
    # at most cli.ROW_BYTES of values (one row at least), one RunCache.values
    # call per block; and one run evaluates P on cli.GRID once per member
    scans, p_rows = [], []
    real_scan, real_values = cli._grid_min, cli.RunCache.values

    def scan(members, w, cache, *args):
        scans.append((list(map(id, members)), []))
        return real_scan(members, w, cache, *args)

    def values(self, members, q, zs):
        scans[-1][1].append((list(map(id, members)), zs.size))
        return real_values(self, members, q, zs)

    class Batch(cli.MemberBatch):
        def values(self, q, z):
            if q == "P" and z is cli.GRID:
                p_rows.extend(map(id, self.members))
            return super().values(q, z)

    monkeypatch.setattr(cli, "_grid_min", scan)
    monkeypatch.setattr(cli.RunCache, "values", values)
    monkeypatch.setattr(cli, "MemberBatch", Batch)
    out = str(tmp_path / "r.json")
    assert main(["verify", "--theorem", "all", "--samples", "8", "--out", out]) == 3
    # 2.1ii, 2.1iii paper and corrected, 2.5, 22.3, 22.4, concavity paper and corrected
    assert len(scans) == 8
    for members, blocks in scans:
        assert [i for block, _ in blocks for i in block] == members
        for block, size in blocks:
            assert len(block) == 1 or 16 * len(block) * size <= cli.ROW_BYTES
    assert max(len(block) for _, blocks in scans for block, _ in blocks) > 1
    # the 2 canonical and 8 sampled members of the general batch, which
    # 2.1iii reads too (and convex at alpha = beta = 0)
    assert len(p_rows) == len(set(p_rows)) == 2 + 8


def test_verify_computes_growth_envelopes_once(tmp_path, monkeypatch):
    calls, replays = [], []
    real, real_residual = cli.bounds.growth_envelope, cli._envelope_residual

    def growth(params, r, *args, **kwargs):
        calls.append((params, r))
        return real(params, r, *args, **kwargs)

    def residual(members, zs, values, w):
        replays.append(w["kind"])
        return real_residual(members, zs, values, w)

    monkeypatch.setattr(cli.bounds, "growth_envelope", growth)
    monkeypatch.setattr(cli, "_envelope_residual", residual)
    argv = ["verify", "--theorem", "2.2", "--samples", "3", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    # the 24 radii once, shared by the 2 canonical and 3 sampled SP0 members,
    # then one envelope per replayed growth witness, at its |z|
    batch, witnesses = calls[:24], calls[24:]
    assert len(set(batch)) == 24 and [r for _, r in batch] == list(map(float, cli.RADII))
    assert replays and len(witnesses) == replays.count("growth")
    assert all(r in cli.RADII and p == batch[0][0] for p, r in witnesses)


def test_witness_is_first_member_within_tie_of_minimum(monkeypatch):
    margins = [0.5, np.nextafter(0.5, 0.0)]
    stub = cli.Check(
        anchor=lambda w: "stub",
        batch="general",
        residual=lambda m, z, values, w: np.zeros(z.shape),
        asserted=lambda cfg, mode: True,
        scan=lambda members, w, cache: [(margin, 0.5 + 0j, 1, {}) for margin in margins],
    )
    monkeypatch.setitem(cli.CHECKS, "stub", stub)
    cfg = cli.RunConfig(samples=0, order=16)
    (rec,) = cli._run_check("stub", cfg, cli.RunCache())
    # two canonical members, 1 ulp apart: the exact minimum is reported,
    # the first member is the witness, with its own margin
    assert rec.min_margin == margins[1] < margins[0]
    assert rec.worst["spec"]["rotation"] == [1.0, 0.0]
    assert rec.worst["margin"] == margins[0]


@pytest.mark.parametrize("margins, member", [([math.nan, 0.5], 0), ([0.5, math.nan], 1)])
def test_nan_margin_is_a_typed_error_naming_check_and_member(monkeypatch, tmp_path, margins,
                                                             member):
    # Python's min skips a NaN: the record would hold on the other member
    stub = cli.Check(
        anchor=lambda w: "stub",
        batch="general",
        residual=lambda m, z, values, w: np.zeros(z.shape),
        asserted=lambda cfg, mode: True,
        scan=lambda members, w, cache: [(margin, 0.5 + 0j, 1, {}) for margin in margins],
    )
    monkeypatch.setitem(cli.CHECKS, "stub", stub)
    with pytest.raises(cli.NaNMargin, match=f"check stub: member {member}, SchwarzSpec"):
        cli._run_check("stub", cli.RunConfig(samples=0, order=16), cli.RunCache())
    monkeypatch.setitem(cli.CHECK_BUILDERS, "stub", functools.partial(cli._run_check, "stub"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--theorem", "stub", "--samples", "0", "--order", "16",
                     "--out", str(tmp_path / "r.json")])
    assert code == 2 and err.getvalue().startswith(f"NaNMargin: check stub: member {member},")
    assert not (tmp_path / "r.json").exists()


def test_grid_witness_is_first_point_within_tie_of_minimum(monkeypatch):
    # a later grid point undercuts the first by 1 ulp: the record keeps the
    # exact minimum, and the witness is the first point, with its own margin
    low = np.nextafter(0.5, 0.0)

    def residual(m, z, values, w):
        # marks grid points 3 and 40 by value, so the scan's point blocks do not matter
        return np.where(z == cli.GRID[3], 0.5, np.where(z == cli.GRID[40], low, 0.75))

    stub = cli.Check(
        anchor=lambda w: "stub",
        batch="sp0",
        residual=residual,
        asserted=lambda cfg, mode: True,
        q="P",
    )
    monkeypatch.setitem(cli.CHECKS, "stub", stub)
    cfg = cli.RunConfig(samples=0, order=16)
    (rec,) = cli._run_check("stub", cfg, cli.RunCache())
    rs = cli.chebyshev_radii(24, 0.9)
    assert rec.min_margin == low
    assert rec.worst["margin"] == 0.5
    assert complex(*rec.worst["z"]) == rs[0] * np.exp(2j * np.pi * 3 / 48)


GRID_RECORDS = [("2.1ii", None), ("2.1iii", "paper"), ("2.1iii", "corrected"), ("2.5", None),
                ("22.3", None), ("22.4", None), ("concavity", "paper"), ("concavity", "corrected")]


@pytest.mark.parametrize("row_bytes", [1, cli.ROW_BYTES, 10**9])
def test_grid_rows_match_one_member_scans(monkeypatch, row_bytes):
    # blocks of one row, the default, and the whole batch: each member's
    # margin, z and witness margin are those of its own values and residual
    # alone.  The plane extremal (closed form), a member read back from JSON
    # (rebuilt from its spec) and omega = z (xi = 1: 2.5's rows are +inf) are
    # among them
    monkeypatch.setattr(cli, "ROW_BYTES", row_bytes)
    cache = cli.RunCache()
    run, params, members = cache.members(cli.RunConfig(samples=6, order=64), "general")
    members = [*members, extremal_member(params, "plane", 1.0, order=64),
               member_from_json(member_to_json(members[2]))]
    assert members[0].exact_schwarz.kind == "unit_constant_times_z"
    assert cli.bounds.xi_of_member(members[0]) == 1.0
    for cid, mode in GRID_RECORDS:
        check = cli.CHECKS[cid]
        w = {"check": cid, **({} if mode is None else {"mode": mode}),
             **check.extras(run, params, mode)}
        zs = cli.GRID if cid != "concavity" else soundness_grid(w["radius"])[1]
        scanned = (check.scan or cli._grid_min)(members, w, cache)
        assert len(scanned) == len(members)
        for m, (margin, z, samples, extra) in zip(members, scanned):
            row = check.residual([m], zs, m.values(check.q, zs), w).reshape(-1)
            j = np.argmax(row <= row.min() + robertson.WITNESS_TIE)
            assert (margin, z, samples, extra["margin"]) == (row.min(), zs[j], zs.size, row[j]), cid


NEAR_HALF_PI = st.floats(min_value=math.pi / 2 - 1e-6, max_value=math.pi / 2, exclude_max=True)


@settings(max_examples=10, deadline=None)
@given(
    alpha=st.one_of(NEAR_HALF_PI, NEAR_HALF_PI.map(lambda a: -a)),
    beta=st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
    order=st.sampled_from([8, 64]),
    samples=st.sampled_from([0, 6]),
)
def test_grid_rows_hostile_parameters_end_in_a_verdict(alpha, beta, order, samples):
    # k -> 0 within 1e-6 of alpha = +-pi/2 and near beta = 1: every grid row
    # exits 0 or 3 with no member's margin NaN and a finite witness, or 2
    # naming a typed error
    scanned, real = [], cli._grid_min

    def scan(members, w, cache, *args):
        rows = real(members, w, cache, *args)
        scanned.extend(rows)
        return rows

    with mock.patch.object(cli, "_grid_min", scan):
        for theorem in ("2.1ii", "2.1iii", "2.5", "22.3", "22.4", "concavity"):
            argv = ["verify", "--theorem", theorem, "--alpha", repr(alpha), "--beta", repr(beta),
                    "--order", str(order), "--samples", str(samples)]
            with tempfile.TemporaryDirectory() as tmp:
                out, err = Path(tmp) / "r.json", io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([*argv, "--out", str(out)])
                if code == 2:
                    assert err.getvalue().split(":")[0] in TYPED_ERRORS, err.getvalue()
                    continue
                assert code in (0, 3), (theorem, err.getvalue())
                records = json.loads(out.read_text())["checks"]
            for record in records:
                worst = record["worst"]
                if worst is not None:
                    numbers = [record["min_margin"], worst["margin"], *worst["z"]]
                    assert all(math.isfinite(x) for x in numbers), record
    assert scanned
    for margin, z, _, extra in scanned:
        assert not any(math.isnan(x) for x in (margin, z.real, z.imag, extra["margin"]))


def _finite_numbers(report) -> bool:
    """No NaN or inf anywhere in a parsed report, and no margin left out as null."""
    if isinstance(report, dict):
        numbers = all(map(_finite_numbers, report.values()))
        return numbers and report.get("min_margin", 0) is not None
    if isinstance(report, list):
        return all(map(_finite_numbers, report))
    return not isinstance(report, float) or math.isfinite(report)


@settings(max_examples=10, deadline=None)
@given(
    alpha=st.one_of(NEAR_HALF_PI, NEAR_HALF_PI.map(lambda a: -a)),
    beta=st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
    order=st.sampled_from([8, 64]),
    samples=st.sampled_from([0, 3]),
)
def test_norm_rows_hostile_parameters_end_in_a_verdict(alpha, beta, order, samples):
    # k -> 0 within 1e-6 of alpha = +-pi/2 and near beta = 1: each norm row
    # exits 0 or 3 with every number of its report finite, or 2 naming a
    # typed error other than NaNMargin
    for theorem in ("2.3", "2.4", "AB"):
        argv = ["verify", "--theorem", theorem, "--alpha", repr(alpha), "--beta", repr(beta),
                "--order", str(order), "--samples", str(samples)]
        with tempfile.TemporaryDirectory() as tmp:
            out, err = Path(tmp) / "r.json", io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(out)])
            if code == 2:
                assert err.getvalue().split(":")[0] in TYPED_ERRORS, err.getvalue()
                continue
            assert code in (0, 3), (theorem, err.getvalue())
            report = json.loads(out.read_text())
        (record,) = report["checks"]
        assert record["worst"] is not None and _finite_numbers(report), report


def _verify(argv):
    """(exit code, stderr, parsed report or None) of one in-process verify run."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp) / "r.json", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        return code, err.getvalue(), json.loads(out.read_text()) if out.exists() else None


def _ends_in_a_verdict(code, err, report) -> bool:
    """Exit 2 naming a typed error other than NaNMargin, or exit 0 or 3 where
    every record is degenerate, holds with no witness (each member's bound
    +inf, as 2.5's at xi = 1), or has a witness and finite numbers."""
    if code == 2:
        return err.split(":")[0] in TYPED_ERRORS
    return code in (0, 3) and all(
        r["status"] == "degenerate" or (r["worst"] is not None and _finite_numbers(r))
        or (r["status"], r["min_margin"], r["worst"]) == ("holds", None, None)
        for r in report["checks"])


# a Blaschke zero with 1 - 1e-6 <= |a| < 1, where 1 - conj(a) z cancels near a/|a|
BOUNDARY_ZERO = st.builds(lambda t, theta: (1 - t) * cmath.exp(1j * theta),
                          st.floats(min_value=1e-16, max_value=1e-6),
                          st.floats(min_value=0, max_value=2 * math.pi)).filter(lambda a: abs(a) < 1)


@settings(max_examples=8, deadline=None)
@given(
    zeros=st.lists(BOUNDARY_ZERO, min_size=1, max_size=3),
    theta=st.floats(min_value=0, max_value=2 * math.pi),
    alpha=st.one_of(st.just(0.0), st.floats(min_value=-1.5, max_value=1.5)),
    beta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
    order=st.sampled_from([8, 512, 4096]),
)
def test_rows_with_blaschke_zeros_near_the_circle_end_in_a_verdict(zeros, theta, alpha, beta,
                                                                   order):
    # the sampled member of every batch is a Blaschke product with zeros
    # |a| -> 1 (beside 1 or 2 at the origin): the grid rows, the norm rows
    # and 2.2 each end in a verdict with finite numbers, or in a typed error
    def specs(seed, count, sp0=False):
        return [SchwarzSpec(kind="blaschke_product", zeros=(0j,) * (1 + sp0) + tuple(zeros),
                            rotation=cmath.exp(1j * theta))]

    with mock.patch.object(cli.sampling, "sample_schwarz_specs", specs):
        for theorem in ("2.1ii", "2.1iii", "2.5", "22.3", "22.4", "concavity", "2.3", "2.4",
                        "AB", "2.2"):
            run = _verify(["verify", "--theorem", theorem, f"--alpha={alpha!r}",
                           f"--beta={beta!r}", "--order", str(order), "--samples", "1"])
            assert _ends_in_a_verdict(*run), (theorem, run)


@pytest.mark.parametrize("argv", [["--order", "8"], ["--order", "154"],
                                  ["--order", "4096", "--samples", "2"]])
def test_verify_all_at_low_and_greatest_orders_ends_in_a_verdict(argv):
    # check 2.2's f' and f series carry tails at r = 0.9 of order 1 at
    # order 8 and 7.4e-7 at 154, enough to read the asserted envelopes
    # "violated" (exit 1; by -3.7e-8 at 154): a typed error instead, as a
    # tail above the 1e-9 slack could move a margin across it
    code, err, _ = run = _verify(["verify", "--theorem", "all", *argv])
    assert _ends_in_a_verdict(*run), run
    if argv[1] != "4096":
        assert code == 2 and err.startswith("TailToleranceUnmet"), run


def test_concavity_scan_peak_memory():
    # one concavity record over its 96-point soundness circle with the 52
    # members of the default batch: blocks of 42 rows of cli.ROW_BYTES peak
    # at about 302 KB (the whole batch at once: 340 KB; a 2,304-point grid
    # in blocks of one row: 382 KB)
    cache = cli.RunCache()
    run, params, members = cache.members(cli.RunConfig(), "general")
    w = {"check": "concavity", "mode": "corrected",
         **cli.CHECKS["concavity"].extras(run, params, "corrected")}
    assert len(members) == 52 and soundness_grid(w["radius"])[1].size == 96
    cli.CHECKS["concavity"].scan(members, w, cache)
    tracemalloc.start()
    try:
        cli.CHECKS["concavity"].scan(members, w, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 450_000, peak


def test_run_config_defaults_match_verify_parser():
    # an in-process RunConfig() runs what `robkit verify` runs, order included
    args, cfg = cli.build_parser().parse_args(["verify"]), cli.RunConfig()
    assert cfg.order == args.order == cli.VERIFY_ORDER
    assert vars(args) == {"command": "verify", **vars(cfg)}


def test_verify_runs_recurrences_only_for_series(tmp_path, monkeypatch):
    # P_f and S_f come from the Schwarz data or the closed form, and f' of a
    # generated member from the O(N d) recurrence of f'' V = U f': no exp, log
    # or pow and no series division
    TS = robertson_kit.series.TruncatedSeries
    recurrences = []

    def counting(name, real):
        def call(self, *args):
            if name != "div" or isinstance(args[0], TS):
                recurrences.append(name)
            return real(self, *args)
        return call

    for name, attr in (("exp", "exp"), ("log", "log"), ("pow", "pow"), ("div", "__truediv__")):
        monkeypatch.setattr(TS, attr, counting(name, getattr(TS, attr)))
    out = str(tmp_path / "r.json")
    for alpha, beta in (("0", "0"), ("0.7853981633974483", "0.25")):
        argv = ["verify", "--theorem", "all", "--alpha", alpha, "--beta", beta]
        assert main([*argv, "--samples", "2", "--out", out]) == 3  # reported findings only
        assert recurrences == [], (alpha, beta)


def test_verify_computes_xi_once_per_member(tmp_path, monkeypatch):
    # check 2.5's grid scan runs its residual once per block of members
    # (4 blocks of cli.ROW_BYTES on cli.GRID), and xi once per member
    calls = []
    real = cli.bounds.xi_of_member

    def counting(member):
        calls.append(member)
        return real(member)

    monkeypatch.setattr(cli.bounds, "xi_of_member", counting)
    out = str(tmp_path / "r.json")
    assert main(["verify", "--theorem", "2.5", "--samples", "8", "--out", out]) == 0
    assert len(calls) == 10 and len(set(map(id, calls))) == 10


def test_check_2_5_fails_at_alpha_0_for_small_k():
    # README finding 6: at k = 0.1 a member with one free Blaschke zero breaks
    # the asserted pointwise Schwarzian bound; its rim limit 8k|u - G1|/u^2
    # (u = 1.279) exceeds the bound at |z| = 1 by 0.1000
    code, _, report = _verify(["verify", "--theorem", "2.5", "--beta", "0.9"])
    (rec,) = report["checks"]
    assert code == 1 and report["exit_code"] == 1
    assert (rec["id"], rec["status"], rec["asserted"]) == ("2.5", "violated", True)
    assert abs(rec["min_margin"] - (-5.3635e-2)) < 1e-6
    w = rec["worst"]
    assert w["spec"]["kind"] == "blaschke_product" and w["spec"]["zeros"][0] == [0.0, 0.0]
    assert np.allclose(w["spec"]["zeros"][1], [-0.006140, -0.585730], atol=1e-6)
    assert np.allclose(w["spec"]["rotation"], [0.796226, -0.604999], atol=1e-6)
    assert np.allclose(w["z"], [-0.449759, 0.779006], atol=1e-6)
    assert replay_witness(w) == w["margin"] == rec["min_margin"]
    # beta 0.8 and 0.85 hold; 0.99 and 0.999 fail too
    for beta, low in (("0.8", 0.1125), ("0.85", 1.967e-3), ("0.99", -1.525e-2),
                      ("0.999", -1.648e-3)):
        code, _, report = _verify(["verify", "--theorem", "2.5", "--beta", beta])
        assert code == (0 if low > 0 else 1), beta
        assert abs(report["checks"][0]["min_margin"] - low) < 1e-3 * abs(low), beta


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.999])
def test_omega_z_decides_2_1iii_at_alpha_0(beta):
    # why 2.1iii's batch needs no plane extremal: on GRID its least margin lies
    # above omega = z's by 0.1005 k in both modes, and the printed record's
    # witness is omega = z, at margin -k
    params = make_params(0.0, beta)
    rot = generate_member(params, SchwarzSpec("unit_constant_times_z"), order=cli.VERIFY_ORDER)
    plane = extremal_member(params, "plane", 1.0, order=cli.VERIFY_ORDER)
    for mode in ("paper", "corrected"):
        low, plane_low = (robertson.check_iii(params, cli.GRID, m.values("P", cli.GRID), mode).min()
                          for m in (rot, plane))
        assert plane_low - low > 0.1 * params.k, (mode, low, plane_low)
    _, _, report = _verify(["verify", "--theorem", "2.1iii", "--mode", "paper",
                            "--beta", repr(beta)])
    (rec,) = report["checks"]
    assert rec["worst"]["spec"] == SchwarzSpec("unit_constant_times_z").to_json()
    assert abs(rec["min_margin"] + params.k) < 1e-12
    assert abs(rec["worst"]["margin"] + params.k) < 1e-12


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (math.pi / 4, 0.25), (1.2, 0.0)])
def test_omega_minus_z_squared_adds_nothing_to_the_sp0_checks(alpha, beta):
    # why the SP0 batch holds omega = z^2 and not -z^2: -z^2 is z^2 turned by
    # i, and 2.2, 2.3, 2.4 and AB do not change under rotation; the two give
    # the same envelope margins and weight-1 and weight-2 norms
    params = make_params(alpha, beta)
    pair = [generate_member(params, SchwarzSpec("unit_constant_times_z", rotation=rot, power=2),
                            order=cli.VERIFY_ORDER) for rot in (1.0, -1.0)]
    plus, minus = cli.bounds.envelope_checks(pair, cli.RADII)
    assert abs(plus.distortion_min_margin - minus.distortion_min_margin) < 1e-12
    assert abs(plus.growth_min_margin - minus.growth_min_margin) < 1e-12
    for plus, minus in zip(*norm_estimates(pair, [1, 2], ScanOpts(r_max=0.95))):
        assert abs(plus.value - minus.value) < 1e-12, plus.weight_exponent


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_emit_growth_with_oracles(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_cli(
        "emit", "growth", "--alpha", "0", "--beta", "0",
        "--rmax", "0.9", "--step", "0.05", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    raw = out.read_bytes().decode("utf-8")
    assert "\r" not in raw
    rows = list(csv.DictReader(raw.splitlines()))
    assert rows[0].keys() == {"r", "lower", "upper", "oracle_lower", "oracle_upper"}
    for row in rows:
        assert abs(float(row["lower"]) - float(row["oracle_lower"])) < 1e-10
        assert abs(float(row["upper"]) - float(row["oracle_upper"])) < 1e-10
        r = float(row["r"])
        assert abs(float(row["upper"]) - (math.atanh(r) if r < 1 else 0)) < 1e-9


def test_emit_distortion_samples_lie_in_envelope(tmp_path):
    # at alpha = 0 every sampled |f'| lies between the distortion envelopes;
    # 12 members take the batched f' recurrence, and 951 radii span 4 blocks.
    # Order 512: at 256 an f' tail at r = 0.95 is 2.0e-6, above TAIL_TOL
    for step, count in (("0.05", 20), ("0.001", 951)):
        out = tmp_path / "d.csv"
        argv = ["emit", "distortion", "--alpha", "0", "--beta", "0.25", "--samples", "12",
                "--order", "512", "--rmax", "0.95", "--step", step, "--out", str(out)]
        assert main(argv) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == count
        assert rows[0]["r"] == "0" and rows[0]["sampled_min"] == rows[0]["sampled_max"] == ""
        for row in rows[1:]:
            lower, upper = float(row["lower"]), float(row["upper"])
            for key in ("sampled_min", "sampled_max"):
                assert lower - 1e-9 <= float(row[key]) <= upper + 1e-9, row
            assert float(row["sampled_min"]) <= float(row["sampled_max"])


def test_emit_distortion_refuses_truncated_series(capsys):
    # at order 8 the f' series read at r = 0.9 carry a tail of order 1: its
    # sampled_max would read 1.36694270097 against 1.41897229548 at order 512
    assert main(["emit", "distortion", "--samples", "3", "--order", "8"]) == 2
    assert capsys.readouterr().err.startswith("TailToleranceUnmet: order-8 series tail")
    assert main(["emit", "distortion", "--samples", "3", "--order", "512"]) == 0


def test_emit_phi_curves(tmp_path):
    # the rows are i step for i step <= 1, as in emit growth and distortion:
    # --step 0.3 and 0.4 do not end at r = 1
    out = tmp_path / "phi.csv"
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    cp = phi_quadratic(p, st, "paper")
    cc = phi_quadratic(p, st, "corrected")
    for step, r_column in (
        ("0.125", ["0", "0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875", "1"]),
        ("0.3", ["0", "0.3", "0.6", "0.9"]),
        ("0.4", ["0", "0.4", "0.8"]),
    ):
        argv = ["emit", "phi", "--Aco", "2", "--alpha", "0", "--beta", "0", "--step", step]
        assert main([*argv, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["r"] for row in rows] == r_column, step
        for row in rows:
            r = float(row["r"])
            assert abs(float(row["phi_paper"]) - phi_value(cp, r)) < 1e-9
            assert abs(float(row["phi_corrected"]) - phi_value(cc, r)) < 1e-9


def test_emit_member_roundtrip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "kind": "blaschke_product",
                "zeros": [[0.0, 0.0], [0.3, -0.2]],
                "rotation": [0.0, 1.0],
            }
        )
    )
    out = tmp_path / "member.json"
    proc = run_cli(
        "emit", "member", "--spec", str(spec_path), "--order", "64",
        "--alpha", "0.2", "--beta", "0.1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(out.read_text())
    from robertson_kit.robertson import generate_member, member_from_json, SchwarzSpec

    member = member_from_json(d)
    rebuilt = generate_member(
        make_params(0.2, 0.1), SchwarzSpec.from_json(d["provenance"]), order=64
    )
    assert np.array_equal(member.f.coeffs, rebuilt.f.coeffs)
    assert np.array_equal(member.f_prime.coeffs, rebuilt.f_prime.coeffs)


def test_emit_member_missing_spec_exit_2(tmp_path):
    for argv in (["--spec", str(tmp_path / "absent.json")], []):
        proc = run_cli("emit", "member", *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "spec, argv",
    [
        ('{"kind": "blaschke_product", "zeros": [[1]]}', None),
        ('{"kind": "polynomial", "coeffs": [["a", 0]]}', None),
        ("[1, 2]", None),
        ('{"kind": "unit_constant_times_z", "power": "x"}', None),
        ('{"kind": "unit_constant_times_z", "power": 100000}', None),
        ('{"kind": "polynomial", "coeffs": [[0, 0], [NaN, 0]]}', None),
        ('{"kind": "unit_constant_times_z", "rotation": [NaN, 0]}', None),
        ('{"kind": "polynomial", "coeffs": [[0, 0], [1e400, 0]]}', None),
        ('{"kind": "polynomial", "coeffs": [[0, 0], [1%s, 0]]}' % ("0" * 400), None),
        (None, ["emit", "growth", "--step", "0"]),
        (None, ["emit", "phi", "--step", "0"]),
        (None, ["emit", "phi", "--step", "nan"]),
        (None, ["emit", "phi", "--step", "inf"]),
        (None, ["emit", "norm", "--angular", "0"]),
        (None, ["emit", "norm", "--radial", "0"]),
        (None, ["emit", "growth", "--rmax", "nan"]),
        (None, ["emit", "distortion", "--rmax", "nan"]),
        (None, ["emit", "growth", "--rmax", "1"]),
        (None, ["emit", "distortion", "--rmax", "-0.5"]),
        (None, ["emit", "growth", "--step", "inf"]),
        *((None, ["emit", what, "--step", step])
          for what in ("growth", "distortion", "phi") for step in ("1e-9", "1e-300")),
        # typed numerical errors: order-8 f' series read at r = 0.9 (TailToleranceUnmet)
        (None, ["emit", "distortion", "--samples", "3", "--order", "8"]),
        (None, ["verify", "--samples", "-1"]),
        (None, ["radii", "probe", "--budget", "-1"]),
        # orders above series.MAX_ORDER, and more coefficients than it allows
        (None, ["verify", "--order", "4097"]),
        pytest.param('{"kind": "polynomial", "coeffs": [%s]}' % ", ".join(["[0, 0]"] * 4098),
                     None, id="4098-coeffs"),
        # not Schwarz functions: |omega| > 1 on the unit circle, although < 1 on |z| = 0.999
        *(pytest.param('{"kind": "polynomial", "coeffs": [%s[%s, 0]]}' % ("[0, 0], " * n, c),
                       None, id=f"{c}z^{n}") for n, c in ((20, 1.01), (1000, 1.5))),
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, spec, argv):
    # in process: an exception that escapes main fails the test
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(spec)
        argv = ["emit", "member", "--spec", str(path)]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_numerical_error_exit_2_names_the_error(capsys):
    # check 2.2 reads order-8 f and f' series at r = 0.9, far from their values
    assert main(["verify", "--theorem", "2.2", "--samples", "0", "--order", "8"]) == 2
    assert capsys.readouterr().err.startswith("TailToleranceUnmet: order-8 series tail")


def test_emit_growth_near_the_circle(capsys):
    # the growth quadrature runs in u = artanh t and arsinh t: at k = 1 it
    # converges at r = 1 - 1e-9, where (1 - t^2)^{-k} lost it from r = 0.9999
    assert main(["emit", "growth", "--rmax", "0.999999999", "--step", "0.999999999"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["r"] for row in rows] == ["0", "0.999999999"]
    assert float(rows[1]["upper"]) == float(f"{math.atanh(0.999999999):.12g}")
    assert float(rows[1]["lower"]) == float(f"{math.atan(0.999999999):.12g}")


@pytest.mark.parametrize("what", ["growth", "distortion"])
@pytest.mark.parametrize("rmax, last", [("0.94999999999995", "0.9"), ("0.999999999999999", "0.95"),
                                        ("0.3", "0.3")])
def test_emit_rows_stop_at_rmax(capsys, what, rmax, last):
    # no row lies past --rmax: a fixed slack of 1e-12 once added a row at 0.95
    # for rmax 0.95 - 5e-14, and one at r = 1.0 for 1 - 1e-15 (exit 2); the row
    # that rounding puts 1 ulp past rmax (6 x 0.05 > 0.3) reads rmax itself
    assert main(["emit", what, "--rmax", rmax]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rows[-1]["r"] == last and len(rows) == round(float(last) / 0.05) + 1
    assert all(float(row["r"]) <= float(rmax) for row in rows)


def test_emit_norm_json(tmp_path):
    argv = ["emit", "norm", "--alpha", "0", "--beta", "0.5",
            "--variant", "disk_symmetric", "--weight", "2"]
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert abs(d["value"] - 1.5) < 5e-3
    # --out writes the same estimate to the file and nothing to stdout
    out = tmp_path / "norm.json"
    proc = run_cli(*argv, "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    assert json.loads(out.read_text()) == d


# ---------------------------------------------------------------------------
# radii subcommands
# ---------------------------------------------------------------------------


def test_radii_concavity_cli():
    proc = run_cli(
        "radii", "concavity", "--alpha", "0", "--beta", "0", "--Aco", "2",
        "--mode", "both",
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert abs(d["paper"]["value"] - 0.1270166538) < 1e-9
    assert abs(d["corrected"]["value"] - 0.1010205144) < 1e-9


@pytest.mark.parametrize("argv", [
    ["radii", "concavity"],
    ["verify", "--theorem", "concavity", "--samples", "2"],
])
def test_k_near_zero_exits_with_a_verdict(argv):
    # beta = 1 - 2**-53, so k = 2**-53: the radius guard must not trip on rounding
    proc = run_cli(*argv, "--beta", "0.9999999999999999")
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


TYPED_ERRORS = {
    "ParamOutOfRange", "NotASchwarzFunction", "TailToleranceUnmet", "XiOutOfRange",
    "RootNotBracketed", "SeriesError", "DivisionByZeroConstantTerm", "RadiusExceeded",
    "CoefficientOverflow",
}
NEAR_RIGHT_ANGLE = st.floats(min_value=1.5, max_value=math.pi / 2, exclude_max=True)


@settings(max_examples=16, deadline=None)
@given(
    alpha=st.one_of(NEAR_RIGHT_ANGLE, NEAR_RIGHT_ANGLE.map(lambda a: -a)),
    beta=st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
    order=st.sampled_from([8, 4096]),
    samples=st.sampled_from([0, 12]),
)
def test_check_2_2_hostile_parameters_end_in_a_verdict(alpha, beta, order, samples):
    # k -> 0 near alpha = +-pi/2 and beta = 1, at the least and the greatest
    # order, with 2 members or 14 (each order's f' by one recurrence run):
    # exit 0 or 3 with finite margins and points, or 2 naming a typed error
    argv = ["verify", "--theorem", "2.2", "--alpha", repr(alpha), "--beta", repr(beta),
            "--order", str(order), "--samples", str(samples)]
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp) / "r.json", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        if code == 2:
            assert err.getvalue().split(":")[0] in TYPED_ERRORS, err.getvalue()
            return
        assert code in (0, 3), err.getvalue()
        (record,) = json.loads(out.read_text())["checks"]
    worst = record["worst"]
    numbers = [record["min_margin"], worst["margin"], *worst["z"]]
    assert all(isinstance(x, float) and math.isfinite(x) for x in numbers), record


def test_radii_convexity_cli_degenerate_warning():
    proc = run_cli("radii", "convexity", "--alpha", "0", "--beta", "0")
    assert proc.returncode == 0
    assert "degenerate" in proc.stderr
    d = json.loads(proc.stdout)
    assert d["degenerate"] is True


def test_radii_convexity_cli_sharp():
    # the sharp radius 1/(k + |1 - G1|) off the real axis, with no warning;
    # the derived_bound mode and --characterization are gone
    proc = run_cli("radii", "convexity", "--mode", "sharp", "--alpha", "0.7853981633974483",
                   "--beta", "0.25")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    d = json.loads(proc.stdout)
    assert d["mode"] == "sharp" and not d["degenerate"] and abs(d["value"] - 0.794156) < 5e-7
    for argv in (["--mode", "derived_bound"], ["--characterization", "corrected"]):
        assert run_cli("radii", "convexity", *argv).returncode == 2


def test_radii_probe_cli():
    proc = run_cli(
        "radii", "probe", "--alpha", "0", "--beta", "0", "--Aco", "2",
        "--seed", "11", "--budget", "6000",
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["violation_found"]
    assert abs(d["empirical_radius"] - d["radius_corrected"]) < 5e-6
    assert d["gap_to_paper"] < 0  # the printed radius overshoots the class radius
    assert d["witness_spec"]["kind"] == "unit_constant_times_z"


def test_main_callable_in_process(tmp_path):
    # the console entry point is importable and returns exit codes directly
    out = tmp_path / "r.json"
    code = main(
        [
            "verify", "--theorem", "2.1ii", "--samples", "4", "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
