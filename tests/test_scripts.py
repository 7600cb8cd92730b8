"""The scripts import and run, the benchmark's tracer finds every name it
wraps, and the benchmark's self-test passes."""

import csv
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robertson_kit
from robertson_kit import cli, robertson, schwarzian
from robertson_kit.robertson import SchwarzSpec, generate_member, make_params

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"
# the child process imports the same package as this one
PACKAGE_ROOT = str(Path(robertson_kit.__file__).resolve().parent.parent)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script's entry point is guarded
    return module


@pytest.mark.parametrize("name", ["norm_tables", "reproduce_findings", "golden_outputs"])
def test_script_imports(name):
    load_script(name)


def run_script(name, *argv, cwd=ROOT):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_reproduce_findings_runs():
    proc = run_script("reproduce_findings")
    assert proc.returncode == 0, proc.stderr
    headers = [line[:3] for line in proc.stdout.splitlines() if line.startswith("[")]
    assert headers == ["[1]", "[2]", "[3]", "[4]", "[5]", "[6]"]


def test_norm_tables_runs(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script("norm_tables", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 35  # 7 alphas by 5 betas
    # every row scans a class member: the defining inequality holds on the grid
    member = load_script("norm_tables").member
    for row in rows:
        p = make_params(float(row["alpha"]), float(row["beta"]))
        assert robertson.subordination_membership_check(member(p)).min_margin >= -1e-9, row


def test_golden_outputs_writes_every_case(tmp_path, capsys):
    # two runs in process: a report and a log per case, no timestamp in any,
    # and the second run's files byte for byte the first's, which `diff -r`
    # between two commits rests on
    golden = load_script("golden_outputs")
    first, second = tmp_path / "first", tmp_path / "second"
    assert golden.main([str(first)]) == 0 and golden.main([str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(f"{case}.{ext}" for case in golden.CASES for ext in ("out", "log"))
    assert sorted(p.name for p in second.iterdir()) == names
    # verify exits 3 on reported findings only, 1 where check 2.5 fails
    # (k = 0.1); the 17 radii and emit commands exit 0, the probe whose
    # budget runs out included
    exits = {case: 1 if case == "verify_0_0.9" else 3 if argv[0] == "verify" else 0
             for case, argv in golden.CASES.items()}
    assert len(exits) == 22 and sorted(exits.values()) == [0] * 17 + [1] + [3] * 4
    for name in names:
        text = (first / name).read_text()
        assert text and "generated_at" not in text, name
        if name.endswith(".log"):
            assert text.splitlines()[-1] == f"exit {exits[name[:-4]]}", name
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
    # the first run is the committed snapshot byte for byte, at the versions
    # that wrote it; scripts/golden_outputs.py --update rewrites it
    snapshot = golden.SNAPSHOT
    recorded, running = (snapshot / golden.VERSIONS).read_text(), golden.versions()
    moved = [] if recorded == running else [
        f"snapshot written by {' '.join(recorded.split())}, running {' '.join(running.split())}"]
    stored = sorted(p.name for p in snapshot.iterdir() if p.name != golden.VERSIONS)
    moved += [f"{name}: in one of the run and the snapshot only"
              for name in sorted(set(stored) ^ set(names))]
    for name in sorted(set(stored) & set(names)):
        want, got = (snapshot / name).read_bytes(), (first / name).read_bytes()
        if want != got:
            want, got = want.splitlines(keepends=True), got.splitlines(keepends=True)
            pairs = enumerate(zip(want + [b""], got + [b""]))
            i = next(i for i, pair in pairs if len(set(pair)) > 1)
            line = [(s[i] if i < len(s) else b"<end of file>") for s in (want, got)]
            moved.append(f"{name} line {i + 1}: snapshot {line[0]!r}, run {line[1]!r}")
    assert not moved, "\n".join(moved)


def test_benchmark_tracer_wraps_existing_names(monkeypatch):
    # perfbench/tracing.py wraps program functions and methods by name for
    # traced benchmark runs; a renamed one fails here, not only in those runs
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    added = [name for name in ("tracing", "workloads", "gates") if name not in sys.modules]
    try:
        tracing = importlib.import_module("tracing")
        originals = (cli.generate_member, cli.norm_estimate, robertson.MemberSeries.p_series)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            m = cli.generate_member(make_params(0, 0), SchwarzSpec("polynomial", (0, 0, 0.5)), 16)
            m.p_series()
            schwarzian.schwarzian(m)
        assert (cli.generate_member, cli.norm_estimate, robertson.MemberSeries.p_series) == originals
        assert cli.generate_member is generate_member
        names = {span[0] for span in tracer.spans}
        assert {"robertson.generate_member", "robertson.p_series",
                "schwarzian.schwarzian"} <= names
    finally:
        for name in added:
            sys.modules.pop(name, None)


def test_benchmark_selftest_passes():
    # the self-test runs every workload briefly, so it fails when a name the
    # workloads call (not only those the tracer wraps) is renamed or removed
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("0 failed"), proc.stdout
