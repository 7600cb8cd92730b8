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


@pytest.mark.parametrize("name", ["norm_tables", "reproduce_findings"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script's entry point is guarded


def run_script(name, *argv, cwd=ROOT):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_reproduce_findings_runs():
    proc = run_script("reproduce_findings")
    assert proc.returncode == 0, proc.stderr
    headers = [line[:3] for line in proc.stdout.splitlines() if line.startswith("[")]
    assert headers == ["[1]", "[2]", "[3]", "[4]", "[5]"]


def test_norm_tables_runs(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script("norm_tables", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 35  # 7 alphas by 5 betas


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
