#!/usr/bin/env python3
"""Write the standard outputs of a fixed set of robkit commands to OUTDIR.

Each command runs in process through robertson_kit.cli.main.  For a case
NAME the script writes NAME.out, the command's report or table with a verify
report's "generated_at" removed, and NAME.log, its standard error followed by
its exit code.  Two runs on two commits compare with `diff -r`: no difference
means the change left these outputs byte for byte as they were.

    python scripts/golden_outputs.py OUTDIR
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from robertson_kit import cli

PI_4 = "0.7853981633974483"
# a Blaschke product with a zero at the origin and one inside the disk, for emit member
MEMBER_SPEC = {"kind": "blaschke_product", "zeros": [[0.0, 0.0], [0.3, -0.2]],
               "rotation": [0.0, 1.0]}

CASES = {
    "verify_defaults": ["verify", "--theorem", "all"],
    "verify_pi4_0.25": ["verify", "--theorem", "all", "--alpha", PI_4, "--beta", "0.25"],
    "verify_1.2_0": ["verify", "--theorem", "all", "--alpha", "1.2", "--beta", "0"],
    "verify_paper": ["verify", "--theorem", "all", "--mode", "paper"],
    "radii_probe_defaults": ["radii", "probe", "--seed", "11", "--budget", "6000"],
    "radii_probe_pi4_0.25": ["radii", "probe", "--alpha", PI_4, "--beta", "0.25",
                             "--seed", "11", "--budget", "6000"],
    "radii_concavity_pi4_0.25": ["radii", "concavity", "--alpha", PI_4, "--beta", "0.25"],
    "emit_distortion": ["emit", "distortion", "--beta", "0.25", "--samples", "8"],
    "emit_growth_0_0": ["emit", "growth"],
    "emit_growth_0_0.5": ["emit", "growth", "--beta", "0.5"],
    "emit_growth_pi4_0.25": ["emit", "growth", "--alpha", PI_4, "--beta", "0.25"],
    "emit_member": ["emit", "member", "--alpha", "0.2", "--beta", "0.1", "--order", "64"],
    "emit_norm": ["emit", "norm", "--beta", "0.5", "--weight", "2"],
}


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory to write NAME.out and NAME.log into")
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(MEMBER_SPEC), encoding="utf-8")
        for name, case in CASES.items():
            code, out, err = run([*case, "--spec", str(spec)] if name == "emit_member" else case)
            if case[0] == "verify" and out:
                report = json.loads(out)
                report.pop("generated_at", None)
                out = json.dumps(report, sort_keys=True, indent=2) + "\n"
            (outdir / f"{name}.out").write_text(out, encoding="utf-8")
            (outdir / f"{name}.log").write_text(f"{err}exit {code}\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
