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
# the spec each emit member case reads through --spec: a Blaschke product with a
# zero at the origin and one inside the disk, and a polynomial, which the
# validator reads on the unit circle
MEMBER_SPECS = {
    "emit_member": {"kind": "blaschke_product", "zeros": [[0.0, 0.0], [0.3, -0.2]],
                    "rotation": [0.0, 1.0]},
    "emit_member_polynomial": {"kind": "polynomial",
                               "coeffs": [[0.0, 0.0], [0.3, 0.0], [0.0, -0.2], [0.1, 0.05]]},
}

CASES = {
    "verify_defaults": ["verify", "--theorem", "all"],
    "verify_pi4_0.25": ["verify", "--theorem", "all", "--alpha", PI_4, "--beta", "0.25"],
    "verify_1.2_0": ["verify", "--theorem", "all", "--alpha", "1.2", "--beta", "0"],
    "verify_paper": ["verify", "--theorem", "all", "--mode", "paper"],
    # k = 0.1: check 2.5 fails (README finding 6), so this case exits 1
    "verify_0_0.9": ["verify", "--theorem", "all", "--beta", "0.9"],
    "radii_probe_defaults": ["radii", "probe", "--seed", "11", "--budget", "6000"],
    "radii_probe_pi4_0.25": ["radii", "probe", "--alpha", PI_4, "--beta", "0.25",
                             "--seed", "11", "--budget", "6000"],
    "radii_probe_1.2_0": ["radii", "probe", "--alpha", "1.2", "--beta", "0",
                          "--seed", "11", "--budget", "6000"],
    # the extremal rotation at alpha = 0 is -1, once among the 16 rotations
    "radii_probe_0_0.25_Aco1.5": ["radii", "probe", "--beta", "0.25", "--Aco", "1.5",
                                  "--seed", "11", "--budget", "6000"],
    # 5 circles of the 40 default members: the search stops with budget_exhausted
    "radii_probe_budget_205": ["radii", "probe", "--seed", "1", "--budget", "205"],
    "radii_concavity_pi4_0.25": ["radii", "concavity", "--alpha", PI_4, "--beta", "0.25"],
    "radii_convexity_sharp_pi4_0.25": ["radii", "convexity", "--mode", "sharp",
                                       "--alpha", PI_4, "--beta", "0.25"],
    "emit_distortion": ["emit", "distortion", "--beta", "0.25", "--samples", "8"],
    "emit_growth_0_0": ["emit", "growth"],
    "emit_growth_0_0.5": ["emit", "growth", "--beta", "0.5"],
    "emit_growth_pi4_0.25": ["emit", "growth", "--alpha", PI_4, "--beta", "0.25"],
    "emit_member": ["emit", "member", "--alpha", "0.2", "--beta", "0.1", "--order", "64"],
    "emit_member_polynomial": ["emit", "member", "--alpha", "0.2", "--beta", "0.1",
                               "--order", "64"],
    "emit_norm": ["emit", "norm", "--beta", "0.5", "--weight", "2"],
    "emit_norm_plane": ["emit", "norm", "--variant", "plane", "--beta", "0.5", "--weight", "1"],
    "emit_phi": ["emit", "phi"],
    # rows at i step up to 1: 0, 0.3, 0.6, 0.9
    "emit_phi_step_0.3": ["emit", "phi", "--step", "0.3"],
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
        for name, case in CASES.items():
            if name in MEMBER_SPECS:
                spec = Path(tmp) / f"{name}.json"
                spec.write_text(json.dumps(MEMBER_SPECS[name]), encoding="utf-8")
                case = [*case, "--spec", str(spec)]
            code, out, err = run(case)
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
