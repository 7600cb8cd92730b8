"""Record the norm estimates the norm-soundness gate compares against.

    python3 perfbench/record_reference.py

Scans all 200 acceptance criterion-3 members (100 seeded SP0 specs at each
of the two points) with weights 1 and 2 and writes
perfbench/reference/norm_soundness.json.  A later version of the program
passes the gate when no estimate falls more than 1e-12 below these values.
Takes about 70 s on 2 cores.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    workloads = run.load_workloads()
    from robertson_kit import robertson, sampling

    specs = sampling.sample_schwarz_specs(
        workloads.NORM_SPEC_SEED, workloads.NORM_SPECS, sp0=True)
    values = []
    for alpha, beta in workloads.NORM_POINTS:
        params = robertson.make_params(alpha, beta)
        values.append([list(workloads.norm_pair(params, s)) for s in specs])
    payload = {
        "spec_seed": workloads.NORM_SPEC_SEED,
        "order": workloads.NORM_ORDER,
        "r_max": workloads.NORM_R_MAX,
        "points": [list(p) for p in workloads.NORM_POINTS],
        "columns": ["p_norm", "s_norm"],
        "values": values,
    }
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
