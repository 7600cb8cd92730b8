#!/usr/bin/env python3
"""Emit CSV tables of scanned norms of a class member against the closed-form bounds.

Writes norm_table.csv (one row per (alpha, beta)) with the pre-Schwarzian
and Schwarzian norms of member(p), generated by omega = z^2, beside 2k and
2k(2-k).  That member lies in SP_alpha(beta) for every (alpha, beta), and at
alpha = 0 its P_f and S_f are those of the disk extremal (1 - z^2)^{-k},
which is a class member only at alpha = 0.  Intended for quick plotting of
how the constants move with the class parameters.
"""

import argparse
import csv
import math
import sys

from robertson_kit.bounds import pre_norm_bound, schwarzian_norm_bound
from robertson_kit.robertson import ClassParams, MemberSeries, SchwarzSpec, generate_member
from robertson_kit.robertson import make_params
from robertson_kit.schwarzian import ScanOpts, norm_estimate


def member(p: ClassParams) -> MemberSeries:
    """The member of SP_alpha(beta) generated by omega = z^2 (an SP0 member)."""
    return generate_member(p, SchwarzSpec("unit_constant_times_z", power=2), order=64)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="norm_table.csv")
    ap.add_argument("--alphas", type=int, default=7, help="alpha grid points")
    ap.add_argument("--betas", type=int, default=5, help="beta grid points")
    args = ap.parse_args()

    rows = []
    for i in range(args.alphas):
        alpha = -math.pi / 2 * 0.9 + i * (math.pi * 0.9) / (args.alphas - 1)
        for j in range(args.betas):
            beta = j / args.betas
            p = make_params(alpha, beta)
            m = member(p)
            e1 = norm_estimate(m, 1, ScanOpts(r_max=0.9995))
            e2 = norm_estimate(m, 2, ScanOpts(r_max=0.9995))
            rows.append(
                {
                    "alpha": f"{alpha:.6f}",
                    "beta": f"{beta:.4f}",
                    "k": f"{p.k:.10f}",
                    "pre_norm_scanned": f"{e1.value:.10f}",
                    "pre_norm_bound": f"{pre_norm_bound(p):.10f}",
                    "schwarzian_norm_scanned": f"{e2.value:.10f}",
                    "schwarzian_norm_bound": f"{schwarzian_norm_bound(p):.10f}",
                }
            )

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
