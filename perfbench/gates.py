"""Correctness gates: each takes one output and returns the reasons it is wrong.

An empty list means the output passes.  The gates are pure functions of the
outputs (plus replay through the program for witnesses), so `selftest.py` can
feed them deliberately wrong outputs and check that each is caught.
"""

from __future__ import annotations

import math

REPLAY_TOL = 1e-12
NORM_SLACK = 1e-6
REFERENCE_TOL = 1e-12
TAIL_TOL = 1e-6


def verify_report(report: dict, exit_code: int, expected_exit: int,
                  expected_status: dict[str, list[str]], replay) -> dict[str, list[str]]:
    """Reasons per check id, for a `robkit verify` report.

    expected_status maps each check id to the statuses of its records, in
    order.  replay(witness) -> margin re-evaluates a witness through the
    program; it must land within REPLAY_TOL of the recorded margin.  A wrong
    exit code or summary marks every check wrong, since the verdict set is.
    """
    reasons: dict[str, list[str]] = {cid: [] for cid in expected_status}
    records: dict[str, list[dict]] = {}
    for rec in report.get("checks", []):
        cid = rec["id"].split(":")[0]
        records.setdefault(cid, []).append(rec)
    for cid, want in expected_status.items():
        got = [r["status"] for r in records.get(cid, [])]
        if got != want:
            reasons[cid].append(f"statuses {got} != expected {want}")
        for r in records.get(cid, []):
            w = r.get("worst")
            if w is None:
                continue
            margin = replay(w)
            if not abs(margin - w["margin"]) <= REPLAY_TOL:
                reasons[cid].append(
                    f"{r['id']} witness replays to {margin!r}, recorded {w['margin']!r}")
    extra = sorted(set(records) - set(expected_status))
    whole = []
    if exit_code != expected_exit or report.get("exit_code") != expected_exit:
        whole.append(f"exit code {exit_code} (report {report.get('exit_code')}), "
                     f"expected {expected_exit}")
    if extra:
        whole.append(f"unexpected check ids {extra}")
    for cid in reasons:
        reasons[cid].extend(whole)
    return reasons


def norm_soundness(p_norm: float, s_norm: float, k: float,
                   p_reference: float, s_reference: float) -> list[str]:
    """||P|| <= 2k + 1e-6, and neither estimate below its recorded value.

    The Schwarzian bound 2k(2-k) is not gated: it is false for alpha != 0
    (acceptance criterion 3), and exceeding it there is expected output.
    """
    reasons = []
    if not p_norm <= 2 * k + NORM_SLACK:
        reasons.append(f"||P|| = {p_norm!r} above 2k + 1e-6 = {2 * k + NORM_SLACK!r}")
    if not p_norm >= p_reference - REFERENCE_TOL:
        reasons.append(f"||P|| = {p_norm!r} below recorded {p_reference!r}")
    if not s_norm >= s_reference - REFERENCE_TOL:
        reasons.append(f"||S|| = {s_norm!r} below recorded {s_reference!r}")
    return reasons


def high_order_profile(p_weighted_max: float, k: float,
                       p_tail: float, s_tail: float) -> list[str]:
    """Weighted |P| <= 2k + 1e-6 on every circle; finite tails <= 1e-6."""
    reasons = []
    if not p_weighted_max <= 2 * k + NORM_SLACK:
        reasons.append(f"max (1-r^2)|P| = {p_weighted_max!r} above 2k + 1e-6")
    for name, tail in (("P", p_tail), ("S", s_tail)):
        if not (math.isfinite(tail) and tail <= TAIL_TOL):
            reasons.append(f"{name} tail {tail!r} not finite or above {TAIL_TOL}")
    return reasons


def radii_probe(empirical: float, corrected: float, printed: float,
                alpha: float, r_tol: float) -> list[str]:
    """The probe's empirical radius against the corrected and printed radii.

    At alpha = 0 the corrected radius is sharp, so the probe must find it to
    r_tol; everywhere it is a valid lower radius (empirical >= corrected -
    r_tol) and the printed radius is too large (empirical < printed).
    """
    reasons = []
    if alpha == 0 and not abs(empirical - corrected) <= r_tol:
        reasons.append(f"alpha = 0: empirical {empirical!r} not within {r_tol} "
                       f"of corrected {corrected!r}")
    if not empirical >= corrected - r_tol:
        reasons.append(f"empirical {empirical!r} below corrected {corrected!r} - r_tol")
    if not empirical < printed:
        reasons.append(f"empirical {empirical!r} not below printed {printed!r}")
    return reasons
