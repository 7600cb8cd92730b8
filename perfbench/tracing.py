"""Spans and counters recorded around calls into robertson_kit's modules.

The benchmark observes the program from outside: for the length of a traced
pass, `instrument` replaces module functions and class methods with timing
wrappers and restores the originals afterwards.  No program code changes.
Names bound with `from ... import` are separate bindings, so each import site
is patched too (`cli.generate_member`, `radii.generate_member`,
`cli.norm_estimate`, ...), and so is each class alias (`__rmul__`).

A span is [name, start, end, parent]; spans stay in memory and are written
out once, when the run ends.  Self time is a span minus its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# one cli.check.<id>.s metric per check whose verdict verify-all gates
from workloads import VERIFY_STATUS


class Tracer:
    """In-memory spans plus exact counters and distinct-key sets."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], s - t0, e - t0, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)


def _wrap(tracer: Tracer, name: str, fn, when=None, after=None):
    """Time calls to fn as spans called name.

    when(*args, **kwargs) -> bool selects the calls to trace; the others run
    untouched.  after(result, *args, **kwargs) records counters.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _bound_key(fn):
    sig = inspect.signature(fn)

    def key(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    return key


@contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers; restore every original on exit."""
    from robertson_kit import bounds, cli, radii, robertson, sampling, schwarzian, series

    TS = series.TruncatedSeries
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        if isinstance(owner, dict):
            patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def count(metric, n=1):
        tracer.counts[metric] += n

    # -- series ---------------------------------------------------------------
    def after_eval_at(res, self, z, *a, **k):
        count("series.eval_at.points", int(np.size(z)))

    patch(TS, "eval_at", _wrap(tracer, "series.eval_at", TS.eval_at, after=after_eval_at))
    patch(TS, "eval_on_circle", _wrap(tracer, "series.eval_on_circle", TS.eval_on_circle))
    patch(TS, "tail_bound", _wrap(tracer, "series.tail_bound", TS.tail_bound))
    mul = _wrap(tracer, "series.mul", vars(TS)["__mul__"])
    patch(TS, "__mul__", mul)
    patch(TS, "__rmul__", mul)

    def series_divisor(self, other):
        return isinstance(other, TS)

    def after_div(res, self, other):
        n = min(self.order, other.order)
        count("series.recurrence.macs", n * (n + 1) // 2)

    def after_exp(res, self):
        count("series.recurrence.macs", self.order * (self.order + 1) // 2)

    patch(TS, "__truediv__", _wrap(tracer, "series.recurrence", vars(TS)["__truediv__"],
                                   when=series_divisor, after=after_div))
    patch(TS, "exp", _wrap(tracer, "series.recurrence", TS.exp, after=after_exp))

    # -- robertson --------------------------------------------------------------
    gen_key = _bound_key(robertson.generate_member)

    def after_generate(res, *args, **kwargs):
        tracer.keys["robertson.generate_member"].add(gen_key(*args, **kwargs))

    gen = _wrap(tracer, "robertson.generate_member", robertson.generate_member,
                after=after_generate)
    for mod in (robertson, cli, radii, sampling):
        patch(mod, "generate_member", gen)
    patch(robertson.MemberSeries, "p_series",
          _wrap(tracer, "robertson.p_series", robertson.MemberSeries.p_series,
                when=lambda self: self._p_series is None))

    # -- schwarzian ---------------------------------------------------------------
    norm_key = _bound_key(schwarzian.norm_estimate)

    def after_norm(res, *args, **kwargs):
        member, weight, opts = norm_key(*args, **kwargs)
        tracer.keys["schwarzian.norm_estimate"].add(
            (member.params, member.provenance, member.order, weight, opts))
        count("schwarzian.refine.evals", res.refinement_steps)

    norm = _wrap(tracer, "schwarzian.norm_estimate", schwarzian.norm_estimate,
                 after=after_norm)
    for mod in (schwarzian, cli):
        patch(mod, "norm_estimate", norm)
    patch(schwarzian, "golden_max", _wrap(tracer, "schwarzian.refine", schwarzian.golden_max))
    patch(schwarzian, "schwarzian",
          _wrap(tracer, "schwarzian.schwarzian", schwarzian.schwarzian,
                when=lambda member: member._s_series is None))

    # -- bounds -------------------------------------------------------------------
    env_key = _bound_key(bounds.growth_envelope)
    patch(bounds, "envelope_check", _wrap(tracer, "bounds.envelope_check", bounds.envelope_check))
    patch(bounds, "growth_envelope",
          _wrap(tracer, "bounds.growth_envelope", bounds.growth_envelope,
                after=lambda res, *a, **k: tracer.keys["bounds.growth_envelope"].add(
                    env_key(*a, **k))))

    # -- radii --------------------------------------------------------------------
    patch(radii, "sharpness_probe",
          _wrap(tracer, "radii.sharpness_probe", radii.sharpness_probe,
                after=lambda res, *a, **k: count("radii.sharpness_probe.evaluations",
                                                 res.evaluations)))
    patch(radii, "concavity_soundness_scan",
          _wrap(tracer, "radii.concavity_soundness_scan", radii.concavity_soundness_scan))

    # -- sampling -----------------------------------------------------------------
    specs = _wrap(tracer, "sampling.sample_schwarz_specs", sampling.sample_schwarz_specs)
    for mod in (sampling, radii):
        patch(mod, "sample_schwarz_specs", specs)

    # -- cli ------------------------------------------------------------------------
    for cid in list(cli.CHECK_BUILDERS):
        patch(cli.CHECK_BUILDERS, cid,
              _wrap(tracer, f"cli.check.{cid}", cli.CHECK_BUILDERS[cid]))
    patch(cli, "cmd_verify", _wrap(tracer, "cli.cmd_verify", cli.cmd_verify))

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals from the spans and counters (trace.* excluded)."""
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        children[parent].append(i)
        total[name] += end - start
        calls[name] += 1

    def minus_nested(name_: str, stop) -> float:
        """Durations of spans called name_, minus their nearest descendants
        whose name satisfies stop."""
        t = 0.0
        for i, (name, start, end, _) in enumerate(spans):
            if name != name_:
                continue
            t += end - start
            todo = list(children[i])
            while todo:
                j = todo.pop()
                if stop(spans[j][0]):
                    t -= spans[j][2] - spans[j][1]
                else:
                    todo.extend(children[j])
        return t

    m: dict[str, float] = {}
    for layer in ("series.eval_at", "series.recurrence", "series.eval_on_circle", "series.mul"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.s"] = total[layer]
    m["series.eval_at.points"] = tracer.counts["series.eval_at.points"]
    m["series.recurrence.macs"] = tracer.counts["series.recurrence.macs"]
    m["series.tail_bound.calls"] = calls["series.tail_bound"]

    gcalls = calls["robertson.generate_member"]
    gdistinct = len(tracer.keys["robertson.generate_member"])
    m["robertson.generate_member.calls"] = gcalls
    m["robertson.generate_member.distinct"] = gdistinct
    m["robertson.generate_member.reuse"] = gdistinct / gcalls if gcalls else 0.0
    m["robertson.generate_member.s"] = total["robertson.generate_member"]
    m["robertson.p_series.s"] = total["robertson.p_series"]

    m["schwarzian.norm_estimate.calls"] = calls["schwarzian.norm_estimate"]
    m["schwarzian.norm_estimate.distinct"] = len(tracer.keys["schwarzian.norm_estimate"])
    m["schwarzian.norm_estimate.s"] = total["schwarzian.norm_estimate"]
    m["schwarzian.scan.s"] = minus_nested(
        "schwarzian.norm_estimate",
        {"schwarzian.refine", "schwarzian.schwarzian", "robertson.p_series"}.__contains__,
    )
    m["schwarzian.refine.s"] = total["schwarzian.refine"]
    m["schwarzian.refine.evals"] = tracer.counts["schwarzian.refine.evals"]
    m["schwarzian.schwarzian.s"] = total["schwarzian.schwarzian"]

    m["bounds.envelope_check.calls"] = calls["bounds.envelope_check"]
    m["bounds.envelope_check.s"] = total["bounds.envelope_check"]
    m["bounds.growth_envelope.calls"] = calls["bounds.growth_envelope"]
    m["bounds.growth_envelope.distinct"] = len(tracer.keys["bounds.growth_envelope"])

    m["radii.sharpness_probe.calls"] = calls["radii.sharpness_probe"]
    m["radii.sharpness_probe.s"] = total["radii.sharpness_probe"]
    m["radii.sharpness_probe.evaluations"] = tracer.counts["radii.sharpness_probe.evaluations"]
    m["radii.concavity_soundness_scan.s"] = total["radii.concavity_soundness_scan"]
    m["sampling.sample_schwarz_specs.s"] = total["sampling.sample_schwarz_specs"]

    for cid in VERIFY_STATUS:
        m[f"cli.check.{cid}.s"] = total[f"cli.check.{cid}"]
    m["cli.report.s"] = minus_nested("cli.cmd_verify", lambda n: n.startswith("cli.check."))
    return m
