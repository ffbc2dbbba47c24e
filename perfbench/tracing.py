"""In-memory span tracer that wraps the program's public functions from
outside, so no source file changes.

A span records its name, start, end, parent span and job id.  Each wrapped
function belongs to a group, the layer metric it feeds: a group's busy time
counts only spans with no ancestor of the same group, and its self time is
each span's duration minus the time its child spans cover.  Functions are
wrapped where they are looked up: every ``nonarch_lab`` module attribute
bound to the original function is replaced, so ``points_Z`` is traced when
``detmethod`` calls it through its own import.  Spans are kept in compact
arrays and written once, at the end of the run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import threading
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


class TraceError(Exception):
    """A function the tracer should wrap is not in the program."""


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.job_ids = []
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # frames [span index, group, child time]
        self._job = -1
        self._thread = threading.get_ident()
        self._depth = defaultdict(int)
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name_id, group):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_job.append(self._job)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, group, 0.0])
        self._depth[group] += 1
        self.span_start.append(perf_counter())

    def _exit(self):
        end = perf_counter()
        idx, group, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._depth[group] -= 1
        self.calls[group] += 1
        if not self._depth[group]:
            self.busy[group] += dur
        self.self_s[group] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def begin_job(self, job_id):
        self._job = len(self.job_ids)
        self.job_ids.append(job_id)
        self._enter(self._name_id("job"), "job")

    def end_job(self):
        self._exit()
        self._job = -1

    def snapshot(self):
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "self": dict(self.self_s), "counters": dict(self.counters)}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, group, hook=None):
        """Trace owner.attr (a module function or a class's method) under
        `group`; hook(counters, args, result) adds work counters, with
        args the bound call arguments.  A function that is not there
        raises TraceError: its layer metrics would read 0 and look like a
        gain."""
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
            name = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
        else:
            orig = getattr(owner, attr, None)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if not callable(orig):
            raise TraceError(f"cannot trace {name}: no such function")
        name_id = self._name_id(name)
        sig = inspect.signature(orig) if hook else None
        tracer = self

        @wraps(orig)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return orig(*args, **kwargs)
            tracer._enter(name_id, group)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counters, bound.arguments, result)
            return result

        if isinstance(owner, type):
            self._patch(owner, attr, traced)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nonarch_lab" or mod_name.startswith("nonarch_lab."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, traced)

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def write(self, path):
        """All spans as gzipped CSV: name, job, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,job,parent,start_s,end_s\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                job = self.span_job[i]
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.job_ids[job] if job >= 0 else ''},"
                         f"{self.span_parent[i]},{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f}\n")


# ---------------------------------------------------------------------------
# what is traced, and the work counters read off the calls
# ---------------------------------------------------------------------------

def _pairs_scanned(table, result):
    """Residue pairs the sweep examined in ascending (y, x) order, up to and
    including the first violation."""
    R = table.shape[0]
    by, bx = (int(v) for v in result)
    if by < 0:
        return R * (R - 1)
    return by * (R - 1) + bx - (1 if by < bx else 0) + 1


def _count_states(c, a, result):
    c["ffcount.states"] += a["q"] ** (a["r"] * a["X"].n)
    c["ffcount.solutions"] += result[0] if isinstance(result, tuple) else result


def _count_fit(c, a, result):
    c["ffcount.fit.candidates"] += (a["r"] * a["n"] + 1) * a["mu_cap"]


def _count_kernel_states(c, a, result):
    c["kernels.ff_count.states"] += a["q"] ** (a["r"] * a["n"])


def _count_pairs(c, a, result):
    pairs = _pairs_scanned(a["table"], result)
    c["kernels.tr_pair_sweep.pairs"] += pairs
    c["kernels.tr_pair_sweep.horner_steps"] += pairs * (a["table"].shape[1] - a["r"])


def _count_verdict(c, a, result):
    c[f"taylor.verdict.{result.verdict}"] += 1
    if hasattr(result.domain, "residue_count"):  # a Ball, not a power preimage
        c["taylor.residues"] += result.domain.residue_count(result.K)


def _count_balls(c, a, result):
    c["taylor.balls"] += len(result.balls)


def _count_grid(c, a, result):
    c["heights.grid_candidates"] += len(a["values"]) ** a["X"].nvars


def _count_points(c, a, result):
    c["heights.points_found"] += len(result)


def _count_violation(c, a, result):
    c["detmethod.det_bound_check.violations"] += 0 if result.ok else 1


def install(tracer):
    """Wrap every traced function of the program."""
    from nonarch_lab import (_kernels, arith_core, cli, detmethod, ffcount,
                             heights, hilbert, taylor)

    w = tracer.wrap
    for fn in ("load_json", "parse_semialg", "parse_polymap", "parse_poly",
               "parse_range_list", "parse_fraction"):
        w(cli, fn, "cli.parse")
    w(ffcount, "load_variety", "cli.parse")
    w(cli, "emit_report", "cli.emit")

    w(ffcount, "enumerate_Xr", "ffcount.enumerate_Xr", _count_states)
    w(ffcount, "estimate_delta", "ffcount.fit", _count_fit)
    w(ffcount, "verify_bounds", "ffcount.fit")
    w(ffcount, "expand_scheme", "ffcount.expand_scheme")

    w(_kernels, "ff_count", "kernels.ff_count", _count_kernel_states)
    w(_kernels, "tr_pair_sweep", "kernels.tr_pair_sweep", _count_pairs)

    w(taylor, "check_Tr", "taylor.check_Tr", _count_verdict)
    w(taylor, "verify_gauss1a", "taylor.verify_gauss1a", _count_balls)

    for fn in ("points_Z", "points_Q", "points_k"):
        w(heights, fn, "heights.points", _count_points)
    w(heights, "_grid_points", "heights.grid", _count_grid)
    w(heights, "hk_poly", "heights.hk_poly")
    w(arith_core.MultiPoly, "eval", "arith_core.MultiPoly.eval")

    for fn in ("cover_points", "certify_components", "auxiliary_polynomial",
               "rational_rank", "exact_det"):
        w(detmethod, fn, f"detmethod.{fn}")
    w(detmethod, "det_bound_check", "detmethod.det_bound_check", _count_violation)

    for fn in ("groebner", "s_polynomial", "normal_form"):
        w(hilbert, fn, f"hilbert.{fn}")
    for fn in ("hilbert_function", "sigma_all", "a_estimates", "mu_e"):
        w(hilbert.HilbertTable, fn, "hilbert.table")
    for fn in ("salberger_check", "select_delta_alpha"):
        w(hilbert, fn, "hilbert.table")
    w(hilbert.HilbertTable, "standard_monomials", "hilbert.standard_monomials")


# (name, unit, better) of every per-layer metric, in report order.  Metric
# names start with a letter, so the _kernels module's metrics are kernels.*.
LAYER_METRICS = [
    ("cli.parse.busy_s", "s", "lower"),
    ("cli.emit.busy_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("ffcount.enumerate_Xr.busy_s", "s", "lower"),
    ("ffcount.enumerate_Xr.calls", "count", "lower"),
    ("ffcount.states", "count", "lower"),
    ("ffcount.solutions", "count", "higher"),
    ("ffcount.yield", "ratio", "higher"),
    ("ffcount.fit.busy_s", "s", "lower"),
    ("ffcount.fit.candidates", "count", "lower"),
    ("ffcount.expand_scheme.busy_s", "s", "lower"),
    ("kernels.ff_count.busy_s", "s", "lower"),
    ("kernels.ff_count.states_per_s", "1/s", "higher"),
    ("kernels.tr_pair_sweep.busy_s", "s", "lower"),
    ("kernels.tr_pair_sweep.pairs", "count", "lower"),
    ("kernels.tr_pair_sweep.pairs_per_s", "1/s", "higher"),
    ("kernels.tr_pair_sweep.horner_steps", "count", "lower"),
    ("taylor.check_Tr.busy_s", "s", "lower"),
    ("taylor.check_Tr.self_s", "s", "lower"),
    ("taylor.check_Tr.calls", "count", "lower"),
    ("taylor.verdict.holds", "count", "higher"),
    ("taylor.verdict.fails", "count", "lower"),
    ("taylor.verdict.indeterminate", "count", "lower"),
    ("taylor.residues", "count", "lower"),
    ("taylor.verify_gauss1a.busy_s", "s", "lower"),
    ("taylor.balls", "count", "lower"),
    ("heights.points.busy_s", "s", "lower"),
    ("heights.grid_candidates", "count", "lower"),
    ("heights.points_found", "count", "higher"),
    ("heights.accept_ratio", "ratio", "higher"),
    ("heights.hk_poly.busy_s", "s", "lower"),
    ("heights.hk_poly.calls", "count", "lower"),
    ("arith_core.MultiPoly.eval.calls", "count", "lower"),
    ("arith_core.MultiPoly.eval.busy_s", "s", "lower"),
    ("detmethod.cover_points.self_s", "s", "lower"),
    ("detmethod.certify_components.busy_s", "s", "lower"),
    ("detmethod.auxiliary_polynomial.busy_s", "s", "lower"),
    ("detmethod.auxiliary_polynomial.calls", "count", "lower"),
    ("detmethod.rational_rank.calls", "count", "lower"),
    ("detmethod.exact_det.calls", "count", "lower"),
    ("detmethod.det_bound_check.busy_s", "s", "lower"),
    ("detmethod.det_bound_check.calls", "count", "lower"),
    ("detmethod.det_bound_check.violations", "count", "lower"),
    ("hilbert.groebner.busy_s", "s", "lower"),
    ("hilbert.s_polynomial.calls", "count", "lower"),
    ("hilbert.normal_form.calls", "count", "lower"),
    ("hilbert.table.busy_s", "s", "lower"),
    ("hilbert.standard_monomials.calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Work counts that must repeat exactly for the same inputs.
DETERMINISTIC_COUNTERS = (
    "ffcount.states", "heights.grid_candidates", "kernels.tr_pair_sweep.pairs",
    "hilbert.s_polynomial.calls", "detmethod.rational_rank.calls", "taylor.residues",
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(delta, report_bytes):
    """Per-layer metric values of one traced pass, from the difference of
    two snapshots and the CLI report bytes the pass produced."""
    calls, busy = delta["calls"], delta["busy"]
    self_s, c = delta["self"], delta["counters"]
    v = {
        "cli.parse.busy_s": busy.get("cli.parse", 0.0),
        "cli.emit.busy_s": busy.get("cli.emit", 0.0),
        "cli.report_bytes": report_bytes,
        "ffcount.yield": _ratio(c.get("ffcount.solutions", 0), c.get("ffcount.states", 0)),
        "ffcount.fit.busy_s": busy.get("ffcount.fit", 0.0),
        "kernels.ff_count.states_per_s": _ratio(c.get("kernels.ff_count.states", 0),
                                                 busy.get("kernels.ff_count", 0.0)),
        "kernels.tr_pair_sweep.pairs_per_s": _ratio(
            c.get("kernels.tr_pair_sweep.pairs", 0), busy.get("kernels.tr_pair_sweep", 0.0)),
        "heights.points.busy_s": busy.get("heights.points", 0.0),
        "heights.accept_ratio": _ratio(c.get("heights.points_found", 0),
                                       c.get("heights.grid_candidates", 0)),
        "hilbert.table.busy_s": busy.get("hilbert.table", 0.0),
    }
    for name, _unit, _better in LAYER_METRICS:
        if name in v or name == "trace.overhead_frac":
            continue
        group, _, kind = name.rpartition(".")
        if kind == "busy_s":
            v[name] = busy.get(group, 0.0)
        elif kind == "self_s":
            v[name] = self_s.get(group, 0.0)
        elif kind == "calls":
            v[name] = calls.get(group, 0)
        else:
            v[name] = c.get(name, 0)
    return v


def diff(after, before):
    return {k: {key: val - before[k].get(key, 0) for key, val in after[k].items()}
            for k in after}
