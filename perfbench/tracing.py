"""Per-layer tracing by wrapping qmgraph's public functions from outside.

Nothing under src/ changes.  Module functions are re-bound in every
qmgraph module that holds them by name (decide imports tau_classes, scl
imports evaluate, ...); methods are replaced on their class.  A wrapper
records a span (name, start, end, parent, query id) and adds its
duration minus its children's to the layer's self time.  Very hot, tiny
calls get count-only wrappers.  Spans are kept in memory, up to a cap,
and written out when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (metric name, unit, better) of the traced run, per query (mean over the
# traced queries) unless the unit says otherwise.
S, N = "s/query", "count/query"
LAYER_METRICS = (
    ("words.mul.calls", N, "lower"),
    ("words.mul.self_s", S, "lower"),
    ("words.mul.letters_out", N, "lower"),
    ("words.inverse.self_s", S, "lower"),
    ("words.pow.calls", N, "lower"),
    ("words.pow.self_s", S, "lower"),
    ("words.normalise.calls", N, "lower"),
    ("words.normalise.self_s", S, "lower"),
    ("words.retraction.self_s", S, "lower"),
    ("words.syllables.self_s", S, "lower"),
    ("codes.homogenise.calls", N, "lower"),
    ("codes.homogenise.self_s", S, "lower"),
    ("codes.homogenise.powers", N, "lower"),
    ("codes.homogenise.exact_frac", "ratio", "higher"),
    ("codes.qm.calls", N, "lower"),
    ("codes.qm.self_s", S, "lower"),
    ("codes.code.self_s", S, "lower"),
    ("evaluators.evaluate.calls", N, "lower"),
    ("evaluators.evaluate.self_s", S, "lower"),
    ("evaluators.build.self_s", S, "lower"),
    ("evaluators.terms", N, "lower"),
    ("evaluators.cache_hit_ratio", "ratio", "higher"),
    ("autos.apply.calls", N, "lower"),
    ("autos.apply.self_s", S, "lower"),
    ("autos.validate.calls", N, "lower"),
    ("autos.validate.self_s", S, "lower"),
    ("autos.enum.calls", N, "lower"),
    ("autos.enum.self_s", S, "lower"),
    ("autos.enum.autos_out", N, "lower"),
    ("graphs.leq_tau.calls", N, "lower"),
    ("graphs.tau_classes.calls", N, "lower"),
    ("graphs.tau_classes.self_s", S, "lower"),
    ("graphs.is_lower_cone.calls", N, "lower"),
    ("graphs.is_lower_cone.self_s", S, "lower"),
    ("graphs.induced.calls", N, "lower"),
    ("graphs.expand.self_s", S, "lower"),
    ("decide.decide.calls", N, "lower"),
    ("decide.decide.self_s", S, "lower"),
    ("decide.find_invariant_cones.calls", N, "lower"),
    ("decide.find_invariant_cones.self_s", S, "lower"),
    ("decide.find_invariant_cones.cones_out", N, "lower"),
    ("decide.witness.self_s", S, "lower"),
    ("scl.estimate_defect.calls", N, "lower"),
    ("scl.estimate_defect.self_s", S, "lower"),
    ("scl.estimate_defect.samples", N, "lower"),
    ("scl.estimate_defect.skipped_frac", "ratio", "lower"),
    ("scl.bound.calls", N, "lower"),
    ("scl.bound.self_s", S, "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
LAYERS = ("words", "codes", "evaluators", "autos", "graphs", "decide", "scl")


def _len_out(key):
    return lambda tr, out: tr.bump(key, len(out))


def _homog_exact(tr, out):
    tr.bump("codes.homogenise.exact", int(getattr(out, "exact", True)))


def _homog_powers(tr, args):
    """Count the powers x^n homogenise evaluates, through its f argument."""
    f = args[0]

    def counted(w):
        tr.bump("codes.homogenise.powers")
        return f(w)
    return (counted,) + args[1:]


def _defect_counts(tr, out):
    tr.bump("scl.estimate_defect.samples", out.samples)
    tr.bump("scl.estimate_defect.skipped", getattr(out, "skipped", 0))


# (span, module, function or Class.method, mode, post hook[, pre hook]).
# mode "span" times and records; "count" only counts.  Names missing from
# the program are skipped, so a refactor that removes one shows as zeros
# (listed on the report), not as a crash.
TARGETS = (
    ("words.mul", "qmgraph.words", "NormalWord.__mul__", "span",
     _len_out("words.mul.letters_out")),
    ("words.inverse", "qmgraph.words", "NormalWord.inverse", "span", None),
    ("words.pow", "qmgraph.words", "NormalWord.__pow__", "span", None),
    ("words.normalise", "qmgraph.words", "_reduce", "span", None),
    ("words.normalise", "qmgraph.words", "_canonical", "span", None),
    ("words.retraction", "qmgraph.words", "retraction", "span", None),
    ("words.syllables", "qmgraph.words", "syllables", "span", None),
    ("codes.homogenise", "qmgraph.codes", "homogenise", "span", _homog_exact,
     _homog_powers),
    ("codes.qm", "qmgraph.codes", "code_qm", "span", None),
    ("codes.qm", "qmgraph.codes", "weighted_code_qm", "span", None),
    ("codes.code", "qmgraph.codes", "code", "span", None),
    ("codes.code", "qmgraph.codes", "weighted_z_code", "span", None),
    ("evaluators.evaluate", "qmgraph.evaluators", "evaluate", "span", None),
    ("evaluators.build", "qmgraph.evaluators", "build", "span", None),
    ("evaluators.terms", "qmgraph.evaluators", "Evaluator._homog", "count",
     None),
    ("autos.apply", "qmgraph.autos", "apply_gen", "span", None),
    ("autos.validate", "qmgraph.autos", "validate_gen", "span", None),
    ("autos.enum", "qmgraph.autos", "enum_labelled_graph_autos", "span",
     _len_out("autos.enum.autos_out")),
    ("graphs.leq_tau", "qmgraph.graphs", "LabeledGraph.leq_tau", "count",
     None),
    ("graphs.tau_classes", "qmgraph.graphs", "tau_classes", "span", None),
    ("graphs.is_lower_cone", "qmgraph.graphs", "is_lower_cone", "span", None),
    ("graphs.induced", "qmgraph.graphs", "LabeledGraph.induced", "count",
     None),
    ("graphs.expand", "qmgraph.graphs", "expand", "span", None),
    ("decide.decide", "qmgraph.decide", "decide", "span", None),
    ("decide.find_invariant_cones", "qmgraph.decide", "find_invariant_cones",
     "span", _len_out("decide.find_invariant_cones.cones_out")),
    ("decide.witness", "qmgraph.decide", "witness", "span", None),
    ("scl.estimate_defect", "qmgraph.scl", "estimate_defect", "span",
     _defect_counts),
    ("scl.bound", "qmgraph.scl", "scl_aut_lower_bound", "span", None),
)


SPAN_CAP = 200_000  # spans kept for the output file; self time counts all


class Tracer:
    """Spans and counters of the queries run while it is installed."""

    def __init__(self):
        self.qid = None            # current query id; None = not recording
        self.counts: dict[int, dict[str, float]] = {}   # per query
        self.self_s: dict[str, float] = {}
        self.cur: dict[str, float] = {}
        self.stack: list[list] = []  # open: [index, child s, start, name]
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("l")
        self.sp_qid = array("l")
        self.dropped = 0
        self.missing: list[str] = []
        self.t0 = perf_counter()

    # -- recording ------------------------------------------------------------

    def bump(self, key: str, by: float = 1):
        self.cur[key] = self.cur.get(key, 0) + by

    def begin(self, qid: int, name: str):
        self.qid = qid
        self.cur = self.counts.setdefault(qid, {})
        self._open(name)

    def end(self):
        self._close()
        self.qid = None

    def _open(self, name: str):
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = -1
        if len(self.sp_start) < SPAN_CAP:
            idx = len(self.sp_start)
            self.sp_name.append(nid)
            self.sp_parent.append(self.stack[-1][0] if self.stack else -1)
            self.sp_qid.append(self.qid)
            self.sp_end.append(0.0)
            self.sp_start.append(0.0)
        else:
            self.dropped += 1
        t = perf_counter()
        if idx >= 0:
            self.sp_start[idx] = t - self.t0
        self.stack.append([idx, 0.0, t, name])

    def _close(self):
        t1 = perf_counter()
        idx, child, t0, name = self.stack.pop()
        dur = t1 - t0
        if idx >= 0:
            self.sp_end[idx] = t1 - self.t0
        if self.stack:
            self.stack[-1][1] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        calls = name + ".calls"
        self.cur[calls] = self.cur.get(calls, 0) + 1

    def span(self, name: str, fn, post=None, pre=None):
        tr = self

        def wrapper(*args, **kwargs):
            if tr.qid is None:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(tr, args)
            tr._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close()
            if post is not None:
                post(tr, out)
            return out
        return wrapper

    def count(self, name: str, fn):
        tr = self
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if tr.qid is not None:
                cur = tr.cur
                cur[key] = cur.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every target in the loaded qmgraph modules."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "qmgraph" or name.startswith("qmgraph.")]
        for name, modname, attr, mode, post, *pre in TARGETS:
            home = sys.modules.get(modname)
            owner, _, meth = attr.rpartition(".")
            holder = getattr(home, owner, None) if owner else home
            fn = getattr(holder, meth, None) if holder is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = (self.span(name, fn, post, *pre) if mode == "span"
                       else self.count(name, fn))
            if owner:
                setattr(holder, meth, wrapped)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)

    # -- results --------------------------------------------------------------

    def totals(self, qids) -> dict[str, float]:
        out: dict[str, float] = {}
        for q in qids:
            for k, v in self.counts.get(q, {}).items():
                out[k] = out.get(k, 0) + v
        return out

    def layer_metrics(self, qids, overhead: float) -> dict[str, float]:
        """Every LAYER_METRICS value, per traced query."""
        n = max(1, len(qids))
        tot = self.totals(qids)
        vals = {}
        for metric, _unit, _better in LAYER_METRICS:
            if metric.endswith(".self_s"):
                vals[metric] = self.self_s.get(metric[:-7], 0.0) / n
            else:
                vals[metric] = tot.get(metric, 0) / n
        hcalls = tot.get("codes.homogenise.calls", 0)
        vals["codes.homogenise.exact_frac"] = (
            tot.get("codes.homogenise.exact", 0) / hcalls if hcalls else 0.0)
        terms = tot.get("evaluators.terms.calls", 0)
        vals["evaluators.terms"] = terms / n
        vals["evaluators.cache_hit_ratio"] = (
            1 - hcalls / terms if terms else 0.0)
        samples = tot.get("scl.estimate_defect.samples", 0)
        vals["scl.estimate_defect.skipped_frac"] = (
            tot.get("scl.estimate_defect.skipped", 0) / samples
            if samples else 0.0)
        vals["trace.overhead_frac"] = overhead
        return vals

    def layer_self_share(self, busy: float) -> dict[str, float]:
        """Share of the traced queries' time spent in each layer itself."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += s / busy
        return out

    def write(self, path):
        """Spans as TSV: name, start and end (s since the tracer started),
        parent span index, query id."""
        with open(path, "w") as fh:
            fh.write(f"# spans={len(self.sp_start)} dropped={self.dropped}\n")
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            for i in range(len(self.sp_start)):
                fh.write(f"{i}\t{self.names[self.sp_name[i]]}\t"
                         f"{self.sp_start[i]:.7f}\t{self.sp_end[i]:.7f}\t"
                         f"{self.sp_parent[i]}\t{self.sp_qid[i]}\n")
