"""Per-layer tracing by wrapping asdimlab's public functions from outside.

Each wrapped name is patched in every asdimlab module that binds it (for
example `build_ball` in groups, amalgam, builder and coxeter), and methods on
their classes, so calls are caught wherever they are looked up.  Every call
opens a frame; a frame's duration is added to its parent's child time, which
gives self times.  Inclusive time of a metric is counted at its outermost
frame only, so recursion (cover_racg -> cover_amalgam -> C-certificate ->
cover_racg) is not counted twice.  Calls that run up to millions of times
(gate_tail, ancestor_at_level, algebraic_diameter, dijkstra) are aggregated
without a span; every other call records a span (name, start, end, parent,
command).  Only `install` touches the program, and only traced runs call it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# per-layer metric -> (table, key): a key's "inclusive" or "self" seconds, its
# "calls", or an "extra" counter of the result hooks; D_R_useful_ratio is
# derived by `with_ratios`.  Names and units are those of BENCHMARK.json.
SOURCES = {
    "groups.build_ball_s": ("inclusive", "groups.build_ball"),
    "groups.build_ball_calls": ("calls", "groups.build_ball"),
    "groups.ball_elements": ("extra", "ball_elements"),
    "groups.graph_metric_s": ("inclusive", "groups.graph_metric"),
    "amalgam.build_dual_graph_s": ("inclusive", "amalgam.build_dual_graph"),
    "amalgam.dual_vertices": ("extra", "dual_vertices"),
    "amalgam.gate_tail_s": ("inclusive", "amalgam.gate_tail"),
    "amalgam.gate_tail_calls": ("calls", "amalgam.gate_tail"),
    "amalgam.assertion_2_1_s": ("inclusive", "amalgam.assertion_2_1"),
    "amalgam.assertion_2_2_s": ("inclusive", "amalgam.assertion_2_2"),
    "amalgam.translate_disjointness_s": ("inclusive", "amalgam.translate_disjointness"),
    "amalgam.separation_s": ("inclusive", "amalgam.separation"),
    "amalgam.partition_s": ("inclusive", "amalgam.partition"),
    "amalgam.compute_D_R_calls": ("calls", "amalgam.compute_D_R"),
    "amalgam.compute_D_R_nonempty": ("extra", "D_R_nonempty"),
    "metric.dist_field_calls": ("calls", "metric.dist_field"),
    "metric.dist_field_s": ("inclusive", "metric.dist_field"),
    "metric.dist_field_cache_hits": ("extra", "dist_field_cache_hits"),
    "metric.bfs_nodes": ("extra", "bfs_nodes"),
    "metric.masked_s": ("inclusive", "metric.masked"),
    "builder.cover_amalgam_self_s": ("self", "builder.cover_amalgam"),
    "builder.inner_certificate_s": ("inclusive", "builder.inner_certificate"),
    "builder.schedule_probe_s": ("inclusive", "builder.schedule_probe"),
    "builder.measure_s": ("inclusive", "builder.measure"),
    "builder.verify_s": ("inclusive", "builder.verify"),
    "builder.algebraic_diameter_s": ("inclusive", "builder.algebraic_diameter"),
    "builder.color_gap_calls": ("calls", "builder.color_gap"),
    "builder.claimed_d": ("extra", "claimed_d"),
    "builder.sets_inexact_diameter": ("extra", "sets_inexact_diameter"),
    "covers.cover_order_s": ("inclusive", "covers.cover_order"),
    "coxeter.calls": ("calls", "coxeter"),
    "cli.write_s": ("inclusive", "cli.write"),
    "cli.artifact_bytes": ("extra", "artifact_bytes"),
}

# (module, attribute or Class.method, metric key, records a span)
TARGETS = [
    ("groups", "build_ball", "groups.build_ball", True),
    ("groups", "Ball.graph_metric", "groups.graph_metric", True),
    ("amalgam", "prepare", "amalgam.prepare", True),
    ("amalgam", "build_dual_graph", "amalgam.build_dual_graph", True),
    ("amalgam", "TableAmalgam.gate_tail", "amalgam.gate_tail", False),
    ("amalgam", "RacgAmalgam.gate_tail", "amalgam.gate_tail", False),
    ("amalgam", "check_assertion_2_1", "amalgam.assertion_2_1", True),
    ("amalgam", "check_assertion_2_2", "amalgam.assertion_2_2", True),
    ("amalgam", "check_translate_disjointness", "amalgam.translate_disjointness", True),
    ("amalgam", "check_separation", "amalgam.separation", True),
    ("amalgam", "partition_ball", "amalgam.partition", True),
    ("amalgam", "verify_partition", "amalgam.partition", True),
    ("amalgam", "compute_D_R", "amalgam.compute_D_R", True),
    ("amalgam", "beyond_set", "amalgam.beyond_set", True),
    ("amalgam", "DualGraph.ancestor_at_level", "amalgam.ancestor_at_level", False),
    ("amalgam", "partition_json", "cli.write", True),
    ("metric", "GraphMetric.dist_field", "metric.dist_field", True),
    ("metric", "GraphMetric.masked", "metric.masked", True),
    ("metric", "dijkstra", "metric.dijkstra", False),
    ("builder", "cover_racg", "builder.cover_racg", True),
    ("builder", "cover_amalgam", "builder.cover_amalgam", True),
    ("builder", "cover_finite_group", "builder.cover_finite_group", True),
    ("builder", "_c_certificate", "builder.inner_certificate", True),
    ("builder", "projected_ball_size", "builder.schedule_probe", True),
    ("builder", "measure_certificate", "builder.measure", True),
    ("builder", "verify_certificate", "builder.verify", True),
    ("builder", "algebraic_diameter", "builder.algebraic_diameter", False),
    ("builder", "color_gap", "builder.color_gap", True),
    ("builder", "certificate_json_str", "cli.write", True),
    ("covers", "cover_order", "covers.cover_order", True),
    ("groups", "Ball.to_json", "cli.write", True),
    ("cli", "_write", "cli.write", True),
    ("coxeter", "CoxeterSystem.__init__", "coxeter", True),
    ("coxeter", "CoxeterSystem.engine", "coxeter", True),
    ("coxeter", "CoxeterSystem.commutation_graph", "coxeter", True),
    ("coxeter", "CoxeterSystem.require_right_angled", "coxeter", True),
    ("coxeter", "split_vertex_choice", "coxeter", True),
    ("coxeter", "asdim_recursive", "coxeter", True),
    ("coxeter", "build_nerve", "coxeter", True),
    ("coxeter", "decompose", "coxeter", True),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span id, command id]
        self.stack = []  # frames: [key, child time, span id or None]
        self.command = None
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.extra = Counter()
        self.depth = Counter()

    def reset(self):
        """Start a new command; the hooks keep references to these tables."""
        for table in (self.inclusive, self.self_time, self.calls, self.extra):
            table.clear()

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def wrap(self, fn, key, span, after=None):
        tracer = self

        def traced(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(tracer.spans)
                tracer.spans.append([key, 0.0, 0.0, tracer._parent_span(), tracer.command])
            frame = [key, 0.0, span_id]
            bfs_before = tracer.calls["metric.dijkstra"]
            tracer.stack.append(frame)
            tracer.depth[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.depth[key] -= 1
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.self_time[key] += duration - frame[1]
                if not tracer.depth[key]:
                    tracer.inclusive[key] += duration
                tracer.calls[key] += 1
                if span:
                    tracer.spans[span_id][1:3] = [start, end]
            if after is not None:
                after(result, args, bfs_before)
            return result

        traced.__wrapped__ = fn
        return traced

    def in_frame(self, key):
        return any(frame[0] == key for frame in self.stack)

    # -- result hooks ---------------------------------------------------------

    def _after(self, key):
        extra = self.extra
        if key == "groups.build_ball":
            return lambda ball, *_: extra.update({"ball_elements": len(ball)})
        if key == "amalgam.build_dual_graph":
            return lambda dual, *_: extra.update({"dual_vertices": dual.n_vertices})
        if key == "amalgam.compute_D_R":
            return lambda ids, *_: extra.update({"D_R_nonempty": int(len(ids) > 0)})
        if key == "metric.dijkstra":
            return lambda _, args, __: extra.update({"bfs_nodes": int(args[0].shape[0])})
        if key == "metric.dist_field":

            def hit(result, args, bfs_before):
                # served from the cache: no BFS ran and the field is a cached one
                field = result[0] if isinstance(result, tuple) else result
                if self.calls["metric.dijkstra"] == bfs_before and any(
                    field is v for v in args[0]._field_cache.values()
                ):
                    extra["dist_field_cache_hits"] += 1

            return hit
        if key == "builder.algebraic_diameter":

            def inexact(result, *_):
                # sets of top-level certificates only, as measured (not verified)
                if (
                    not result[1]
                    and self.in_frame("builder.measure")
                    and not self.in_frame("builder.inner_certificate")
                ):
                    extra["sets_inexact_diameter"] += 1

            return inexact
        if key == "builder.measure":

            def claimed(cert, *_):
                if not self.in_frame("builder.inner_certificate"):
                    extra["claimed_d"] += cert.claimed_d

            return claimed
        if key == "cli.write":

            def written(result, *_):
                if hasattr(result, "stat"):
                    extra["artifact_bytes"] += result.stat().st_size

            return written
        return None

    # -- report ----------------------------------------------------------------

    def metrics(self):
        """This command's value of every metric in SOURCES."""
        tables = {"inclusive": self.inclusive, "self": self.self_time,
                  "calls": self.calls, "extra": self.extra}
        return {name: tables[table][key] for name, (table, key) in SOURCES.items()}

    def layer_times(self):
        """Inclusive and self seconds of every wrapped key, for the trace file."""
        return {
            key: {"calls": self.calls[key], "inclusive_s": self.inclusive[key],
                  "self_s": self.self_time[key]}
            for key in sorted(self.calls)
        }


def with_ratios(values):
    """Add the ratio metric, computed from its (possibly summed) counts."""
    calls = values["amalgam.compute_D_R_calls"]
    values["amalgam.D_R_useful_ratio"] = (
        values["amalgam.compute_D_R_nonempty"] / calls if calls else 0.0
    )
    return values


class _JsonProxy:
    """Stands in for the `json` module inside asdimlab.cli with a traced dumps."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer):
    """Patch every target in every asdimlab module that looks it up."""
    import importlib

    names = ["groups", "amalgam", "metric", "builder", "covers", "coxeter", "cli"]
    modules = [importlib.import_module(f"asdimlab.{n}") for n in names]
    by_name = dict(zip(names, modules))
    for mod_name, attr, key, span in TARGETS:
        mod = by_name[mod_name]
        after = tracer._after(key)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], key, span, after))
            continue
        original = getattr(mod, attr)
        wrapped = tracer.wrap(original, key, span, after)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    cli = by_name["cli"]
    cli.json = _JsonProxy(cli.json, tracer.wrap(cli.json.dumps, "cli.write", True))
