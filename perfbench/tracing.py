"""Span tracing of the wrdpm layers from outside the library.

`Tracer.install` replaces, in every loaded ``wrdpm`` module, each name
bound to a public ``wrdpm`` function with a wrapper that records a span.
That covers a function under every name it is reached by: ``embed`` as
``wrdpm.embedding.embed`` (looked up by the CLI) and as
``wrdpm.community.embed`` (looked up by ``dimension_sweep``), and module
globals such as ``residual`` and ``weighted_clustering`` that their own
module calls. `Tracer.uninstall` puts the original functions back.

A span is ``[name, start, end, parent, info]``; spans stay in memory until
`layer_metrics` reduces them. The layer of a span is the module that
defines the function.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

NAME, START, END, PARENT, INFO = range(5)


def _path_size(func, args, kwargs, result):
    return os.path.getsize(inspect.signature(func).bind(*args, **kwargs).arguments["path"])


# Extra facts a span keeps about its call: exact work counts that only the
# arguments or the result carry.
ANNOTATE = {
    "wrdpm.embedding.embed": lambda f, a, k, r: (r.iterations, r.converged),
    "wrdpm.graph.load_graph": _path_size,
    "wrdpm.graph.save_graph": _path_size,
}


def _public_functions():
    """Map id -> (qualified name, function) for public functions of wrdpm."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("wrdpm."):
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod_name and obj.__name__ == attr):
                found[id(obj)] = (f"{mod_name}.{attr}", obj)
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self):
        public = _public_functions()
        wrappers = {key: self._wrap(name, func) for key, (name, func) in public.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wrdpm" and not mod_name.startswith("wrdpm."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if annotate is not None:
                span[INFO] = annotate(func, args, kwargs, result)
            return result

        return traced


def layer_of(name):
    return name.split(".")[1]


def layer_metrics(spans):
    """Reduce spans to the per-layer metrics of the benchmark (values only)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    def of(short):
        full = f"wrdpm.{short}"
        return [i for i, s in enumerate(spans) if s[NAME] == full]

    def total(idx, values=dur):
        return sum(values[i] for i in idx)

    def under(i, short):
        full = f"wrdpm.{short}"
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == full:
                return True
            p = spans[p][PARENT]
        return False

    def layer_outer(layer):
        """Spans of a layer that no span of the same layer encloses."""
        return [i for i, s in enumerate(spans) if layer_of(s[NAME]) == layer
                and (s[PARENT] < 0 or layer_of(spans[s[PARENT]][NAME]) != layer)]

    loads, saves = of("graph.load_graph"), of("graph.save_graph")
    samples = of("model.sample_from_grids")
    spec = layer_outer("specialize")
    embeds = of("embedding.embed")
    solves = [spans[i][INFO] for i in embeds if spans[i][INFO] is not None]
    iterations = sum(its for its, _ in solves)
    embed_busy = total(embeds)
    mains = of("cli.main")
    cli_spans = [i for i, s in enumerate(spans) if layer_of(s[NAME]) == "cli"]
    return {
        "graph.load_s": total(loads),
        "graph.save_s": total(saves),
        "graph.bytes_read": sum(spans[i][INFO] or 0 for i in loads),
        "graph.bytes_written": sum(spans[i][INFO] or 0 for i in saves),
        "model.sample_s": total(samples),
        "model.sample_calls": len(samples),
        "specialize.busy_s": total(spec),
        "specialize.calls": len(spec),
        "embedding.calls": len(embeds),
        "embedding.busy_s": embed_busy,
        "embedding.iterations": iterations,
        "embedding.ms_per_iter": 1000.0 * embed_busy / iterations if iterations else 0.0,
        "embedding.residual_s": total(of("embedding.residual")),
        "embedding.factor_s": total(embeds, self_time),
        "embedding.converged_ratio": (
            sum(conv for _, conv in solves) / len(embeds) if embeds else 0.0),
        "community.kmeans_s": total(of("community.angular_kmeans")),
        "community.kmeans_calls": len(of("community.angular_kmeans")),
        "community.stress_s": total(of("community.stress")),
        "community.sweep_self_s": total(of("community.dimension_sweep"), self_time),
        "analysis.clustering_s": total(of("analysis.weighted_clustering")),
        "analysis.clustering_calls": len(of("analysis.weighted_clustering")),
        "analysis.null_self_s": total(of("analysis.null_compare"), self_time),
        "analysis.null_draws": sum(1 for i in samples if under(i, "analysis.null_compare")),
        "cli.calls": len(mains),
        "cli.busy_s": total(mains),
        "cli.self_s": total(cli_spans, self_time),
        "trace.spans": len(spans),
    }
