"""Per-layer tracing from outside the program.

The benchmark wraps the public functions of each ``srskit`` module at the
name their callers look them up through, and records one span per call.
A layer's self time is its spans' duration minus the time of the spans
nested in them, so the self times of all layers (including the benchmark's
own ``op`` root span and the tracer's ``trace`` bookkeeping) add up to the
traced op's duration.

A target that a later version of the program removes or renames resolves
to nothing; a layer with no resolved target is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

MB = 1024.0 * 1024.0

# layer -> "module:attribute" names it is traced at.  The caller's own
# binding comes first (``srskit.cli.load_csv`` is bound by name in cli),
# then the defining module's, for callers that go through the module.
LAYERS = {
    "cli": ["srskit.cli:main"],
    "io.load": [
        "srskit.cli:load_csv", "srskit.cli:load_labels", "srskit.cli:load_indices",
        "srskit.io:load_csv", "srskit.io:load_labels", "srskit.io:load_indices",
    ],
    "io.save": [
        "srskit.cli:save_csv", "srskit.cli:save_labels", "srskit.cli:save_indices",
        "srskit.io:save_csv", "srskit.io:save_labels", "srskit.io:save_indices",
        "srskit.analysis:ExperimentReport.to_csv",
    ],
    "synthgen.gen": [
        "srskit.cli:gen_union_subspaces", "srskit.cli:gen_arc_clusters",
        "srskit.synthgen:gen_union_subspaces", "srskit.synthgen:gen_arc_clusters",
    ],
    "embedding": [
        "srskit.cli:build_embedding", "srskit.cli:apply_embedding",
        "srskit.embedding:build_embedding", "srskit.embedding:apply_embedding",
    ],
    "matrix.normalize": [
        "srskit.cli:normalize_columns", "srskit.analysis:normalize_columns",
        "srskit.matrix:normalize_columns",
    ],
    "samplers": [
        "srskit.cli:sample_columns", "srskit.analysis:sample_columns",
        "srskit.samplers:sample_columns", "srskit.analysis:srs_with_replacement",
    ],
    "samplers.project": ["srskit.samplers:srs_select_indices"],
    "select": ["srskit.samplers:pick_distinct_argmax"],
    "samplers.leverage": ["srskit.samplers:leverage_sampling"],
    "samplers.volume": ["srskit.samplers:volume_sampling"],
    "kmeans": ["srskit.analysis:kmeans", "srskit.kmeans:kmeans"],
    "lloyd": ["srskit._kernels:lloyd"],
    "kmeans.assign": ["srskit.kmeans:assign_to_columns"],
    "matrix.rank": [
        "srskit.analysis:numerical_rank", "srskit.cli:numerical_rank",
        "srskit.samplers:numerical_rank", "srskit.matrix:numerical_rank",
    ],
    "analysis": [
        "srskit.analysis:coverage_experiment", "srskit.analysis:rank_curve",
        "srskit.analysis:kmeans_balance_experiment",
    ],
    "analysis.region_areas": ["srskit.analysis:estimate_region_areas"],
    "analysis.empirical_probs": ["srskit.analysis:empirical_sampling_probabilities"],
    "plots.svg": ["srskit.plots:rank_curve_svg", "srskit.plots:coverage_svg"],
}

# the benchmark's own root span and the tracer's counter bookkeeping
OP = "op"
TRACE = "trace"


def _path_arg(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


def _file_mb(path):
    try:
        return os.path.getsize(path) / MB
    except (OSError, TypeError):
        return 0.0


class Tracer:
    """Spans and counters of the ops run while ``active`` is set."""

    def __init__(self):
        self.active = False
        self._stack = []  # [layer, start, child time]
        self._peaks = []  # [traced bytes at entry, peak bytes] per open frame
        self.self_s = {}
        self.counts = {}

    # -- spans ---------------------------------------------------------

    def enter(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self):
        layer, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def reset(self):
        self.self_s = {}
        self.counts = {}

    # -- tracemalloc peaks, nesting-safe -------------------------------

    def _alloc_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self._peaks:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([cur, cur])

    def _alloc_exit(self):
        _, peak = tracemalloc.get_traced_memory()
        base, top = self._peaks.pop()
        top = max(top, peak)
        for frame in self._peaks:
            frame[1] = max(frame[1], top)
        if not self._peaks:
            tracemalloc.stop()
        return (top - base) / MB

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer, fn, hook, alloc):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if alloc:
                tracer.enter(TRACE)
                tracer._alloc_enter()
                tracer.exit()
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                if alloc:
                    tracer.enter(TRACE)
                    tracer.peak(alloc, tracer._alloc_exit())
                    tracer.exit()
            if hook is not None:
                tracer.enter(TRACE)
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer.exit()
            return result

        return traced

    def install(self):
        """Wrap every resolvable target; returns the absent layers."""
        resolved = set()
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, attr = target.split(":")
                try:
                    owner = importlib.import_module(modname)
                    *path, name = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, name)
                except (ImportError, AttributeError):
                    continue
                if not callable(fn):
                    continue
                hook, alloc = HOOKS.get(target, HOOKS.get(layer, (None, None)))
                setattr(owner, name, self._wrap(layer, fn, hook, alloc))
                resolved.add(layer)
        return sorted(set(LAYERS) - resolved)


# -- counter hooks: (tracer, args, kwargs, result) ------------------------


def _load_hook(tr, args, kwargs, result):
    tr.count("io.read_mb", _file_mb(_path_arg(args, kwargs)))


def _save_hook(tr, args, kwargs, result):
    # the first positional of to_csv is the report itself, never a path
    tr.count("io.write_mb", _file_mb(_path_arg(args[1:], kwargs)))


def _project_hook(tr, args, kwargs, result):
    X, phi = args[0], args[1]
    tr.count("samplers.project_gflop", 2.0 * phi.shape[0] * phi.shape[1] * X.shape[1] / 1e9)


def _select_hook(tr, args, kwargs, result):
    import numpy as np

    absq = args[0]
    picks = np.asarray(result)
    n = picks.size
    # a row collides when its unrestricted argmax was taken by an earlier row
    first = np.full(absq.shape[1], n, dtype=np.int64)
    first[picks[::-1]] = np.arange(n - 1, -1, -1)
    free_best = np.argmax(absq, axis=1)
    tr.count("select.rows", n)
    tr.count("select.collisions", int(np.count_nonzero(first[free_best] < np.arange(n))))


def _lloyd_hook(tr, args, kwargs, result):
    tr.count("lloyd.calls", 1)
    tr.count("lloyd.iters", int(result[3]))


HOOKS = {
    "io.load": (_load_hook, None),
    "io.save": (_save_hook, None),
    "samplers.project": (_project_hook, None),
    "select": (_select_hook, None),
    "lloyd": (_lloyd_hook, None),
    "srskit.cli:sample_columns": (None, "samplers.peak_alloc_mb"),
    "srskit.analysis:sample_columns": (None, "samplers.peak_alloc_mb"),
    "srskit.samplers:sample_columns": (None, "samplers.peak_alloc_mb"),
    "analysis.region_areas": (None, "analysis.peak_alloc_mb"),
    "analysis.empirical_probs": (None, "analysis.peak_alloc_mb"),
}

# metric -> (unit, layers it needs).  Time metrics are layer self times.
PER_LAYER = {
    "io.load_s": ("s", ["io.load"]),
    "io.read_mb": ("MB", ["io.load"]),
    "io.read_mb_per_s": ("MB/s", ["io.load"]),
    "io.save_s": ("s", ["io.save"]),
    "io.write_mb": ("MB", ["io.save"]),
    "setup.io.save_s": ("s", ["io.save"]),
    "synthgen.gen_s": ("s", ["synthgen.gen"]),
    "cli.self_s": ("s", ["cli"]),
    "embedding.s": ("s", ["embedding"]),
    "matrix.normalize_s": ("s", ["matrix.normalize"]),
    "samplers.self_s": ("s", ["samplers"]),
    "samplers.project_s": ("s", ["samplers.project"]),
    "samplers.project_gflop": ("GFLOP", ["samplers.project"]),
    "select.s": ("s", ["select"]),
    "select.rows": ("count", ["select"]),
    "select.collision_frac": ("ratio", ["select"]),
    "samplers.peak_alloc_mb": ("MB", ["samplers"]),
    "samplers.leverage_s": ("s", ["samplers.leverage"]),
    "samplers.volume_s": ("s", ["samplers.volume"]),
    "kmeans.self_s": ("s", ["kmeans"]),
    "lloyd.s": ("s", ["lloyd"]),
    "lloyd.iters": ("count", ["lloyd"]),
    "lloyd.calls": ("count", ["lloyd"]),
    "kmeans.assign_s": ("s", ["kmeans.assign"]),
    "matrix.rank_s": ("s", ["matrix.rank"]),
    "analysis.self_s": ("s", ["analysis"]),
    "analysis.region_areas_s": ("s", ["analysis.region_areas"]),
    "analysis.empirical_probs_s": ("s", ["analysis.empirical_probs"]),
    "analysis.peak_alloc_mb": ("MB", ["analysis.region_areas", "analysis.empirical_probs"]),
    "plots.svg_s": ("s", ["plots.svg"]),
    "op.self_s": ("s", []),
    "trace.self_s": ("s", []),
    "op.traced_s": ("s", []),
    "trace.overhead_frac": ("ratio", []),
}

# self-time metric -> layer, for the per-op breakdown
SELF_METRICS = {
    "io.load_s": "io.load", "io.save_s": "io.save",
    "cli.self_s": "cli", "embedding.s": "embedding",
    "matrix.normalize_s": "matrix.normalize", "samplers.self_s": "samplers",
    "samplers.project_s": "samplers.project", "select.s": "select",
    "samplers.leverage_s": "samplers.leverage", "samplers.volume_s": "samplers.volume",
    "kmeans.self_s": "kmeans", "lloyd.s": "lloyd", "kmeans.assign_s": "kmeans.assign",
    "matrix.rank_s": "matrix.rank", "analysis.self_s": "analysis",
    "analysis.region_areas_s": "analysis.region_areas",
    "analysis.empirical_probs_s": "analysis.empirical_probs",
    "plots.svg_s": "plots.svg", "op.self_s": OP, "trace.self_s": TRACE,
}
