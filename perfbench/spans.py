"""Span recording around gcl's public functions, from outside the package.

A span wraps one call of a public gcl function at the module attribute its
caller looks up (for example `gcl.contrastive.sample_view_pair`, which is
what `pretrain()` resolves at call time). Spans are kept in memory as
(id, name, start, end, parent, thread) and written out when the run ends.
A layer's self time is its span's duration minus the union of the
intervals its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict

# (span name, modules whose attribute is patched, attribute name).
# Each module listed is one that looks the attribute up when gcl runs.
SPAN_SITES = (
    ("synth.make_corpus", ("synth",), "make_corpus"),
    ("graphs.save_tudataset", ("graphs",), "save_tudataset"),
    ("graphs.load_tudataset", ("graphs",), "load_tudataset"),
    ("graphs.induced_subgraph", ("augment",), "induced_subgraph"),
    ("augment.sample_view_pair", ("contrastive",), "sample_view_pair"),
    ("augment.NodeDrop", ("augment",), "node_drop"),
    ("augment.EdgePerturb", ("augment",), "edge_perturb"),
    ("augment.AttrMask", ("augment",), "attr_mask"),
    ("augment.Subgraph", ("augment",), "subgraph_rw"),
    ("model.make_batch", ("contrastive", "pipelines"), "make_batch"),
    ("model.encode", ("contrastive", "pipelines"), "encode"),
    ("model.gin_layer", ("model",), "gin_layer"),
    ("model.gcn_layer", ("model",), "gcn_layer"),
    ("model.project", ("contrastive",), "project"),
    ("model.classify", ("pipelines",), "classify"),
    ("contrastive.nt_xent", ("contrastive",), "nt_xent"),
    ("contrastive.pretrain", ("contrastive", "pipelines"), "pretrain"),
    ("tensor.matmul", ("tensor",), "matmul"),
    ("tensor.segment_sum", ("tensor",), "segment_sum"),
    ("tensor.gather_rows", ("tensor",), "gather_rows"),
    ("tensor.backward", ("contrastive", "pipelines"), "backward"),
    ("pipelines.finetune", ("pipelines",), "finetune"),
    ("pipelines.train_from_scratch", ("pipelines",), "train_from_scratch"),
    ("pipelines.embed_dataset", ("pipelines",), "embed_dataset"),
    ("pipelines.linear_probe", ("pipelines",), "linear_probe"),
    ("pipelines.aug_grid", ("pipelines",), "aug_grid"),
)


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread name)
        self.counts = defaultdict(float)
        self._count_lock = threading.Lock()  # grid cells count from worker threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        # A span opened on a worker thread with nothing open there belongs to
        # the span the main thread has open (the grid that started the pool).
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.current_thread().name))

    def add(self, key, value=1):
        with self._count_lock:
            self.counts[key] += value

    # -- patching ---------------------------------------------------------

    def install(self, gcl):
        """Wrap every span site; `uninstall` puts the originals back."""
        for name, modules, attr in SPAN_SITES:
            for mod_name in modules:
                module = getattr(gcl, mod_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrapper(name, original, mod_name))
                self._restore.append((module, attr, original))
        tensor = gcl.tensor
        original_step = tensor.Adam.step
        tracer = self

        def step(optimizer):
            return tracer.span("tensor.adam_step", original_step, optimizer)

        tensor.Adam.step = step
        self._restore.append((tensor.Adam, "step", original_step))
        self._tape_size = tensor.tape_size

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrapper(self, name, original, caller):
        tracer = self
        if name == "tensor.backward" and caller == "contrastive":
            def wrapped(loss):  # a pretrain step: count the ops its tape recorded
                tracer.add("tape_ops", tracer._tape_size())
                tracer.add("pretrain_steps")
                return tracer.span(name, original, loss)
        elif name == "model.make_batch":
            def wrapped(graphs):
                batch = tracer.span(name, original, graphs)
                tracer.add("batch_nodes", batch.features.shape[0])
                tracer.add("batches")
                return batch
        elif name == "augment.Subgraph":
            def wrapped(g, ratio, rng, *args, **kwargs):
                out = tracer.span(name, original, g, ratio, rng, *args, **kwargs)
                # The walk's target size, as documented by subgraph_rw.
                target = max(1, int((1.0 - ratio) * g.num_nodes + 0.5))
                tracer.add("subgraph_walks")
                tracer.add("subgraph_short", out.num_nodes < target)
                return out
        elif name == "augment.EdgePerturb":
            # tracemalloc slows the call it watches, so only the first call on
            # each graph is watched, under its own span name, and left out of
            # the call's time; the workloads repeat the same graphs.
            watched = set()

            def wrapped(g, *args, **kwargs):
                if id(g) in watched:
                    return tracer.span(name, original, g, *args, **kwargs)
                watched.add(id(g))
                tracemalloc.start()
                try:
                    return tracer.span(name + ".tracemalloc", original, g, *args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    with tracer._count_lock:
                        tracer.counts["edge_perturb_peak_bytes"] = max(
                            tracer.counts["edge_perturb_peak_bytes"], peak
                        )
        elif name == "pipelines.finetune":
            def wrapped(params, dataset, split, *args, **kwargs):
                tracer.add("finetune_folds", split.folds)
                return tracer.span(name, original, params, dataset, split, *args, **kwargs)
        elif name == "augment.sample_view_pair":
            def wrapped(*args, **kwargs):
                tracer.add("view_pairs")
                return tracer.span(name, original, *args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)
        wrapped.__wrapped__ = original
        return wrapped

    # -- reduction --------------------------------------------------------

    def _covered(self):
        """span id -> length of the span's interval that its child spans cover."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        return {span_id: _union_within(children[span_id], start, end)
                for span_id, _, start, end, _, _ in self.spans if span_id in children}

    def self_times(self):
        """name -> [calls, total self time]."""
        covered = self._covered()
        stats = defaultdict(lambda: [0, 0.0])
        for span_id, name, start, end, _, _ in self.spans:
            stats[name][0] += 1
            stats[name][1] += end - start - covered.get(span_id, 0.0)
        return dict(stats)

    def child_coverage(self, name):
        """Share of the wall time of the spans called `name` that their children cover."""
        covered = self._covered()
        wall = cover = 0.0
        for span_id, span_name, start, end, _, _ in self.spans:
            if span_name == name:
                wall += end - start
                cover += covered.get(span_id, 0.0)
        return cover / wall if wall else 0.0

    def grid_idle_share(self, workers):
        """1 - (sum of pretrain/finetune busy time under aug_grid) / (grid wall * workers)."""
        grid_ids = {s[0]: s for s in self.spans if s[1] == "pipelines.aug_grid"}
        wall = sum(s[3] - s[2] for s in grid_ids.values())
        busy = 0.0
        for span_id, name, start, end, parent, _ in self.spans:
            if parent in grid_ids and name in (
                "contrastive.pretrain", "pipelines.finetune", "pipelines.train_from_scratch"
            ):
                busy += end - start
        return 1.0 - busy / (wall * workers) if wall else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "thread": thread}
                ) + "\n")


def _union_within(intervals, start, end):
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
