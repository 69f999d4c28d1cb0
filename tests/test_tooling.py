"""Guards for the benchmark tooling under perfbench/, which drives gcl from
outside the package: a change to gcl that breaks the traced benchmark run
fails here."""

import importlib.util
import os

import numpy as np

import gcl

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_gcl():
    spans = load_spans()
    sites = [(getattr(gcl, m), attr) for _, modules, attr in spans.SPAN_SITES for m in modules]
    originals = [getattr(module, attr) for module, attr in sites]
    original_step = gcl.tensor.Adam.step
    tracer = spans.Tracer()
    try:
        tracer.install(gcl)
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
        assert gcl.tensor.Adam.step is not original_step
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in sites] == originals
    assert gcl.tensor.Adam.step is original_step


def test_tracer_counts_edge_perturb_and_subgraph_calls():
    # The per-layer subgraph_short_ratio and EdgePerturb_peak_mb come from
    # wrappers that rely on these call signatures.
    spans = load_spans()
    g = gcl.make_corpus(1, families=("tree",), size_range=(40, 40), seed=0)[0]
    pool_i = gcl.AugmentationPool(specs=(gcl.AugmentationSpec(kind="EdgePerturb"),))
    pool_j = gcl.AugmentationPool(specs=(gcl.AugmentationSpec(kind="Subgraph"),))
    tracer = spans.Tracer()
    try:
        tracer.install(gcl)
        gcl.augment.sample_view_pair(pool_i, pool_j, g, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert tracer.counts["subgraph_walks"] == 1
    assert "subgraph_short" in tracer.counts
    assert tracer.counts["edge_perturb_peak_bytes"] > 0
    assert {"augment.EdgePerturb.tracemalloc", "augment.Subgraph"} <= {s[1] for s in tracer.spans}
