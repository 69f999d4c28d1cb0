"""Guards for the benchmark tooling under perfbench/, which drives gcl from
outside the package: a change to gcl that breaks the traced benchmark run
fails here."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

import gcl

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SPANS_PATH = os.path.join(REPO, "perfbench", "spans.py")


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
    assert tracer.counts["subgraph_short"] == 0  # a connected tree yields the full target size
    assert tracer.counts["edge_perturb_peak_bytes"] > 0
    assert {"augment.EdgePerturb.tracemalloc", "augment.Subgraph"} <= {s[1] for s in tracer.spans}


def test_tracer_counts_tape_ops_of_pretrain_steps():
    # perfbench's tensor.tape_ops_per_step is tape_ops / pretrain_steps, both
    # counted where contrastive.pretrain calls backward: a 3-layer step records
    # 22 tape ops with GCN and 34 with GIN.
    spans = load_spans()
    ds = gcl.make_corpus(8, families=("cycle", "star"), size_range=(5, 8), seed=0)
    for arch, ops_per_step in (("gcn", 22), ("gin", 34)):
        tracer = spans.Tracer()
        try:
            tracer.install(gcl)
            gcl.contrastive.pretrain(ds, gcl.PretrainConfig(batch_size=4, epochs=1), gcl.EncoderConfig(arch=arch))
        finally:
            tracer.uninstall()
        assert tracer.counts["pretrain_steps"] == 2
        assert tracer.counts["tape_ops"] == ops_per_step * tracer.counts["pretrain_steps"], arch


def test_untraced_benchmark_run_passes_its_checks():
    # The untraced run calls gcl the way the benchmark does; its last line is the JSON summary.
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aug-grid", "--seed", "1", "--seconds", "0.5",
         "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
