"""Guards for the benchmark tooling under perfbench/, which drives gcl from
outside the package: a change to gcl that breaks the traced benchmark run
fails here."""

import importlib.util
import os

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
