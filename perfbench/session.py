"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/session.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json [--spans SPANS.jsonl]

`run.py` starts this file as a child process (so peak RSS and lazy set-up
belong to one run) and reads RESULT.json back. gcl is imported from the
`src/` directory next to this one and driven only through its public
functions.

Every workload is one caller running a closed loop over the stages of a
GraphCL session on its own corpus: load -> pretrain -> embed -> probe ->
finetune -> grid. A stage is a list of units, each one public gcl call on a
fixed input. Every unit is called once in stage order, then the calls are
interleaved, each stage getting its share of the run's seconds. A unit's time
is the mean of its calls, and a stage's time is the sum over its units (see
README.md for why). The workload decides the corpus, the encoder, the
augmentation pool and the shares: the stages the workload exists for get the
largest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # everything a run writes goes here

SETUP_REPS = 5
LAYERS, HIDDEN = 3, 32  # every workload's encoder is 3 x 32
# gcl's own seeds (augmentation draws, folds, label subsets, initial weights)
# are part of the workload, not of its input: fixed, they make every corpus
# seed run the same augmentation kinds and train on the same graph sizes.
GCL_SEED = 0
STAGES = ("load", "pretrain", "embed", "probe", "finetune", "grid")


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple  # make_corpus families; label = family index
    num_graphs: int
    size_range: tuple  # node counts, spread evenly over the corpus
    arch: str
    pool: tuple  # augmentation kinds of both view pools; () means Identity
    batch_size: int
    shares: dict  # stage -> share of the run's seconds
    probe: dict  # linear_probe keyword arguments
    finetune: dict  # corpus slice (default all), split, epochs, lr and batch size of the finetune stage
    grid: dict  # aug_grid kinds, corpus slice and recipe of the grid stage
    finetune_from: str = "pretrained"  # or "scratch" (train_from_scratch)


def _shares(**focus):
    """`focus` shares; the other stages split what is left evenly."""
    rest = [s for s in STAGES if s not in focus]
    left = (1.0 - sum(focus.values())) / len(rest)
    return {s: focus.get(s, left) for s in STAGES}


SMALL_PROBE = {"folds": 2, "l2_grid": (1.0,)}
# Identity-only grid: one pretrain+finetune cell and the scratch run.
SMALL_GRID = {"kinds": (), "num_graphs": 24, "pretrain_epochs": 1, "batch_size": 8,
              "finetune_epochs": 10, "lr": 0.01, "folds": 2, "label_rate": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pretrain-small",
            families=("cycle", "star", "tree"),
            num_graphs=1002,
            size_range=(10, 60),
            arch="gin",
            pool=("NodeDrop", "Subgraph"),  # default_pool("biochemical")
            batch_size=128,
            shares=_shares(pretrain=0.5),
            probe=SMALL_PROBE,
            finetune={"label_rate": 0.05, "folds": 3, "epochs": 10, "lr": 0.01, "batch_size": 16},
            grid=SMALL_GRID,
        ),
        Workload(
            name="pretrain-large",
            families=("tree", "cycle"),
            num_graphs=64,
            size_range=(300, 800),
            arch="gcn",
            pool=("NodeDrop", "EdgePerturb", "Subgraph"),  # default_pool("social-sparse")
            batch_size=32,
            shares=_shares(pretrain=0.45),
            probe=SMALL_PROBE,
            # On the first 16 graphs: a finetune of the whole corpus takes a second a call.
            finetune={"num_graphs": 16, "label_rate": 0.5, "folds": 2, "epochs": 5, "lr": 0.01, "batch_size": 4},
            grid={**SMALL_GRID, "num_graphs": 8, "batch_size": 4, "finetune_epochs": 5, "lr": 0.03},
        ),
        Workload(
            name="eval",
            families=("cycle", "star", "tree"),
            num_graphs=600,
            size_range=(10, 40),
            arch="gcn",
            pool=(),  # no augmentation anywhere in this workload
            batch_size=128,
            shares=_shares(load=0.1, embed=0.1, probe=0.3, finetune=0.3),
            probe={"folds": 5, "l2_grid": (0.1, 1.0)},
            finetune_from="scratch",
            finetune={"label_rate": 0.1, "folds": 5, "epochs": 5, "lr": 0.01, "batch_size": 32},
            grid=SMALL_GRID,
        ),
        Workload(
            name="aug-grid",
            families=("cycle", "star", "tree"),
            num_graphs=300,
            size_range=(8, 16),
            arch="gcn",
            pool=("NodeDrop", "AttrMask"),
            batch_size=32,
            shares=_shares(grid=0.5),
            probe=SMALL_PROBE,
            finetune={"label_rate": 0.1, "folds": 3, "epochs": 10, "lr": 0.01, "batch_size": 8},
            # On the first 48 graphs: NodeDrop, AttrMask and Identity give 6 cells plus the scratch run.
            grid={"kinds": ("NodeDrop", "AttrMask"), "num_graphs": 48, "pretrain_epochs": 2,
                  "batch_size": 8, "finetune_epochs": 10, "lr": 0.01, "folds": 3, "label_rate": 0.5},
        ),
    )
}


def make_inputs(gcl, w: Workload, seed: int):
    """The workload's corpus, generated by `make_corpus` from `seed`.

    Every seed gets the same node counts (evenly spaced over the size range,
    one graph per family at each count, in one fixed shuffled order), so a
    seed changes the graphs but not how much work they are.
    """
    per = len(w.families)
    sizes = np.linspace(*w.size_range, w.num_graphs // per).round().astype(int)
    order = np.random.default_rng(0).permutation(sizes.size)
    graphs = []
    for i in order:
        n = int(sizes[i])
        part = gcl.synth.make_corpus(per, families=w.families, size_range=(n, n),
                                     seed=seed * sizes.size + int(i), name="bench")
        graphs.extend(part.graphs)
    return gcl.GraphDataset(graphs=tuple(graphs), name="bench", category=part.category,
                            num_classes=per, feature_dim=part.feature_dim)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class SkipCounter(logging.Handler):
    """Counts the augmentation skips `pretrain()` reports on its logger, by kind."""

    KINDS = (
        ("node dropping", "NodeDrop"),
        ("edge perturbation", "EdgePerturb"),
        ("attribute masking", "AttrMask"),
        ("subgraph sampling", "Subgraph"),
        ("selection probabilities", "degree-bias"),
    )

    def __init__(self):
        super().__init__(logging.WARNING)
        self.by_kind = {}

    def emit(self, record):
        message = record.getMessage()
        if not message.startswith("skipping graph"):
            return
        kind = next((k for text, k in self.KINDS if text in message), "other")
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())


class Session:
    """Runs one workload's calls and keeps every measurement and check result."""

    def __init__(self, gcl, workload: Workload, seed: int, seconds: float):
        self.gcl = gcl
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.skips = SkipCounter()
        self.setup_times = []
        self.samples = {}  # (stage, unit index) -> seconds of each call
        self.digests = {}  # (stage, unit index) -> digest of the first call
        self.grid_workers = len(os.sched_getaffinity(0))  # what `nproc` reports
        k = len(set(workload.grid["kinds"]) | {"Identity"})
        self.grid_cells = k * (k + 1) // 2
        self._checks = {  # stage -> check(unit index, output) -> digest
            "load": self._check_load,
            "pretrain": self._check_pretrain,
            "embed": self._check_embed,
            "probe": lambda i, report: self._check_report("probe", report),
            "finetune": lambda i, report: self._check_report("finetune", report),
            "grid": self._check_grid,
        }

    # -- bookkeeping ------------------------------------------------------

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def _call(self, stage, i, fn):
        """One timed call of unit i of `stage`, then its checks.

        An exception counts as a failed operation and ends the run. The
        stage's check gates the output and returns its digest; every call of
        a unit must reproduce the digest of its first call.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as err:  # report any failure of gcl as a failed operation
            self.failed += 1
            self.failures.append(f"{stage}: {type(err).__name__}: {err}")
            raise StageFailed(stage) from err
        seconds = time.perf_counter() - start
        self.samples.setdefault((stage, i), []).append(seconds)
        digest = self._checks[stage](i, out)
        first = self.digests.setdefault((stage, i), digest)
        self.gate(digest == first, f"{stage}: a repeat of unit {i} differs from its first call")
        return seconds, out

    # -- the session ------------------------------------------------------

    def run(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
        logging.getLogger("gcl.contrastive").addHandler(self.skips)
        try:
            self.setup()
            self._measure()
        except StageFailed:
            pass
        finally:
            logging.getLogger("gcl.contrastive").removeHandler(self.skips)
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.failed += self.skips.total  # a skipped view pair is a failed operation

    def _measure(self):
        """Every unit once in stage order, then calls until `seconds` have passed.

        After the first pass, the next call always goes to the stage that is
        furthest below its share of the time so far, cycling through its
        units. The machine this runs on may switch between fast and slow
        periods lasting seconds; interleaving puts calls of every unit in
        each of them.
        """
        began = time.perf_counter()
        units, used, outs = {}, {}, {}
        for stage in STAGES:
            units[stage] = self._units(stage, outs)
            results = [self._call(stage, i, fn) for i, fn in enumerate(units[stage])]
            used[stage] = sum(t for t, _ in results)
            outs[stage] = [out for _, out in results]
        cursor = dict.fromkeys(STAGES, 0)
        while True:
            elapsed = time.perf_counter() - began
            stage = max(STAGES, key=lambda s: self.w.shares[s] * elapsed - used[s])
            i = cursor[stage]
            # Stop when the call would end more than half a call past the run's time.
            if elapsed + min(self.samples[(stage, i)]) / 2 > self.seconds:
                return
            seconds, _ = self._call(stage, i, units[stage][i])
            used[stage] += seconds
            cursor[stage] = (i + 1) % len(units[stage])

    def setup(self):
        """Generate the corpus from the seed and write it in TUDataset format."""
        g, w = self.gcl, self.w
        for _ in range(SETUP_REPS):
            shutil.rmtree(self.workdir)
            start = time.perf_counter()
            corpus = make_inputs(g, w, self.seed)
            g.graphs.save_tudataset(corpus, self.workdir, "bench")
            self.setup_times.append(time.perf_counter() - start)
        self.corpus = corpus
        self.total_nodes = sum(x.num_nodes for x in corpus.graphs)
        self.chance = 1.0 / corpus.num_classes
        pool = _pool(g, w.pool)
        self.pretrain_cfg = g.PretrainConfig(
            batch_size=w.batch_size, epochs=1, pool_i=pool, pool_j=pool, seed=GCL_SEED)
        # One pretrain() call per minibatch: an epoch of pretrain-large takes
        # seconds, and shorter calls interleave better with the other stages.
        self.batches = [self._subset(corpus.graphs[i : i + w.batch_size])
                        for i in range(0, len(corpus), w.batch_size)]
        ft = w.finetune
        self.split = g.SplitSpec(label_rate=ft["label_rate"], folds=ft["folds"], seed=GCL_SEED)
        self.finetune_ds = self._subset(corpus.graphs[: ft.get("num_graphs", len(corpus))])
        gr = w.grid
        self.grid_ds = self._subset(corpus.graphs[: gr["num_graphs"]])
        self.grid_base = g.ExperimentBase(
            encoder=self._encoder(),
            pretrain=g.PretrainConfig(batch_size=gr["batch_size"], epochs=gr["pretrain_epochs"], seed=GCL_SEED),
            split=g.SplitSpec(label_rate=gr["label_rate"], folds=gr["folds"], seed=GCL_SEED),
            finetune_epochs=gr["finetune_epochs"],
            finetune_lr=gr["lr"],
            finetune_batch=gr["batch_size"],
            workers=self.grid_workers,
        )

    def _subset(self, graphs):
        return self.gcl.GraphDataset(
            graphs=tuple(graphs), name="bench", category="synthetic",
            num_classes=len(self.w.families), feature_dim=graphs[0].feature_dim,
        )

    def _encoder(self):
        return self.gcl.EncoderConfig(arch=self.w.arch, num_layers=LAYERS, hidden_dim=HIDDEN)

    def _units(self, stage, outs):
        """The calls of one stage; `outs` holds the earlier stages' outputs."""
        g, w, ds = self.gcl, self.w, self.corpus
        pipelines = g.pipelines
        if stage == "load":
            units = [lambda: g.graphs.load_tudataset(self.workdir, "bench", ds.category)]
        elif stage == "pretrain":
            units = [lambda b=b: self._pretrain(b) for b in self.batches]
        elif stage == "embed":
            params = outs["pretrain"][0][0]
            units = [lambda: pipelines.embed_dataset(params, ds)]
        elif stage == "probe":
            emb = outs["embed"][0]
            units = [lambda: pipelines.linear_probe(emb, ds.labels, seed=GCL_SEED, **w.probe)]
        elif stage == "finetune":
            ft, params, fds = w.finetune, outs["pretrain"][0][0], self.finetune_ds
            if w.finetune_from == "scratch":
                units = [lambda: pipelines.train_from_scratch(
                    fds, self.split, ft["epochs"], ft["lr"], self._encoder(), ft["batch_size"])]
            else:
                units = [lambda: pipelines.finetune(params, fds, self.split, ft["epochs"], ft["lr"], ft["batch_size"])]
        else:
            units = [self._grid]
        return units

    def _pretrain(self, batch):
        self.attempted += len(batch)  # one view pair per graph
        return self.gcl.contrastive.pretrain(batch, self.pretrain_cfg, self._encoder())

    def _grid(self):
        gr = self.w.grid
        self.attempted += self.grid_cells * len(self.grid_ds) * gr["pretrain_epochs"]
        return self.gcl.pipelines.aug_grid(self.grid_ds, gr["kinds"], self.grid_base)

    # -- correctness checks: each gates one output and returns its digest --

    def _check_load(self, i, ds):
        want = self.corpus.graphs
        same = len(ds) == len(want) and all(
            a.num_nodes == b.num_nodes and a.label == b.label
            and np.array_equal(a.edges, b.edges) and np.array_equal(a.node_features, b.node_features)
            for a, b in zip(ds.graphs, want)
        )
        self.gate(same, "load: the reloaded corpus differs from the generated one")
        return len(ds)

    def _check_pretrain(self, i, out):
        params, curve = out
        self.gate(len(curve) == 1 and bool(np.isfinite(curve.losses).all()),
                  f"pretrain: loss curve of batch {i} not finite")
        return _digest(np.array(curve.losses), *(t.data for t in params.tensors.values()))

    def _check_embed(self, i, emb):
        self.gate(emb.shape == (len(self.corpus), HIDDEN) and bool(np.isfinite(emb).all()),
                  "embed: embeddings malformed or not finite")
        return _digest(emb)

    def _check_report(self, stage, report):
        self.gate(report.mean > self.chance, f"{stage}: accuracy {report.mean:.3f} is not above chance")
        return _digest(np.array(report.fold_accuracies))

    def _check_grid(self, i, res):
        accs = [r.mean for r in res.reports.values()] + [res.scratch.mean]
        self.gate(bool(np.isfinite(res.accuracies).all()), "grid: non-finite accuracy")
        self.gate(min(accs) > self.chance, f"grid: accuracy {min(accs):.3f} of a cell is not above chance")
        return _digest(res.accuracies, np.array(res.scratch.fold_accuracies))

    # -- results ----------------------------------------------------------

    def stage_seconds(self):
        """stage -> sum over its units of the unit's mean call time."""
        out = {}
        for (stage, _), times in self.samples.items():
            out[stage] = out.get(stage, 0.0) + statistics.fmean(times)
        return out

    def metrics(self):
        s = self.stage_seconds()
        out = {"setup_s": (statistics.median(self.setup_times), "s")}
        if len(s) == len(STAGES):
            n = len(self.corpus)
            out.update({
                "pretrain_graphs_per_s": (n / s["pretrain"], "graphs/s"),
                "load_nodes_per_s": (self.total_nodes / s["load"], "nodes/s"),
                "finetune_s_per_fold": (s["finetune"] / self.w.finetune["folds"], "s"),
                "embed_graphs_per_s": (n / s["embed"], "graphs/s"),
                "probe_s": (s["probe"], "s"),
                "grid_s_per_cell": (s["grid"] / self.grid_cells, "s"),
            })
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        out["ops_ok_ratio"] = (1.0 - self.failed / max(self.attempted, 1), "ratio")
        return out


def _pool(gcl, kinds):
    specs = tuple(gcl.AugmentationSpec(kind=k) for k in kinds or ("Identity",))
    return gcl.AugmentationPool(specs=specs)


class StageFailed(Exception):
    pass


def layer_metrics(tracer, session):
    """Per-layer metrics from the spans and counters of a traced session."""
    st = tracer.self_times()
    c = tracer.counts

    def per_call(name, scale=1.0):
        calls, self_s = st.get(name, (0, 0.0))
        return self_s / calls * scale if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    pairs = c["view_pairs"]
    m = {}
    for kind in ("NodeDrop", "EdgePerturb", "AttrMask", "Subgraph"):
        m[f"augment.{kind}_ms_per_graph"] = (per_call(f"augment.{kind}", 1e3), "ms")
    m["augment.sample_view_pair_s"] = (per_call("augment.sample_view_pair"), "s")
    m["augment.skip_ratio"] = (ratio(session.skips.total, pairs), "ratio")
    m["augment.subgraph_short_ratio"] = (ratio(c["subgraph_short"], c["subgraph_walks"]), "ratio")
    m["augment.EdgePerturb_peak_mb"] = (c["edge_perturb_peak_bytes"] / 2**20, "MB")
    m["graphs.induced_subgraph_s"] = (per_call("graphs.induced_subgraph"), "s")
    m["graphs.induced_subgraph_calls"] = (ratio(st.get("graphs.induced_subgraph", (0, 0.0))[0], pairs), "count")
    m["graphs.load_tudataset_s"] = (per_call("graphs.load_tudataset"), "s")
    setups = len(session.setup_times)
    m["graphs.save_tudataset_s"] = (ratio(st.get("graphs.save_tudataset", (0, 0.0))[1], setups), "s")
    m["synth.make_corpus_s"] = (ratio(st.get("synth.make_corpus", (0, 0.0))[1], setups), "s")
    m["model.make_batch_s"] = (per_call("model.make_batch"), "s")
    m["model.batch_nodes"] = (ratio(c["batch_nodes"], c["batches"]), "count")
    for name in ("gin_layer", "gcn_layer", "encode", "classify", "project"):
        m[f"model.{name}_s"] = (per_call(f"model.{name}"), "s")
    m["contrastive.nt_xent_s"] = (per_call("contrastive.nt_xent"), "s")
    m["contrastive.pretrain_child_coverage"] = (tracer.child_coverage("contrastive.pretrain"), "ratio")
    m["tensor.backward_s"] = (per_call("tensor.backward"), "s")
    m["tensor.tape_ops_per_step"] = (ratio(c["tape_ops"], c["pretrain_steps"]), "count")
    for name in ("matmul", "segment_sum", "gather_rows", "adam_step"):
        m[f"tensor.{name}_s"] = (per_call(f"tensor.{name}"), "s")
    m["pipelines.linear_probe_s"] = (per_call("pipelines.linear_probe"), "s")
    m["pipelines.finetune_fold_s"] = (
        ratio(st.get("pipelines.finetune", (0, 0.0))[1], c["finetune_folds"]), "s")
    m["pipelines.grid_idle_share"] = (tracer.grid_idle_share(session.grid_workers), "ratio")
    return m


def machine_metadata(seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy without mode="dicts"
        pass
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcl", "__init__.py")):
        sys.exit(f"gcl sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import_start = time.perf_counter()
    import gcl
    import gcl.contrastive, gcl.graphs, gcl.pipelines, gcl.synth  # noqa: E401,F401
    import_s = time.perf_counter() - import_start
    if os.path.dirname(os.path.abspath(gcl.__file__)) != os.path.join(SRC, "gcl"):
        sys.exit(f"imported gcl from {gcl.__file__}, expected the copy under {SRC}")

    session = Session(gcl, WORKLOADS[args.workload], args.seed, args.seconds)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(gcl)
    try:
        session.run()
    finally:
        if tracer:
            tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures[:20],
        "skips_by_kind": session.skips.by_kind,
        "import_s": import_s,
        "setup_times": session.setup_times,
        "stages": session.stage_seconds(),
        "units": {f"{stage}.{i}": {"samples": t, "digest": session.digests[(stage, i)]}
                  for (stage, i), t in session.samples.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in session.metrics().items()},
        "meta": machine_metadata(args.seed),
    }
    if tracer:
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer, session).items()}
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, indent=1)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
