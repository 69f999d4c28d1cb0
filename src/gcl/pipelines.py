"""Evaluation protocols: semi-supervised pretrain-&-finetune, unsupervised
embedding + linear probe, the augmentation-pair grid, strength/pattern sweeps,
and loss-curve comparisons.

Every protocol is exactly reproducible from its config and seed: folds,
labeled subsets, head initialization, and minibatch order all derive from
named substreams of the split/pretrain seeds. Grid and sweep cells share one
code path with a direct pretrain+finetune call, and may run in parallel forked
worker processes (each cell owns its RNG streams, each process its tape).
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import tensor as T
from .augment import BIASED_KINDS, DEFAULT_RATIO, _round_half_up, single_pool
from .contrastive import LossCurve, PretrainConfig, pretrain
from .graphs import GraphDataset
from .model import (
    EncoderConfig,
    ModelParams,
    accuracy,
    classify,
    encode,
    init_params,
    make_batch,
)
from .tensor import Adam, Tensor, _check_finite, backward, no_grad

log = logging.getLogger(__name__)

PROBE_INNER_FOLDS = 5  # the probe picks its L2 strength on fold 0 of these, an 80/20 split of the training fold
EVAL_CHUNK = 256  # graphs a no-grad forward in embed_dataset and _eval_accuracy (GEMM's last bits depend on the rows)


@dataclass(frozen=True)
class SplitSpec:
    """Cross-validation folds plus the semi-supervised label budget."""

    label_rate: float = 0.1
    folds: int = 5
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.label_rate <= 1.0:
            raise ValueError(f"label_rate must lie in (0, 1], got {self.label_rate}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def _set_mean_std(report, values) -> None:
    """Store on a frozen report the mean and the ddof-1 std of `values` (0 for a single value)."""
    object.__setattr__(report, "mean", float(np.mean(values)))
    object.__setattr__(report, "std", float(np.std(values, ddof=1)) if len(values) > 1 else 0.0)


@dataclass(frozen=True)
class EvalReport:
    """Per-fold accuracies with derived mean/std and the config that produced them."""

    protocol: str
    fold_accuracies: tuple[float, ...]
    wall_clock: float
    config: dict = field(default_factory=dict)
    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        accs = tuple(float(a) for a in self.fold_accuracies)
        object.__setattr__(self, "fold_accuracies", accs)
        _set_mean_std(self, accs)


def stratified_folds(labels, folds: int, seed: int, stratified: bool = True) -> list[np.ndarray]:
    """Deal indices into `folds` test sets, per class when stratified."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if folds > n:
        raise ValueError(f"cannot make {folds} folds out of {n} items")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 20)))
    buckets: list[list[int]] = [[] for _ in range(folds)]
    if stratified:
        for cls in np.unique(labels):
            members = rng.permutation(np.where(labels == cls)[0])
            for i, idx in enumerate(members):
                buckets[i % folds].append(int(idx))
    else:
        for i, idx in enumerate(rng.permutation(n)):
            buckets[i % folds].append(int(idx))
    return [np.array(sorted(b), dtype=np.int64) for b in buckets]


def check_split(labels, folds: int, stratified: bool = True, probe: bool = False) -> None:
    """Raise ValueError unless every graph has one of >= 2 labels and dealing them into `folds` test folds leaves
    none empty: a stratified deal fills fold f only if some class has more than f members, a plain one if n > f.
    The probe deals stratified, and each training fold must hold enough graphs for its inner split."""
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2 or classes[0] < 0:
        raise ValueError("needs graph labels of >= 2 classes on every graph")
    stratified = stratified or probe
    largest = counts.max() if stratified else len(labels)
    if folds > largest:
        what = "the largest class has" if stratified else "there are"
        raise ValueError(f"folds = {folds} would leave a test fold empty: {what} {largest} graphs")
    train = len(labels) - ((counts + folds - 1) // folds).sum()  # fold 0 is the largest: ceil(count / folds) a class
    if probe and train < PROBE_INNER_FOLDS:
        raise ValueError(f"folds = {folds} leaves {train} graphs in a training fold, too few for its inner split")


def _labeled_subset(labels, train_idx, label_rate, stratified, rng) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if not stratified:
        k = max(1, _round_half_up(label_rate * train_idx.size))
        return np.sort(rng.permutation(train_idx)[:k])
    chosen = []
    for cls in np.unique(labels):
        members = train_idx[labels[train_idx] == cls]
        if members.size == 0:
            log.warning("class %d has no graphs in this training fold", cls)
            continue
        k = max(1, _round_half_up(label_rate * members.size))
        chosen.extend(rng.permutation(members)[:k].tolist())
    return np.array(sorted(chosen), dtype=np.int64)


def _train_supervised(params: ModelParams, dataset, train_idx, epochs, lr, batch_size, seed_key) -> None:
    """Adam on softmax cross-entropy over the labeled subset; updates params in place."""
    labels = dataset.labels
    optimizer = Adam(params.encoder_and_classifier(), lr=lr)
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence((*seed_key, epoch)))
        order = rng.permutation(train_idx)
        for start in range(0, order.size, batch_size):
            idx = order[start : start + batch_size]
            batch = make_batch([dataset[int(i)] for i in idx])
            logits = classify(encode(batch, params), params)
            loss = T.cross_entropy(logits, labels[idx])
            optimizer.zero_grad()
            backward(loss)
            optimizer.step()


def _eval_accuracy(params: ModelParams, dataset, idx) -> float:
    """Accuracy on the graphs `idx`, classified EVAL_CHUNK at a time."""
    logits = []
    with no_grad():
        for start in range(0, idx.size, EVAL_CHUNK):
            batch = make_batch([dataset[int(i)] for i in idx[start : start + EVAL_CHUNK]])
            logits.append(classify(encode(batch, params), params).data)
    return accuracy(np.vstack(logits), dataset.labels[idx])


def finetune(
    params: ModelParams,
    dataset: GraphDataset,
    split: SplitSpec,
    epochs: int = 30,
    lr: float = 0.001,
    batch_size: int = 32,
    protocol: str = "finetune",
) -> EvalReport:
    """Pretrain-&-finetune evaluation: per fold, a fresh classifier head on top
    of a copy of `params`, the whole network trained on the label_rate-sized
    labeled subset of the training fold, accuracy on the held-out fold."""
    start = time.perf_counter()
    labels = dataset.labels
    check_split(labels, split.folds, split.stratified)
    folds = stratified_folds(labels, split.folds, split.seed, split.stratified)
    all_idx = np.arange(len(dataset))
    accs = []
    for f, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        subset_rng = np.random.default_rng(np.random.SeedSequence((split.seed, 21, f)))
        labeled = _labeled_subset(labels, train_idx, split.label_rate, split.stratified, subset_rng)
        model = params.copy()
        head_rng = np.random.default_rng(np.random.SeedSequence((split.seed, 22, f)))
        model.reset_classifier(dataset.num_classes, head_rng)
        _train_supervised(model, dataset, labeled, epochs, lr, batch_size, (split.seed, 23, f))
        accs.append(_eval_accuracy(model, dataset, test_idx))
    config = {
        "protocol": protocol,
        "label_rate": split.label_rate,
        "folds": split.folds,
        "stratified": split.stratified,
        "seed": split.seed,
        "epochs": epochs,
        "learning_rate": lr,
        "batch_size": batch_size,
        "encoder": params.config.__dict__.copy(),
    }
    return EvalReport(protocol, tuple(accs), time.perf_counter() - start, config)


def train_from_scratch(
    dataset: GraphDataset,
    split: SplitSpec,
    epochs: int = 30,
    lr: float = 0.001,
    encoder_config: EncoderConfig | None = None,
    batch_size: int = 32,
) -> EvalReport:
    """The no-pretraining baseline: finetune from the random encoder `scratch_params` draws."""
    params = scratch_params(dataset, split.seed, encoder_config)
    return finetune(params, dataset, split, epochs, lr, batch_size, protocol="scratch")


def scratch_params(dataset: GraphDataset, seed: int, encoder_config: EncoderConfig | None = None) -> ModelParams:
    """The random encoder a run without pretraining starts from, drawn from stream (seed, 24)."""
    init_rng = np.random.default_rng(np.random.SeedSequence((seed, 24)))
    return init_params(encoder_config or EncoderConfig(), dataset.feature_dim, dataset.num_classes, init_rng)


def embed_dataset(params: ModelParams, dataset: GraphDataset) -> np.ndarray:
    """Encoder output per graph (no projection head, no gradient recording), EVAL_CHUNK graphs a forward."""
    rows = []
    with no_grad():
        for start in range(0, len(dataset), EVAL_CHUNK):
            batch = make_batch(list(dataset.graphs[start : start + EVAL_CHUNK]))
            rows.append(encode(batch, params).data)
    return np.vstack(rows)


def _stack(parts):
    """(x, y) per fold as zero-padded (F, 1, d, n) features^T, (F, n) labels and real-row mask, (F,) sizes."""
    counts = np.array([y.size for _, y in parts])
    xt = np.zeros((len(parts), 1, parts[0][0].shape[1], counts.max()))
    labels = np.zeros((len(parts), counts.max()), dtype=np.int64)
    for f, (x, y) in enumerate(parts):
        xt[f, 0, :, : y.size], labels[f, : y.size] = x.T, y
    return xt, labels, np.arange(counts.max()) < counts[:, None], counts


def _fit_logreg(parts, num_classes, l2, steps=300, lr=0.1):
    """Multinomial logistic regressions, one per fold (x, y) in `parts` and strength in `l2`
    ((L,) or (F, L)), fitted together by full-batch Adam from zero. The closed-form gradient
    of mean cross-entropy + l2 / (2 n_f) |w|^2 is (softmax - one-hot) / n_f and l2 w / n_f;
    padded rows weigh 0. Weights are (F, L, C, d), so the softmax runs over C contiguous rows."""
    xt, labels, real, counts = _stack(parts)
    x = np.ascontiguousarray(xt.swapaxes(2, 3))
    onehot = np.arange(num_classes)[:, None] == labels[:, None, None, :]
    weight = (real / counts[:, None])[:, None, None, :]
    penalty = (l2 / counts[:, None])[..., None, None]  # (F, L, 1, 1)
    w = Tensor(np.zeros((*penalty.shape[:2], num_classes, xt.shape[2])))
    b = Tensor(np.zeros((*penalty.shape[:2], num_classes, 1)))
    optimizer = Adam([w, b], lr=lr)  # checks every gradient for NaN/Inf
    for _ in range(steps):
        logits = _check_finite(w.data @ xt + b.data, "linear probe logits")
        expd = np.exp(logits - logits.max(axis=2, keepdims=True))
        residual = (expd / expd.sum(axis=2, keepdims=True) - onehot) * weight
        w.grad = residual @ x + penalty * w.data
        b.grad = residual.sum(axis=3, keepdims=True)
        optimizer.step()
    return w.data, b.data


def _accuracies(w, b, parts):
    """(F, L) accuracy of each fold's fits on that fold's (x, y)."""
    xt, labels, real, counts = _stack(parts)
    hits = ((w @ xt + b).argmax(axis=2) == labels[:, None]) & real[:, None]
    return hits.sum(axis=2) / counts[:, None]


def linear_probe(
    embeddings: np.ndarray,
    labels,
    folds: int = 5,
    seed: int = 0,
    l2_grid=(0.01, 0.1, 1.0, 10.0),
) -> EvalReport:
    """k-fold cross-validated linear evaluation of frozen embeddings.

    Features are standardized with training-fold statistics; the L2 strength
    is picked per fold on an inner 80/20 split of the training fold (ties go
    to the smaller strength) and the winner is refit on the whole fold. All
    folds x strengths fit in one stacked solve, and the refits in a second."""
    start = time.perf_counter()
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != x.shape[:1] or y.min() < 0:
        raise ValueError(f"linear_probe needs (N, d) embeddings and N labels >= 0, got {x.shape} and {y.shape}")
    grid = np.asarray(l2_grid, dtype=np.float64)
    if grid.ndim != 1 or not grid.size or not (np.isfinite(grid) & (grid >= 0.0)).all():
        raise ValueError(f"l2_grid needs one or more finite strengths >= 0, got {l2_grid!r}")
    grid = np.sort(grid)
    check_split(y, folds, probe=True)
    num_classes = int(y.max()) + 1
    test_folds = stratified_folds(y, folds, seed)
    all_idx = np.arange(y.size)
    inner, held_out, whole, test = [], [], [], []
    for f, test_idx in enumerate(test_folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        if np.unique(y[train_idx]).size < 2:
            raise ValueError(f"fold {f}: training split contains a single class")
        mu = x[train_idx].mean(axis=0)
        sd = x[train_idx].std(axis=0)
        sd[sd == 0.0] = 1.0
        xs = (x - mu) / sd
        inner_test = stratified_folds(y[train_idx], PROBE_INNER_FOLDS, seed + 31 * (f + 1))[0]
        inner_train = np.setdiff1d(np.arange(train_idx.size), inner_test)
        xf, yf = xs[train_idx], y[train_idx]
        inner.append((xf[inner_train], yf[inner_train]))
        held_out.append((xf[inner_test], yf[inner_test]))
        whole.append((xf, yf))
        test.append((xs[test_idx], y[test_idx]))
    # argmax takes the first best, and the grid is ascending
    best = grid[_accuracies(*_fit_logreg(inner, num_classes, grid), held_out).argmax(axis=1)]
    accs = _accuracies(*_fit_logreg(whole, num_classes, best[:, None]), test)[:, 0]
    config = {
        "protocol": "linear_probe",
        "folds": folds,
        "seed": seed,
        "l2_grid": list(l2_grid),
        "selected_l2": best.tolist(),
    }
    return EvalReport("linear_probe", tuple(accs), time.perf_counter() - start, config)


@dataclass(frozen=True)
class ExperimentBase:
    """Shared settings for grid/sweep cells: one pretrain + one finetune recipe,
    and how many cells run at once (`workers`, in forked processes when > 1)."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    finetune_epochs: int = 30
    finetune_lr: float = 0.001
    finetune_batch: int = 32
    workers: int = 1


def _scratch(dataset, base: ExperimentBase) -> EvalReport:
    """One baseline job: `train_from_scratch` under the recipe's settings, looked up by name when the job runs."""
    return train_from_scratch(dataset, base.split, base.finetune_epochs, base.finetune_lr, base.encoder,
                              base.finetune_batch)


def _cell(dataset, base: ExperimentBase, pool_i, pool_j) -> EvalReport:
    """One grid/sweep cell: pretrain with the given pools, then finetune."""
    params, _ = pretrain(dataset, replace(base.pretrain, pool_i=pool_i, pool_j=pool_j), base.encoder)
    return finetune(params, dataset, base.split, base.finetune_epochs, base.finetune_lr, base.finetune_batch)


def _curve(dataset, base: ExperimentBase, pool_i, pool_j) -> LossCurve:
    """One loss-compare job: the pretraining loss curve with the given pools."""
    return pretrain(dataset, replace(base.pretrain, pool_i=pool_i, pool_j=pool_j), base.encoder)[1]


def _run_cells(jobs, workers):
    """Each job's result, in job order. Two or more jobs and workers run the (pickled) jobs in that many forked
    processes; the first failure cancels the jobs not yet started and reaches the caller."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [job() for job in jobs]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class GridResult:
    kinds: tuple[str, ...]
    accuracies: np.ndarray  # (k, k) finetuned accuracy per pair
    gains: np.ndarray  # accuracies minus the scratch baseline mean
    scratch: EvalReport
    reports: dict


def aug_grid(dataset: GraphDataset, kinds, base: ExperimentBase, ratio: float = DEFAULT_RATIO) -> GridResult:
    """Accuracy-gain matrix over all unordered augmentation pairs.

    The kind list is deduplicated and completed with Identity, so the
    Identity x Identity cell is the no-augmentation contrastive baseline;
    every cell's gain is its finetuned accuracy minus one shared
    train-from-scratch baseline run, the first job of the cells' pool."""
    labels = list(dict.fromkeys(kinds))
    if "Identity" not in labels:
        labels.append("Identity")
    cells = [(a, b) for a in range(len(labels)) for b in range(a, len(labels))]
    jobs = [partial(_scratch, dataset, base)]
    jobs += [partial(_cell, dataset, base, single_pool(labels[a], ratio), single_pool(labels[b], ratio))
             for a, b in cells]
    scratch, *results = _run_cells(jobs, base.workers)
    k = len(labels)
    acc = np.zeros((k, k))
    reports = {}
    for (a, b), report in zip(cells, results):
        acc[a, b] = acc[b, a] = report.mean
        reports[(labels[a], labels[b])] = report
    return GridResult(tuple(labels), acc, acc - scratch.mean, scratch, reports)


@dataclass(frozen=True)
class SweepPoint:
    value: float  # the swept ratio or alpha
    accuracies: tuple[float, ...]  # one finetuned accuracy per seed
    gains: tuple[float, ...]  # per-seed accuracy minus the same-seed scratch run
    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        _set_mean_std(self, self.accuracies)


def check_sweep_values(values, least: int = 1) -> None:
    """Raise ValueError unless there are `least` or more values to run over."""
    if len(values) < least:
        raise ValueError(f"needs {least} or more values, got {len(values)}")


check_pairs = partial(check_sweep_values, least=2)  # a loss comparison needs two pairs to compare


def _sweep(dataset, base: ExperimentBase, points, pool_for_point, seeds):
    check_sweep_values(points)
    bases = [replace(base, pretrain=replace(base.pretrain, seed=s), split=replace(base.split, seed=s)) for s in seeds]
    jobs = [partial(_scratch, dataset, b) for b in bases]
    jobs += [partial(_cell, dataset, b, single_pool("Identity", 0.0), pool_for_point(v)) for v in points for b in bases]
    means = np.array([report.mean for report in _run_cells(jobs, base.workers)])  # the scratch runs first
    scratch, accs = means[: len(bases)], means[len(bases) :].reshape(len(points), len(bases))
    gains = (accs - scratch).tolist()  # each seed's cell against the scratch run under the same seed
    return [SweepPoint(float(v), tuple(a), tuple(g)) for v, a, g in zip(points, accs.tolist(), gains)]


def strength_sweep(
    dataset: GraphDataset, kind: str, ratios, base: ExperimentBase, seeds=(0,)
) -> list[SweepPoint]:
    """Accuracy versus augmentation strength: Identity contrasted with `kind`
    at each ratio, finetuned and compared against same-seed scratch runs."""
    if any(not 0.0 <= r <= 0.5 for r in ratios):
        raise ValueError("sweep ratios must lie in [0, 0.5]")
    return _sweep(dataset, base, list(ratios), lambda r: single_pool(kind, r), seeds)


def pattern_sweep(
    dataset: GraphDataset,
    kind: str,
    alphas,
    base: ExperimentBase,
    ratio: float = DEFAULT_RATIO,
    seeds=(0,),
) -> list[SweepPoint]:
    """Accuracy versus degree-bias control factor at fixed ratio; only node
    dropping and attribute masking support the bias."""
    if kind not in BIASED_KINDS:
        raise ValueError("pattern sweeps support NodeDrop and AttrMask only")
    return _sweep(
        dataset, base, [float(a) for a in alphas], lambda a: single_pool(kind, ratio, alpha=a), seeds
    )


def loss_curve_compare(
    dataset: GraphDataset, pairs, base: ExperimentBase, ratio: float = DEFAULT_RATIO
) -> list[tuple[str, LossCurve]]:
    """Pretrain once per augmentation pair with identical seeds and optimizer
    settings; returns (pair name, loss curve) in input order."""
    pairs = list(pairs)
    check_pairs(pairs)
    jobs = [partial(_curve, dataset, base, single_pool(a, ratio), single_pool(b, ratio)) for a, b in pairs]
    curves = _run_cells(jobs, base.workers)
    return [(f"{a}+{b}", curve) for (a, b), curve in zip(pairs, curves)]
