"""Evaluation protocols: semi-supervised pretrain-&-finetune, unsupervised
embedding + linear probe, the augmentation-pair grid, strength/pattern sweeps,
and loss-curve comparisons.

Every protocol is exactly reproducible from its config and seed: folds,
labeled subsets, head initialization, and minibatch order all derive from
named substreams of the split/pretrain seeds. Grid and sweep cells share one
code path with a direct pretrain+finetune call, and may run in parallel
worker threads (each cell owns its RNG streams and gradient tape).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .augment import DEFAULT_RATIO, AugmentationPool, AugmentationSpec, _round_half_up
from .contrastive import LossCurve, PretrainConfig, pretrain
from .graphs import GraphDataset
from .model import (
    EncoderConfig,
    ModelParams,
    accuracy,
    classify,
    cross_entropy,
    encode,
    init_params,
    make_batch,
)
from .tensor import Adam, Tensor, backward, no_grad

log = logging.getLogger(__name__)


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
        object.__setattr__(self, "mean", float(np.mean(accs)))
        object.__setattr__(self, "std", float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0)


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
            loss = cross_entropy(logits, labels[idx])
            optimizer.zero_grad()
            backward(loss)
            optimizer.step()


def _eval_accuracy(params: ModelParams, dataset, idx, chunk_size: int = 256) -> float:
    labels = dataset.labels
    correct = 0
    with no_grad():
        for start in range(0, idx.size, chunk_size):
            part = idx[start : start + chunk_size]
            batch = make_batch([dataset[int(i)] for i in part])
            logits = classify(encode(batch, params), params)
            correct += int((logits.data.argmax(axis=1) == labels[part]).sum())
    return correct / idx.size


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
    if dataset.num_classes < 2:
        raise ValueError("finetuning needs a labeled dataset with >= 2 classes")
    start = time.perf_counter()
    labels = dataset.labels
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
    """The no-pretraining baseline: finetune from a random encoder."""
    encoder_config = encoder_config or EncoderConfig()
    init_rng = np.random.default_rng(np.random.SeedSequence((split.seed, 24)))
    params = init_params(encoder_config, dataset.feature_dim, dataset.num_classes, init_rng)
    return finetune(params, dataset, split, epochs, lr, batch_size, protocol="scratch")


def embed_dataset(params: ModelParams, dataset: GraphDataset, chunk_size: int = 256) -> np.ndarray:
    """Encoder output per graph (no projection head, no gradient recording)."""
    rows = []
    with no_grad():
        for start in range(0, len(dataset), chunk_size):
            batch = make_batch(list(dataset.graphs[start : start + chunk_size]))
            rows.append(encode(batch, params).data)
    return np.vstack(rows)


def _fit_logreg(x, y, num_classes, l2, steps=300, lr=0.1):
    """Multinomial logistic regression by full-batch Adam on the tensor engine."""
    n, d = x.shape
    w = Tensor(np.zeros((d, num_classes)), requires_grad=True)
    b = Tensor(np.zeros(num_classes), requires_grad=True)
    xt = Tensor(x)
    optimizer = Adam([w, b], lr=lr)
    for _ in range(steps):
        logits = T.add(T.matmul(xt, w), b)
        penalty = T.mul_scalar(T.sum(T.mul(w, w)), l2 / (2.0 * n))
        loss = T.add(cross_entropy(logits, y), penalty)
        optimizer.zero_grad()
        backward(loss)
        optimizer.step()
    return w.data, b.data


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
    to the smaller strength) and the winner is refit on the whole fold."""
    start = time.perf_counter()
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("embeddings and labels disagree on the number of graphs")
    num_classes = int(y.max()) + 1
    test_folds = stratified_folds(y, folds, seed)
    all_idx = np.arange(y.size)
    accs = []
    for f, test_idx in enumerate(test_folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        if np.unique(y[train_idx]).size < 2:
            raise ValueError(f"fold {f}: training split contains a single class")
        mu = x[train_idx].mean(axis=0)
        sd = x[train_idx].std(axis=0)
        sd[sd == 0.0] = 1.0
        xs = (x - mu) / sd
        inner_test = stratified_folds(y[train_idx], 5, seed + 31 * (f + 1))[0]
        inner_train = np.setdiff1d(np.arange(train_idx.size), inner_test)
        best_l2, best_acc = None, -1.0
        for l2 in l2_grid:
            w, b = _fit_logreg(
                xs[train_idx][inner_train], y[train_idx][inner_train], num_classes, l2
            )
            val = accuracy(xs[train_idx][inner_test] @ w + b, y[train_idx][inner_test])
            if val > best_acc:
                best_l2, best_acc = l2, val
        w, b = _fit_logreg(xs[train_idx], y[train_idx], num_classes, best_l2)
        accs.append(accuracy(xs[test_idx] @ w + b, y[test_idx]))
    config = {
        "protocol": "linear_probe",
        "folds": folds,
        "seed": seed,
        "l2_grid": list(l2_grid),
    }
    return EvalReport("linear_probe", tuple(accs), time.perf_counter() - start, config)


@dataclass(frozen=True)
class ExperimentBase:
    """Shared settings for grid/sweep cells: one pretrain + one finetune recipe."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    finetune_epochs: int = 30
    finetune_lr: float = 0.001
    finetune_batch: int = 32
    workers: int = 1


def _single_pool(kind: str, ratio: float, alpha: float = 0.0) -> AugmentationPool:
    return AugmentationPool(specs=(AugmentationSpec(kind=kind, ratio=ratio, alpha=alpha),))


def _cell(dataset, base: ExperimentBase, pool_i, pool_j, seed=None, split=None):
    """One grid/sweep cell: pretrain with the given pools, then finetune."""
    cfg = replace(base.pretrain, pool_i=pool_i, pool_j=pool_j)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    params, curve = pretrain(dataset, cfg, base.encoder)
    report = finetune(
        params, dataset, split or base.split, base.finetune_epochs, base.finetune_lr, base.finetune_batch
    )
    return report, curve


def _run_cells(jobs, workers):
    if workers <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


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
    train-from-scratch baseline run."""
    labels = list(dict.fromkeys(kinds))
    if "Identity" not in labels:
        labels.append("Identity")
    scratch = train_from_scratch(
        dataset, base.split, base.finetune_epochs, base.finetune_lr, base.encoder, base.finetune_batch
    )
    cells = [(a, b) for a in range(len(labels)) for b in range(a, len(labels))]
    jobs = [
        (lambda a=a, b=b: _cell(
            dataset, base, _single_pool(labels[a], ratio), _single_pool(labels[b], ratio)
        ))
        for a, b in cells
    ]
    results = _run_cells(jobs, base.workers)
    k = len(labels)
    acc = np.zeros((k, k))
    reports = {}
    for (a, b), (report, _) in zip(cells, results):
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
        object.__setattr__(self, "mean", float(np.mean(self.accuracies)))
        object.__setattr__(
            self, "std", float(np.std(self.accuracies, ddof=1)) if len(self.accuracies) > 1 else 0.0
        )


def _sweep(dataset, base: ExperimentBase, points, pool_for_point, seeds):
    seeds = tuple(seeds)
    scratch = {}
    for s in seeds:
        split = replace(base.split, seed=s)
        scratch[s] = train_from_scratch(
            dataset, split, base.finetune_epochs, base.finetune_lr, base.encoder, base.finetune_batch
        ).mean
    identity = _single_pool("Identity", 0.0)

    def job(value, s):
        return _cell(
            dataset, base, identity, pool_for_point(value), seed=s, split=replace(base.split, seed=s)
        )

    jobs = [(lambda v=v, s=s: job(v, s)) for v in points for s in seeds]
    results = _run_cells(jobs, base.workers)
    rows = []
    i = 0
    for value in points:
        accs, gains = [], []
        for s in seeds:
            report, _ = results[i]
            i += 1
            accs.append(report.mean)
            gains.append(report.mean - scratch[s])
        rows.append(SweepPoint(float(value), tuple(accs), tuple(gains)))
    return rows


def strength_sweep(
    dataset: GraphDataset, kind: str, ratios, base: ExperimentBase, seeds=(0,)
) -> list[SweepPoint]:
    """Accuracy versus augmentation strength: Identity contrasted with `kind`
    at each ratio, finetuned and compared against same-seed scratch runs."""
    if any(not 0.0 <= r <= 0.5 for r in ratios):
        raise ValueError("sweep ratios must lie in [0, 0.5]")
    return _sweep(dataset, base, list(ratios), lambda r: _single_pool(kind, r), seeds)


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
    if kind not in ("NodeDrop", "AttrMask"):
        raise ValueError("pattern sweeps support NodeDrop and AttrMask only")
    return _sweep(
        dataset, base, [float(a) for a in alphas], lambda a: _single_pool(kind, ratio, alpha=a), seeds
    )


def loss_curve_compare(
    dataset: GraphDataset, pairs, base: ExperimentBase, ratio: float = DEFAULT_RATIO
) -> list[tuple[str, LossCurve]]:
    """Pretrain once per augmentation pair with identical seeds and optimizer
    settings; returns (pair name, loss curve) in input order."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two pairs to compare")

    def job(kind_a, kind_b):
        cfg = replace(
            base.pretrain,
            pool_i=_single_pool(kind_a, ratio),
            pool_j=_single_pool(kind_b, ratio),
        )
        _, curve = pretrain(dataset, cfg, base.encoder)
        return curve

    jobs = [(lambda a=a, b=b: job(a, b)) for a, b in pairs]
    curves = _run_cells(jobs, base.workers)
    return [(f"{a}+{b}", curve) for (a, b), curve in zip(pairs, curves)]
