"""NT-Xent contrastive loss and the view-pair pretraining loop.

In the default "exclusive" loss the anchor is the i-view, the denominator
runs over the other N-1 j-view embeddings and excludes the positive pair, so
the loss can go negative. The widespread inclusive form (positive term added
to the denominator) is available as loss_variant="inclusive", and symmetrized
anchoring (average of i->j and j->i) behind the `symmetric` flag.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .augment import AugmentationError, AugmentationPool, AugmentationSpec, sample_view_pair
from .graphs import GraphDataset
from .model import EncoderConfig, ModelParams, encode, init_params, make_batch, project
from .tensor import Adam, Tensor, backward

log = logging.getLogger(__name__)

LOSS_VARIANTS = ("exclusive", "inclusive")


def _identity_pool() -> AugmentationPool:
    return AugmentationPool(specs=(AugmentationSpec(kind="Identity"),))


@dataclass(frozen=True)
class PretrainConfig:
    batch_size: int = 128
    temperature: float = 0.5
    epochs: int = 20
    learning_rate: float = 0.001
    pool_i: AugmentationPool = field(default_factory=_identity_pool)
    pool_j: AugmentationPool = field(default_factory=_identity_pool)
    seed: int = 0
    loss_variant: str = "exclusive"
    symmetric: bool = False

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (the loss needs a negative)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")


@dataclass(frozen=True)
class LossCurve:
    """Per-epoch mean contrastive loss of one pretraining run."""

    losses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "losses", tuple(float(x) for x in self.losses))
        if not all(np.isfinite(self.losses)):
            raise ValueError("loss curve contains non-finite values")

    def __len__(self) -> int:
        return len(self.losses)


def cosine_sim(a, b) -> float:
    """Cosine similarity with the zero-vector convention sim(0, x) = 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def nt_xent(z_i: Tensor, z_j: Tensor, temperature: float, variant: str = "exclusive") -> Tensor:
    """Temperature-scaled contrastive loss over a minibatch of paired views.

    Row n of z_i and z_j is the positive pair; negatives for anchor n are the
    other N-1 rows of z_j. The exclusive variant drops the positive term from
    the denominator, the inclusive variant keeps it.
    """
    if variant not in LOSS_VARIANTS:
        raise ValueError(f"variant must be one of {LOSS_VARIANTS}")
    n = z_i.data.shape[0]
    if n < 2:
        raise ValueError("nt_xent needs N >= 2 (no negatives exist otherwise)")
    if z_i.data.shape != z_j.data.shape:
        raise ValueError(f"shape mismatch: {z_i.data.shape} vs {z_j.data.shape}")
    sim = T.matmul(T.row_l2_normalize(z_i), T.transpose(T.row_l2_normalize(z_j)))
    sim = T.mul_scalar(sim, 1.0 / temperature)
    mask = np.ones((n, n))
    if variant == "exclusive":
        np.fill_diagonal(mask, 0.0)
    mask_t = Tensor(mask)
    # Stable log-sum-exp over the included entries: zero out excluded entries
    # before exp (blocks their gradient too) and shift by the included row max.
    masked_sim = T.mul(sim, mask_t)
    row_max = np.where(mask > 0.0, sim.data, -np.inf).max(axis=1, keepdims=True)
    offset = np.where(mask > 0.0, -row_max, 0.0)
    expd = T.exp(T.add(masked_sim, Tensor(offset)))
    denom = T.sum(T.mul(expd, mask_t), axis=1, keepdims=True)
    log_denom = T.add(T.log(denom), Tensor(row_max))
    eye = np.eye(n)
    positive = T.sum(T.mul(sim, Tensor(eye)), axis=1, keepdims=True)
    per_pair = T.add(log_denom, T.mul_scalar(positive, -1.0))
    return T.mul_scalar(T.sum(per_pair), 1.0 / n)


def contrastive_loss(z_i: Tensor, z_j: Tensor, config: PretrainConfig) -> Tensor:
    if not config.symmetric:
        return nt_xent(z_i, z_j, config.temperature, config.loss_variant)
    forward = nt_xent(z_i, z_j, config.temperature, config.loss_variant)
    reverse = nt_xent(z_j, z_i, config.temperature, config.loss_variant)
    return T.mul_scalar(T.add(forward, reverse), 0.5)


def _view_rng(seed: int, epoch: int, graph_index: int) -> np.random.Generator:
    # Stream ids keep shuffle / view / init entropy disjoint.
    return np.random.default_rng(np.random.SeedSequence((seed, 1, epoch, graph_index)))


def pretrain(
    dataset: GraphDataset,
    config: PretrainConfig,
    encoder_config: EncoderConfig | None = None,
    params: ModelParams | None = None,
) -> tuple[ModelParams, LossCurve]:
    """Contrastive pretraining over the whole dataset.

    Every epoch shuffles the dataset into minibatches of up to batch_size
    graphs (a trailing batch below 2 graphs is dropped); each graph yields two
    augmented views which run through the shared encoder and projection head,
    and one Adam step is taken per minibatch on the NT-Xent loss. Graphs on
    which an augmentation is inapplicable are skipped with a warning; a
    non-finite loss aborts the run.
    """
    if len(dataset) == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    encoder_config = encoder_config or EncoderConfig()
    if params is None:
        init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
        params = init_params(encoder_config, dataset.feature_dim, dataset.num_classes, init_rng)
    optimizer = Adam(params.encoder_and_projection(), lr=config.learning_rate)
    batch_size = min(config.batch_size, len(dataset))
    epoch_losses = []
    for epoch in range(config.epochs):
        shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0, epoch)))
        order = shuffle_rng.permutation(len(dataset))
        total_loss = 0.0
        total_pairs = 0
        for start in range(0, len(order), batch_size):
            batch_idx = order[start : start + batch_size]
            views_i, views_j = [], []
            for gi in batch_idx:
                g = dataset[int(gi)]
                rng = _view_rng(config.seed, epoch, int(gi))
                try:
                    vi, vj = sample_view_pair(config.pool_i, config.pool_j, g, rng)
                except AugmentationError as err:
                    log.warning("skipping graph %d in epoch %d: %s", gi, epoch, err)
                    continue
                views_i.append(vi)
                views_j.append(vj)
            if len(views_i) < 2:
                continue
            z_i = project(encode(make_batch(views_i), params), params)
            z_j = project(encode(make_batch(views_j), params), params)
            loss = contrastive_loss(z_i, z_j, config)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite contrastive loss in epoch {epoch}")
            optimizer.zero_grad()
            backward(loss)
            optimizer.step()
            total_loss += float(loss.data) * len(views_i)
            total_pairs += len(views_i)
        if total_pairs == 0:
            raise ValueError("no trainable minibatch survived augmentation (dataset too degenerate)")
        epoch_losses.append(total_loss / total_pairs)
    return params, LossCurve(losses=tuple(epoch_losses))
