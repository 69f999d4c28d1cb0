"""GNN encoders (GCN and GIN), graph-level readout, projection head, and
classifier head on top of the tensor engine.

Graphs are batched by concatenating node features and edge lists with global
node ids plus a node-to-graph segment vector; message passing is realized with
edge-indexed gather + segment_sum, so batching a set of graphs is numerically
equivalent to encoding them one by one.
"""

from __future__ import annotations

import base64
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .graphs import atomic_open
from .tensor import Tensor

ARCHS = ("gcn", "gin")
READOUTS = ("mean", "sum")


@dataclass(frozen=True)
class EncoderConfig:
    arch: str = "gcn"
    num_layers: int = 3
    hidden_dim: int = 32
    readout: str = "mean"
    gin_eps: float = 0.0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"arch must be one of {ARCHS}, got {self.arch!r}")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}, got {self.readout!r}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")


@dataclass
class GraphBatch:
    """A minibatch of graphs flattened into one node table."""

    features: np.ndarray  # (total_nodes, feature_dim)
    src: np.ndarray  # directed edge sources, both directions of every edge
    dst: np.ndarray
    segments: np.ndarray  # node -> graph index, non-decreasing
    num_graphs: int
    node_counts: np.ndarray  # (num_graphs,)
    labels: np.ndarray  # (num_graphs,), -1 where unlabeled


def make_batch(graphs) -> GraphBatch:
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    feats, srcs, dsts, segs, labels, counts = [], [], [], [], [], []
    offset = 0
    for i, g in enumerate(graphs):
        if g.num_nodes == 0:
            raise ValueError(f"graph {i} in batch is empty")
        feats.append(g.node_features)
        u = g.edges[:, 0] + offset
        v = g.edges[:, 1] + offset
        srcs.append(np.concatenate([u, v]))
        dsts.append(np.concatenate([v, u]))
        segs.append(np.full(g.num_nodes, i, dtype=np.int64))
        counts.append(g.num_nodes)
        labels.append(-1 if g.label is None else g.label)
        offset += g.num_nodes
    return GraphBatch(
        features=np.vstack(feats).astype(np.float64),
        src=np.concatenate(srcs),
        dst=np.concatenate(dsts),
        segments=np.concatenate(segs),
        num_graphs=len(graphs),
        node_counts=np.array(counts, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
    )


def gcn_layer(h: Tensor, batch: GraphBatch, weight: Tensor) -> Tensor:
    """ReLU(S h W) with S the symmetric-normalized adjacency with self-loops."""
    n = batch.features.shape[0]
    if h.data.shape[0] != n:
        raise ValueError("node embedding row count does not match the batch")
    deg_hat = 1.0 + np.bincount(batch.dst, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(deg_hat)
    hw = T.matmul(h, weight)
    self_term = T.mul(hw, Tensor((1.0 / deg_hat)[:, None]))
    if batch.src.size:
        coef = (inv_sqrt[batch.src] * inv_sqrt[batch.dst])[:, None]
        messages = T.mul(T.gather_rows(hw, batch.src), Tensor(coef))
        agg = T.add(self_term, T.segment_sum(messages, batch.dst, n))
    else:
        agg = self_term
    return T.relu(agg)


def gin_layer(h: Tensor, batch: GraphBatch, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, eps: float = 0.0) -> Tensor:
    """MLP((1 + eps) * h + sum of neighbor embeddings), MLP = Linear-ReLU-Linear."""
    n = batch.features.shape[0]
    if h.data.shape[0] != n:
        raise ValueError("node embedding row count does not match the batch")
    combined = T.mul_scalar(h, 1.0 + eps)
    if batch.src.size:
        neighbor_sum = T.segment_sum(T.gather_rows(h, batch.src), batch.dst, n)
        combined = T.add(combined, neighbor_sum)
    hidden = T.relu(T.add(T.matmul(combined, w1), b1))
    return T.add(T.matmul(hidden, w2), b2)


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class ModelParams:
    """Named parameter tensors for encoder + projection head + classifier head."""

    config: EncoderConfig
    feature_dim: int
    num_classes: int
    tensors: "OrderedDict[str, Tensor]"

    def encoder_and_projection(self) -> list[Tensor]:
        return [t for name, t in self.tensors.items() if not name.startswith("clf.")]

    def encoder_and_classifier(self) -> list[Tensor]:
        return [t for name, t in self.tensors.items() if not name.startswith("proj.")]

    def copy(self) -> "ModelParams":
        cloned = OrderedDict(
            (name, Tensor(t.data.copy(), requires_grad=t.requires_grad))
            for name, t in self.tensors.items()
        )
        return ModelParams(self.config, self.feature_dim, self.num_classes, cloned)

    def reset_classifier(self, num_classes: int, rng: np.random.Generator) -> None:
        for name in [n for n in self.tensors if n.startswith("clf.")]:
            del self.tensors[name]
        hidden = self.config.hidden_dim
        self.num_classes = num_classes
        self.tensors["clf.W1"] = Tensor(_glorot(rng, hidden, hidden), requires_grad=True)
        self.tensors["clf.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
        self.tensors["clf.W2"] = Tensor(_glorot(rng, hidden, num_classes), requires_grad=True)
        self.tensors["clf.b2"] = Tensor(np.zeros(num_classes), requires_grad=True)


def init_params(
    config: EncoderConfig,
    feature_dim: int,
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    tensors: "OrderedDict[str, Tensor]" = OrderedDict()
    hidden = config.hidden_dim
    in_dim = feature_dim
    for k in range(config.num_layers):
        if config.arch == "gcn":
            tensors[f"enc{k}.W"] = Tensor(_glorot(rng, in_dim, hidden), requires_grad=True)
        else:
            tensors[f"enc{k}.W1"] = Tensor(_glorot(rng, in_dim, hidden), requires_grad=True)
            tensors[f"enc{k}.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
            tensors[f"enc{k}.W2"] = Tensor(_glorot(rng, hidden, hidden), requires_grad=True)
            tensors[f"enc{k}.b2"] = Tensor(np.zeros(hidden), requires_grad=True)
        in_dim = hidden
    tensors["proj.W1"] = Tensor(_glorot(rng, hidden, hidden), requires_grad=True)
    tensors["proj.W2"] = Tensor(_glorot(rng, hidden, hidden), requires_grad=True)
    params = ModelParams(config, feature_dim, num_classes, tensors)
    if num_classes >= 1:
        params.reset_classifier(num_classes, rng)
    return params


def encode(batch: GraphBatch, params: ModelParams) -> Tensor:
    """K message-passing layers followed by per-graph readout; one row per graph."""
    cfg = params.config
    h = Tensor(batch.features)
    for k in range(cfg.num_layers):
        if cfg.arch == "gcn":
            h = gcn_layer(h, batch, params.tensors[f"enc{k}.W"])
        else:
            h = gin_layer(
                h,
                batch,
                params.tensors[f"enc{k}.W1"],
                params.tensors[f"enc{k}.b1"],
                params.tensors[f"enc{k}.W2"],
                params.tensors[f"enc{k}.b2"],
                eps=cfg.gin_eps,
            )
    pooled = T.segment_sum(h, batch.segments, batch.num_graphs)
    if cfg.readout == "mean":
        pooled = T.mul(pooled, Tensor(1.0 / batch.node_counts.astype(np.float64)[:, None]))
    return pooled


def project(h: Tensor, params: ModelParams) -> Tensor:
    """Two-layer projection head mapping encoder output into the contrastive space."""
    return T.matmul(T.relu(T.matmul(h, params.tensors["proj.W1"])), params.tensors["proj.W2"])


def classify(h: Tensor, params: ModelParams) -> Tensor:
    """Two-layer MLP from graph embeddings to class logits."""
    hidden = T.relu(T.add(T.matmul(h, params.tensors["clf.W1"]), params.tensors["clf.b1"]))
    return T.add(T.matmul(hidden, params.tensors["clf.W2"]), params.tensors["clf.b2"])


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of integer labels, stable via row-max shift."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.data.shape
    if labels.shape[0] != n:
        raise ValueError("label count must match logit rows")
    row_max = logits.data.max(axis=1, keepdims=True)
    shifted = T.add(logits, Tensor(-row_max))
    lse = T.add(T.log(T.sum(T.exp(shifted), axis=1, keepdims=True)), Tensor(row_max))
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    true_logit = T.sum(T.mul(logits, Tensor(onehot)), axis=1, keepdims=True)
    per_example = T.add(lse, T.mul_scalar(true_logit, -1.0))
    return T.mul_scalar(T.sum(per_example), 1.0 / n)


def accuracy(logits: np.ndarray, labels) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    return float((logits.argmax(axis=1) == labels).mean())


CHECKPOINT_FORMAT = "gcl-checkpoint-v1"


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Serialize parameters to a self-describing JSON container (bit-exact)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "encoder": asdict(params.config),
        "feature_dim": params.feature_dim,
        "num_classes": params.num_classes,
        "tensors": [
            {
                "name": name,
                "shape": list(t.data.shape),
                "dtype": "float64-le",
                "data": base64.b64encode(np.ascontiguousarray(t.data, dtype="<f8").tobytes()).decode("ascii"),
            }
            for name, t in params.tensors.items()
        ],
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> ModelParams:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    config = EncoderConfig(**doc["encoder"])
    tensors: "OrderedDict[str, Tensor]" = OrderedDict()
    for entry in doc["tensors"]:
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        tensors[entry["name"]] = Tensor(arr.copy(), requires_grad=True)
    return ModelParams(config, int(doc["feature_dim"]), int(doc["num_classes"]), tensors)
