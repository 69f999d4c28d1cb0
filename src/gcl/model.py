"""GNN encoders (GCN and GIN), graph-level readout, projection head, and
classifier head on top of the tensor engine.

Graphs are batched by concatenating node features and edge lists with global
node ids plus a node-to-graph segment vector; `view_batch` cuts augmented views
out of such a batch by masks alone. Message passing uses the batch's symmetric
operator: S = D^-1/2 (A + I) D^-1/2 for GCN, A + (1 + eps) I for GIN. Both
layers apply S in one tape op, `tensor.graph_conv` = ReLU(S h W + b), on the
narrower side of W: (S h) W when h has fewer columns, else S (h W). GCN runs it
with no bias; GIN runs it with its first Linear, then its second. On a batch
whose edge count times the layer's wider width reaches
`tensor.FEATURE_MAJOR_MIN`, the op works feature-major and its (n, H) output is
F-ordered. The operator (edge coefficients, self weights and, for row-major
calls, scatter keys) is built once per batch and shared by every layer and the
backward pass. S is block-diagonal over the graphs, so batching a set of
graphs is numerically equivalent to encoding them one by one.
"""

from __future__ import annotations

import base64
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

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
    operators: dict = field(default_factory=dict, init=False, repr=False)  # (arch, eps) -> T.Propagation

    def operator(self, arch: str, eps: float = 0.0) -> T.Propagation:
        """This batch's layer operator for `arch`, built on first use."""
        if (arch, eps) not in self.operators:
            n = self.features.shape[0]
            if arch == "gcn":
                deg_hat = 1.0 + np.bincount(self.dst, minlength=n)
                inv_sqrt = 1.0 / np.sqrt(deg_hat)
                coef = inv_sqrt[self.src] * inv_sqrt[self.dst]
                self.operators[arch, eps] = T.Propagation(self.src, self.dst, n, 1.0 / deg_hat, coef)
            else:
                self.operators[arch, eps] = T.Propagation(self.src, self.dst, n, 1.0 + eps)
        return self.operators[arch, eps]


def make_batch(graphs) -> GraphBatch:
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    if not counts.all():
        raise ValueError(f"graph {int(np.argmin(counts))} in batch is empty")
    blocks = [(g.edges + start).T for g, start in zip(graphs, (np.cumsum(counts) - counts).tolist())]
    src = np.concatenate([b.ravel() for b in blocks])  # each graph's edges u -> v, then v -> u
    dst = np.concatenate([b[::-1].ravel() for b in blocks])
    features = np.vstack([g.node_features for g in graphs])
    return GraphBatch(features, src, dst, np.repeat(np.arange(len(graphs)), counts), len(graphs), counts)


def view_batch(pack: GraphBatch, draws) -> GraphBatch:
    """One view of every graph in `pack`, cut out of it by draws[k], graph k's `augment.ViewDraw`: node mask, then
    edge mask, then cumsum relabel, with AttrMask rows zeroed and EdgePerturb graphs' packed edges replaced by their
    drawn ones, appended as their own [u; v] block. A view that changes nothing is the pack itself. Kept nodes and
    edges stay in pack order, so every node sums its incoming edges in the order make_batch of the built views would
    and encode's outputs are bit-identical to it."""
    starts = (np.cumsum(pack.node_counts) - pack.node_counts).tolist()
    keep = np.ones(pack.features.shape[0], dtype=bool)
    replaced = np.array([draw.edges is not None for draw in draws])
    zeroed, blocks = [], []
    for start, draw in zip(starts, draws):
        if draw.keep is not None:
            keep[start : start + draw.keep.size] = draw.keep
        elif draw.zeroed is not None:
            zeroed.append(start + draw.zeroed)
        elif draw.edges is not None:
            blocks.append(start + draw.edges.T)
    if keep.all() and not zeroed and not blocks:
        return pack
    new_id = np.cumsum(keep) - 1
    kept = keep[pack.src] & keep[pack.dst] & ~replaced[pack.segments[pack.src]]
    features, segments = pack.features[keep], pack.segments[keep]
    if zeroed:
        features[new_id[np.concatenate(zeroed)]] = 0.0
    src = np.concatenate([new_id[pack.src[kept]], *(new_id[b].ravel() for b in blocks)])
    dst = np.concatenate([new_id[pack.dst[kept]], *(new_id[b[::-1]].ravel() for b in blocks)])
    return GraphBatch(features, src, dst, segments, pack.num_graphs, np.bincount(segments, minlength=pack.num_graphs))


def gcn_layer(h: Tensor, batch: GraphBatch, weight: Tensor) -> Tensor:
    """ReLU(S h W) with S the symmetric-normalized adjacency with self-loops."""
    return T.graph_conv(h, weight, batch.operator("gcn"))


def gin_layer(h: Tensor, batch: GraphBatch, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, eps: float = 0.0) -> Tensor:
    """MLP((1 + eps) * h + sum of neighbor embeddings), MLP = Linear-ReLU-Linear."""
    return T.add(T.matmul(T.graph_conv(h, w1, batch.operator("gin", eps), b1), w2), b2)


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
        self.num_classes = num_classes
        for name, shape in _param_shapes(self.config, self.feature_dim, num_classes).items():
            if name.startswith("clf."):
                self.tensors[name] = _init_tensor(shape, rng)


def _param_shapes(config: EncoderConfig, feature_dim: int, num_classes: int) -> dict:
    """Name -> shape of every parameter tensor, in creation order."""
    h = config.hidden_dim
    shapes = {}
    for k in range(config.num_layers):
        d = feature_dim if k == 0 else h
        if config.arch == "gcn":
            shapes[f"enc{k}.W"] = (d, h)
        else:
            shapes.update({f"enc{k}.W1": (d, h), f"enc{k}.b1": (h,), f"enc{k}.W2": (h, h), f"enc{k}.b2": (h,)})
    shapes.update({"proj.W1": (h, h), "proj.W2": (h, h)})
    if num_classes >= 1:
        shapes.update({"clf.W1": (h, h), "clf.b1": (h,), "clf.W2": (h, num_classes), "clf.b2": (num_classes,)})
    return shapes


def _init_tensor(shape, rng) -> Tensor:
    """Glorot-uniform weight matrix or zero bias vector."""
    return Tensor(_glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape), requires_grad=True)


def init_params(
    config: EncoderConfig,
    feature_dim: int,
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    tensors = OrderedDict(
        (name, _init_tensor(shape, rng)) for name, shape in _param_shapes(config, feature_dim, num_classes).items()
    )
    return ModelParams(config, feature_dim, num_classes, tensors)


def encode(batch: GraphBatch, params: ModelParams) -> Tensor:
    """K message-passing layers followed by per-graph readout; one row per graph."""
    cfg = params.config
    h = Tensor(batch.features)
    for k in range(cfg.num_layers):
        if cfg.arch == "gcn":
            h = gcn_layer(h, batch, params.tensors[f"enc{k}.W"])
        else:
            h = gin_layer(h, batch, *(params.tensors[f"enc{k}.{n}"] for n in ("W1", "b1", "W2", "b2")), eps=cfg.gin_eps)
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
    """Read a checkpoint whose tensors must match the layout of its own encoder config."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    config = EncoderConfig(**doc["encoder"])
    feature_dim, num_classes = int(doc["feature_dim"]), int(doc["num_classes"])
    tensors: "OrderedDict[str, Tensor]" = OrderedDict()
    for entry in doc["tensors"]:
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        tensors[entry["name"]] = Tensor(arr.copy(), requires_grad=True)
    stored = {name: t.data.shape for name, t in tensors.items()}
    expected = _param_shapes(config, feature_dim, num_classes)
    for name in {**expected, **stored}:
        if stored.get(name) != expected.get(name):
            raise ValueError(
                f"{path}: tensor {name} has shape {stored.get(name)}, but {config.arch} with "
                f"feature_dim {feature_dim} and {num_classes} classes needs {expected.get(name)}"
            )
    return ModelParams(config, feature_dim, num_classes, tensors)
