"""Graph data model, TUDataset-format IO, atomic file writes, and structural utilities.

Graphs are undirected, attributed, and immutable: each edge is stored once as
an (u, v) pair with u < v, node features are a dense float64 matrix, and the
optional label is a 0-based class index. Adjacency is materialized on demand.
"""

from __future__ import annotations

import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

CATEGORIES = ("biochemical", "social-dense", "social-sparse", "synthetic")

# Categories for the common TUDataset benchmarks (dense/sparse split follows
# the average-degree statistics of the benchmarks).
_KNOWN_CATEGORIES = {
    "NCI1": "biochemical",
    "NCI109": "biochemical",
    "PROTEINS": "biochemical",
    "DD": "biochemical",
    "MUTAG": "biochemical",
    "COLLAB": "social-dense",
    "IMDB-BINARY": "social-dense",
    "IMDB-MULTI": "social-dense",
    "RDT-B": "social-sparse",
    "REDDIT-BINARY": "social-sparse",
    "REDDIT-MULTI-5K": "social-sparse",
    "GITHUB": "social-sparse",
}


def _freeze(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph with an optional class label."""

    num_nodes: int
    edges: np.ndarray  # (E, 2) int64, u < v rows sorted on construction; no duplicates or self-loops
    node_features: np.ndarray  # (num_nodes, feature_dim) float64
    label: int | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        edges = _canonical_edges(edges)
        feats = np.asarray(self.node_features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"node_features must be 2-D, got shape {feats.shape}")
        object.__setattr__(self, "edges", _freeze(edges))
        object.__setattr__(self, "node_features", _freeze(feats))

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


@dataclass(frozen=True)
class GraphDataset:
    """A named collection of graphs sharing a feature space and label set."""

    graphs: tuple[Graph, ...]
    name: str
    category: str
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}, expected one of {CATEGORIES}")
        for i, g in enumerate(self.graphs):
            if g.feature_dim != self.feature_dim:
                raise ValueError(
                    f"graph {i} has feature_dim {g.feature_dim}, dataset expects {self.feature_dim}"
                )
            if g.label is not None and not 0 <= g.label < self.num_classes:
                raise ValueError(f"graph {i} label {g.label} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, i) -> Graph:
        return self.graphs[i]

    @property
    def labels(self) -> np.ndarray:
        """Label vector with -1 for unlabeled graphs."""
        return np.array([-1 if g.label is None else g.label for g in self.graphs], dtype=np.int64)


def _canonical_edges(pairs) -> np.ndarray:
    """Sort pairs as (min, max) rows ordered lexicographically."""
    arr = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def degrees(g: Graph) -> np.ndarray:
    """Degree of every node (number of incident stored edges)."""
    return np.bincount(g.edges.ravel(), minlength=g.num_nodes)


def induced_subgraph(g: Graph, keep) -> Graph:
    """Subgraph on the node set `keep`, reindexed densely in ascending original order."""
    keep_arr = np.unique(np.asarray(keep if isinstance(keep, np.ndarray) else list(keep), dtype=np.int64))
    if keep_arr.size == 0:
        raise ValueError("induced_subgraph needs a non-empty node set")
    if keep_arr[0] < 0 or keep_arr[-1] >= g.num_nodes:
        raise IndexError("keep set contains node indices outside the graph")
    new_index = -np.ones(g.num_nodes, dtype=np.int64)
    new_index[keep_arr] = np.arange(keep_arr.size)
    mask = (new_index[g.edges[:, 0]] >= 0) & (new_index[g.edges[:, 1]] >= 0)
    return Graph(int(keep_arr.size), new_index[g.edges[mask]], g.node_features[keep_arr], g.label)


def permute_nodes(g: Graph, perm) -> Graph:
    """Relabel nodes: node i of the input becomes node perm[i] of the output."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.num_nodes)):
        raise ValueError("perm must be a permutation of all node indices")
    feats = np.empty_like(g.node_features)
    feats[perm] = g.node_features
    return Graph(g.num_nodes, perm[g.edges], feats, g.label)


def validate(g: Graph) -> list[str]:
    """Return descriptions of every violated Graph invariant (empty list = valid)."""
    violations = []
    bad = (g.edges < 0) | (g.edges >= g.num_nodes)
    for u, v in g.edges[bad.any(axis=1)]:
        violations.append(f"edge ({u}, {v}) has an endpoint outside [0, {g.num_nodes})")
    for u, v in g.edges[g.edges[:, 0] == g.edges[:, 1]]:
        violations.append(f"self-loop ({u}, {v})")
    # Edges are stored sorted, so a duplicate sits right after its first copy.
    for u, v in g.edges[1:][(g.edges[1:] == g.edges[:-1]).all(axis=1)]:
        violations.append(f"duplicate edge ({u}, {v})")
    if g.node_features.shape[0] != g.num_nodes:
        violations.append(
            f"node_features has {g.node_features.shape[0]} rows for {g.num_nodes} nodes"
        )
    return violations


@contextmanager
def atomic_open(path):
    """Open `path` for text writing through a temporary file in the same directory.

    The file replaces `path` only when the block exits without an exception, so
    a failure mid-write leaves any previous file intact and no temporary file.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_lines(path):
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def _resolve_file(directory, name, suffix, required=False):
    for base in (directory, os.path.join(directory, name)):
        path = os.path.join(base, f"{name}_{suffix}.txt")
        if os.path.isfile(path):
            return path
    if required:
        raise FileNotFoundError(f"missing mandatory file {name}_{suffix}.txt under {directory}")
    return None


def infer_category(name: str, has_features: bool, mean_degree: float) -> str:
    if name in _KNOWN_CATEGORIES:
        return _KNOWN_CATEGORIES[name]
    if has_features:
        return "biochemical"
    return "social-dense" if mean_degree >= 10.0 else "social-sparse"


def load_tudataset(directory: str, name: str, category: str | None = None) -> GraphDataset:
    """Load a dataset in TUDataset text format.

    Expects ``NAME_A.txt`` and ``NAME_graph_indicator.txt`` (1-based indices,
    edges listed in both directions); ``NAME_graph_labels.txt``,
    ``NAME_node_labels.txt`` and ``NAME_node_attributes.txt`` are optional.
    Node labels are one-hot encoded, attributes are concatenated after the
    one-hot block, and featureless datasets fall back to the per-graph
    normalized degree as a single feature column.
    """
    a_path = _resolve_file(directory, name, "A", required=True)
    ind_path = _resolve_file(directory, name, "graph_indicator", required=True)

    indicator = np.array([int(s) for s in _read_lines(ind_path)], dtype=np.int64)
    total_nodes = indicator.size
    if total_nodes == 0:
        raise ValueError(f"{name}_graph_indicator.txt is empty")
    num_graphs = int(indicator.max())
    if indicator.min() < 1:
        raise ValueError("graph indicator ids must be 1-based positive integers")

    # Global 1-based node id -> (graph index, local node index).
    node_graph = indicator - 1
    local_index = np.zeros(total_nodes, dtype=np.int64)
    counts = np.zeros(num_graphs, dtype=np.int64)
    for i, gidx in enumerate(node_graph):
        local_index[i] = counts[gidx]
        counts[gidx] += 1
    if (counts == 0).any():
        empty = int(np.where(counts == 0)[0][0]) + 1
        raise ValueError(f"graph {empty} has no nodes in the indicator file")

    edge_sets: list[set] = [set() for _ in range(num_graphs)]
    dropped_loops = 0
    for line in _read_lines(a_path):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line in {name}_A.txt: {line!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i <= total_nodes and 1 <= j <= total_nodes):
            raise ValueError(f"node index out of range in {name}_A.txt: {line!r}")
        if node_graph[i - 1] != node_graph[j - 1]:
            raise ValueError(f"edge ({i}, {j}) crosses graph boundaries")
        if i == j:
            dropped_loops += 1
            continue
        u, v = local_index[i - 1], local_index[j - 1]
        edge_sets[node_graph[i - 1]].add((min(u, v), max(u, v)))
    if dropped_loops:
        log.warning("%s_A.txt: dropped %d self-loop lines", name, dropped_loops)

    labels_path = _resolve_file(directory, name, "graph_labels")
    labels = None
    num_classes = 0
    if labels_path:
        raw = [int(s) for s in _read_lines(labels_path)]
        if len(raw) != num_graphs:
            raise ValueError(
                f"{name}_graph_labels.txt has {len(raw)} lines for {num_graphs} graphs"
            )
        classes = sorted(set(raw))
        num_classes = len(classes)
        remap = {c: k for k, c in enumerate(classes)}
        labels = [remap[c] for c in raw]

    nl_path = _resolve_file(directory, name, "node_labels")
    na_path = _resolve_file(directory, name, "node_attributes")
    blocks = []
    if nl_path:
        raw = [int(s) for s in _read_lines(nl_path)]
        if len(raw) != total_nodes:
            raise ValueError(
                f"{name}_node_labels.txt has {len(raw)} lines, indicator lists {total_nodes} nodes"
            )
        values = sorted(set(raw))
        onehot = np.zeros((total_nodes, len(values)), dtype=np.float64)
        col = {c: k for k, c in enumerate(values)}
        for i, c in enumerate(raw):
            onehot[i, col[c]] = 1.0
        blocks.append(onehot)
    if na_path:
        rows = [[float(x) for x in line.split(",")] for line in _read_lines(na_path)]
        if len(rows) != total_nodes:
            raise ValueError(
                f"{name}_node_attributes.txt has {len(rows)} lines, indicator lists {total_nodes} nodes"
            )
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"{name}_node_attributes.txt has inconsistent column counts {widths}")
        blocks.append(np.array(rows, dtype=np.float64))
    features = np.hstack(blocks) if blocks else None

    graphs = []
    node_of_graph: list[list[int]] = [[] for _ in range(num_graphs)]
    for i, gidx in enumerate(node_graph):
        node_of_graph[gidx].append(i)
    for gidx in range(num_graphs):
        n = int(counts[gidx])
        edges = _canonical_edges(list(edge_sets[gidx]))
        if features is not None:
            feats = features[node_of_graph[gidx]]
        else:
            deg = np.zeros(n, dtype=np.float64)
            if edges.size:
                np.add.at(deg, edges[:, 0], 1.0)
                np.add.at(deg, edges[:, 1], 1.0)
            feats = (deg / max(deg.max(), 1.0)).reshape(n, 1)
        graphs.append(
            Graph(n, edges, feats, None if labels is None else labels[gidx])
        )

    mean_degree = float(np.mean([degrees(g).mean() if g.num_nodes else 0.0 for g in graphs]))
    if category is None:
        category = infer_category(name, features is not None, mean_degree)
    return GraphDataset(
        graphs=tuple(graphs),
        name=name,
        category=category,
        num_classes=num_classes,
        feature_dim=graphs[0].feature_dim,
    )


def save_tudataset(dataset: GraphDataset, directory: str, name: str | None = None) -> None:
    """Write a dataset back out in TUDataset text format.

    Edges are emitted in both directions, features go to the node_attributes
    file with full float precision, so a reload reproduces the edge sets and
    feature matrices exactly.
    """
    name = name or dataset.name
    os.makedirs(directory, exist_ok=True)
    offset = 0
    a_lines, ind_lines, attr_lines = [], [], []
    labeled = all(g.label is not None for g in dataset.graphs)
    label_lines = []
    for gidx, g in enumerate(dataset.graphs):
        for u, v in g.edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        ind_lines.extend([str(gidx + 1)] * g.num_nodes)
        for row in g.node_features:
            attr_lines.append(",".join(repr(float(x)) for x in row))
        if labeled:
            label_lines.append(str(g.label))
        offset += g.num_nodes

    def _write(suffix, lines):
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    _write("A", a_lines)
    _write("graph_indicator", ind_lines)
    _write("node_attributes", attr_lines)
    if labeled:
        _write("graph_labels", label_lines)
