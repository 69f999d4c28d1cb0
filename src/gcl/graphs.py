"""Graph data model, TUDataset-format IO, atomic file writes, and structural utilities.

Graphs are undirected, attributed, and immutable: each edge is stored once as
an (u, v) pair with u < v, node features are a dense float64 matrix, and the
optional label is a 0-based class index. No adjacency is stored: degrees,
Subgraph's walk and the encoders' batch operators all work from the edge list.
"""

from __future__ import annotations

import io
import logging
import os
import re
import threading
import warnings
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
    """Subgraph on the node set `keep` (ids, or a boolean mask over the nodes), reindexed in ascending order."""
    keep = np.asarray(keep if isinstance(keep, np.ndarray) else list(keep))
    if keep.dtype != bool:
        if keep.size and (keep.min() < 0 or keep.max() >= g.num_nodes):
            raise IndexError("keep set contains node indices outside the graph")
        keep = np.isin(np.arange(g.num_nodes), keep)
    if not keep.any():
        raise ValueError("induced_subgraph needs a non-empty node set")
    new_index = np.cumsum(keep) - 1
    return Graph(int(new_index[-1]) + 1, new_index[g.edges[keep[g.edges].all(axis=1)]], g.node_features[keep], g.label)


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


# Whitespace-only lines are blank; `np.loadtxt` skips them only when it splits on whitespace.
_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)


def _file_line(text, row) -> int:
    """1-based line number in `text` of its 0-based non-blank line `row`."""
    return [i for i, line in enumerate(text.split("\n"), 1) if line.strip()][row]


def _read_table(path, dtype, width=None, rows=None, delimiter=None) -> np.ndarray:
    """Parse a TUDataset text file into a 2-D array with one row per non-blank line.

    With ``delimiter=None`` values are separated by commas, whitespace or both.
    `width` and `rows`, when given, are the required column and row counts.
    Every error is a ValueError that names the file.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        text = text.replace(",", " ") if delimiter is None else _BLANK_LINE.sub("", text)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError as err:
        # Cut numpy's advice to pass `usecols`, which means nothing for a data file. numpy counts
        # non-blank rows, from 0 for a value that does not parse and from 1 for a wrong column count.
        message = str(err).split("; use `usecols`")[0]
        first = 1 if message.startswith("the number of columns") else 0
        message = re.sub(r" at row (\d+)", lambda m: f" on line {_file_line(text, int(m[1]) - first)}", message)
        raise ValueError(f"{path}: {message}") from None
    if rows is not None and table.shape[0] != rows:
        raise ValueError(f"{path} has {table.shape[0]} non-blank lines, expected {rows}")
    if width is not None and table.size and table.shape[1] != width:
        line = _file_line(text, 0)
        raise ValueError(f"{path}: expected {width} values per line, got {table.shape[1]} on line {line}")
    return table.reshape(-1, width) if width else table


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

    graph_of = _read_table(ind_path, np.int64, width=1)[:, 0] - 1
    total = graph_of.size
    if total == 0:
        raise ValueError(f"{ind_path} is empty")
    if graph_of.min() < 0:
        raise ValueError(f"{ind_path}: graph ids must be 1-based positive integers")
    counts = np.bincount(graph_of)
    if (counts == 0).any():
        raise ValueError(f"{ind_path}: graph {int(np.argmin(counts)) + 1} has no nodes")
    # Nodes grouped by graph, in file order within each graph: node order[p]
    # sits at position p, and graph g holds positions starts[g]:ends[g].
    order = np.argsort(graph_of, kind="stable")
    position = np.empty(total, dtype=np.int64)
    position[order] = np.arange(total)
    ends = np.cumsum(counts)
    starts = ends - counts

    pairs = _read_table(a_path, np.int64, width=2) - 1
    out = ((pairs < 0) | (pairs >= total)).any(axis=1)
    if out.any():
        i, j = pairs[out][0] + 1
        raise ValueError(f"{a_path}: node index out of range [1, {total}] in edge ({i}, {j})")
    cross = graph_of[pairs[:, 0]] != graph_of[pairs[:, 1]]
    if cross.any():
        i, j = pairs[cross][0] + 1
        raise ValueError(f"{a_path}: edge ({i}, {j}) crosses graph boundaries")
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        log.warning("%s_A.txt: dropped %d self-loop lines", name, int(loops.sum()))
    # Both directions of an edge share one (min, max) key; sorted keys group
    # the edges by graph because positions do.
    ends_at = np.sort(position[pairs[~loops]], axis=1)
    lo, hi = np.divmod(np.unique(ends_at[:, 0] * total + ends_at[:, 1]), total)
    local = np.arange(total) - np.repeat(starts, counts)
    edges = np.stack([local[lo], local[hi]], axis=1)
    edge_ends = np.searchsorted(lo, ends)

    labels, num_classes = [None] * counts.size, 0
    labels_path = _resolve_file(directory, name, "graph_labels")
    if labels_path:
        raw = _read_table(labels_path, np.int64, width=1, rows=counts.size)[:, 0]
        classes, inverse = np.unique(raw, return_inverse=True)
        labels, num_classes = inverse.tolist(), classes.size

    blocks = []
    nl_path = _resolve_file(directory, name, "node_labels")
    if nl_path:
        _, values = np.unique(_read_table(nl_path, np.int64, width=1, rows=total)[:, 0], return_inverse=True)
        blocks.append(np.eye(values.max() + 1)[values])
    na_path = _resolve_file(directory, name, "node_attributes")
    if na_path:
        blocks.append(_read_table(na_path, np.float64, rows=total, delimiter=","))
    if blocks:
        features = np.hstack(blocks)[order]
    else:
        deg = np.bincount(np.concatenate([lo, hi]), minlength=total).astype(np.float64)
        features = (deg / np.repeat(np.maximum(np.maximum.reduceat(deg, starts), 1.0), counts))[:, None]

    graphs = tuple(
        Graph(n, e, x, label)
        for n, e, x, label in zip(
            counts.tolist(), np.split(edges, edge_ends[:-1]), np.split(features, ends[:-1]), labels
        )
    )
    if category is None:
        mean_degree = float(np.mean(2 * np.diff(edge_ends, prepend=0) / counts))
        category = infer_category(name, bool(blocks), mean_degree)
    return GraphDataset(graphs, name, category, num_classes, features.shape[1])


def save_tudataset(dataset: GraphDataset, directory: str, name: str | None = None) -> None:
    """Write a dataset back out in TUDataset text format.

    Edges are emitted in both directions, features go to the node_attributes
    file as ``repr(float)`` values, so a reload reproduces the edge sets and
    feature matrices exactly.
    """
    name = name or dataset.name
    os.makedirs(directory, exist_ok=True)
    graphs = dataset.graphs
    counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    first_ids = np.cumsum(counts) - counts + 1
    edges = np.concatenate([np.zeros((0, 2), np.int64)] + [g.edges + i for g, i in zip(graphs, first_ids)])
    lines = np.stack([edges, edges[:, ::-1]], axis=1).reshape(-1, 2).astype(str)
    features = np.concatenate([np.zeros((0, dataset.feature_dim))] + [g.node_features for g in graphs])
    values = np.reshape(list(map(repr, features.ravel().tolist())), features.shape)
    files = {
        "A": list(map(", ".join, lines.tolist())),
        "graph_indicator": np.repeat(np.arange(1, len(graphs) + 1), counts).astype(str).tolist(),
        "node_attributes": list(map(",".join, values.tolist())),
    }
    labels = dataset.labels
    if (labels >= 0).all():
        files["graph_labels"] = labels.astype(str).tolist()
    for suffix, rows in files.items():
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w") as fh:
            fh.write("\n".join(rows) + ("\n" if rows else ""))
