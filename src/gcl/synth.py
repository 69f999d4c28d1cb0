"""Seeded synthetic graph corpora with structurally distinct families.

Used for desk-scale experiments and tests: each family has a characteristic
topology (cycles with chords, hubs, dense cliques, random trees, two-clique
communities), sizes are drawn from a range, and `noise` rewires a fraction of
edges to soften class separability. Node features are the per-graph
normalized degree plus a constant column.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphDataset

FAMILIES = ("cycle", "star", "clique", "tree", "community")


def _cycle(n, rng):
    edges = [(i, (i + 1) % n) for i in range(n)]
    extra = int(rng.integers(0, 3))
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((min(u, v), max(u, v)))
    return edges


def _star(n, rng):
    edges = [(0, i) for i in range(1, n)]
    extra = int(rng.integers(0, 3))
    for _ in range(extra):
        u, v = rng.choice(np.arange(1, n), size=2, replace=False)
        edges.append((min(u, v), max(u, v)))
    return edges


def _clique(n, rng, drop_frac=0.25):
    full = [(u, v) for u in range(n) for v in range(u + 1, n)]
    spanning = {(i - 1, i) for i in range(1, n)}  # keeps the graph connected
    droppable = [e for e in full if e not in spanning]
    k = int(round(drop_frac * len(full)))
    drop = set(map(tuple, rng.permutation(droppable)[:k].tolist())) if k else set()
    return [e for e in full if e not in drop]


def _tree(n, rng):
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def _community(n, rng):
    half = n // 2
    edges = [(u, v) for u in range(half) for v in range(u + 1, half)]
    edges += [(u, v) for u in range(half, n) for v in range(u + 1, n)]
    bridges = int(rng.integers(1, 3))
    for _ in range(bridges):
        edges.append((int(rng.integers(0, half)), int(rng.integers(half, n))))
    return edges


_BUILDERS = {
    "cycle": _cycle,
    "star": _star,
    "clique": _clique,
    "tree": _tree,
    "community": _community,
}


def _rewire(edges, n, frac, rng):
    """Replace a fraction of edges with random fresh pairs (keeps the count)."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    k = int(round(frac * len(edge_set)))
    if k == 0:
        return sorted(edge_set)
    victims = rng.permutation(sorted(edge_set))[:k]
    for u, v in victims:
        edge_set.discard((int(u), int(v)))
    added = 0
    while added < k:  # the k removals guarantee enough free pairs exist
        u, v = rng.integers(0, n, size=2)
        pair = (int(min(u, v)), int(max(u, v)))
        if u == v or pair in edge_set:
            continue
        edge_set.add(pair)
        added += 1
    return sorted(edge_set)


def make_graph(family: str, n: int, rng: np.random.Generator, noise: float = 0.0,
               label: int | None = None) -> Graph:
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    edges = _BUILDERS[family](n, rng)
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if noise > 0.0:
        edges = _rewire(edges, n, noise, rng)
    arr = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    # Normalized degree plus a constant column: rank-2 features keep
    # bias-free encoders away from the collinear-embedding degeneracy.
    deg = np.bincount(arr.ravel(), minlength=n).astype(np.float64)
    feats = np.stack([deg / max(deg.max(), 1.0), np.ones(n)], axis=1)
    return Graph(n, arr, feats, label)


def make_corpus(
    num_graphs: int,
    families=("cycle", "star", "clique"),
    size_range=(8, 16),
    seed: int = 0,
    noise: float = 0.0,
    name: str = "synthetic",
) -> GraphDataset:
    """Balanced labeled corpus; label = family index, round-robin over families."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    graphs = []
    lo, hi = size_range
    for i in range(num_graphs):
        label = i % len(families)
        n = int(rng.integers(lo, hi + 1))
        graphs.append(make_graph(families[label], n, rng, noise, label))
    return GraphDataset(
        graphs=tuple(graphs),
        name=name,
        category="synthetic",
        num_classes=len(families),
        feature_dim=graphs[0].feature_dim,
    )
