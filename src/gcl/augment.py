"""The four graph augmentations with parameterized strength and degree bias.

Every augmentation is a pure function of (graph, parameters, rng); callers own
the RNG stream, so distinct graphs can be augmented concurrently and any call
is reproducible from its seed. `ratio` uniformly means "fraction of the graph
perturbed or removed": node dropping removes round(ratio*n) nodes, edge
perturbation rewires round(ratio*|E|) edges, attribute masking zeroes
round(ratio*n) feature rows, and the random-walk subgraph retains
round((1-ratio)*n) nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency_lists, degrees, induced_subgraph

KINDS = ("Identity", "NodeDrop", "EdgePerturb", "AttrMask", "Subgraph")

DEFAULT_RATIO = 0.2

RESTART_PROB = 0.15  # random-walk restart probability for Subgraph


class AugmentationError(ValueError):
    """Raised when an augmentation cannot be applied to a graph."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class AugmentationSpec:
    """One augmentation kind plus its strength and degree-bias controls.

    alpha > 0 biases node selection toward high-degree nodes, alpha < 0 toward
    low-degree ones, alpha = 0 is uniform. Identity ignores ratio and alpha.
    """

    kind: str
    ratio: float = DEFAULT_RATIO
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError(f"ratio must lie in [0, 1), got {self.ratio}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class AugmentationPool:
    """Non-empty set of augmentation specs to sample views from."""

    specs: tuple[AugmentationSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("augmentation pool must be non-empty")

    def __len__(self) -> int:
        return len(self.specs)


def degree_biased_probs(g: Graph, alpha: float) -> np.ndarray:
    """Node-selection probabilities proportional to (deg + 1)^alpha.

    The +1 smoothing keeps isolated nodes sampleable and 0^alpha finite for
    negative alpha; alpha = 0 reduces exactly to the uniform distribution.
    """
    if g.num_nodes == 0:
        raise AugmentationError("cannot build selection probabilities for an empty graph")
    if alpha == 0.0:
        return np.full(g.num_nodes, 1.0 / g.num_nodes)
    weights = (degrees(g).astype(np.float64) + 1.0) ** alpha
    return weights / weights.sum()


def node_drop(g: Graph, ratio: float, alpha: float, rng: np.random.Generator) -> Graph:
    """Remove round(ratio*n) nodes (at most n-1) along with their incident edges."""
    if g.num_nodes < 2:
        raise AugmentationError("node dropping needs at least 2 nodes")
    d = min(_round_half_up(ratio * g.num_nodes), g.num_nodes - 1)
    if d == 0:
        return induced_subgraph(g, np.arange(g.num_nodes))
    probs = degree_biased_probs(g, alpha)
    dropped = rng.choice(g.num_nodes, size=d, replace=False, p=probs)
    keep = np.setdiff1d(np.arange(g.num_nodes), dropped)
    return induced_subgraph(g, keep)


def _sample_non_edges(n: int, existing: set, k: int, rng: np.random.Generator) -> list:
    """Up to k distinct unordered non-edges, uniform over the complement of `existing`."""
    total = n * (n - 1) // 2
    available = total - len(existing)
    if available <= 0:
        return []
    iu, ju = np.triu_indices(n, k=1)
    codes = iu.astype(np.int64) * n + ju.astype(np.int64)
    taken = np.fromiter((u * n + v for u, v in existing), dtype=np.int64, count=len(existing))
    eligible = np.setdiff1d(codes, taken, assume_unique=False)
    take = min(k, eligible.size)
    picked = rng.choice(eligible, size=take, replace=False)
    return [(int(c) // n, int(c) % n) for c in picked]


def edge_perturb(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Remove round(ratio*|E|) edges and add the same number of fresh non-edges.

    Additions exclude self-loops, duplicates, and the just-removed pairs; if
    fewer non-edges exist than removals, only the available ones are added.
    """
    if g.num_edges == 0:
        raise AugmentationError("edge perturbation needs at least one edge")
    k = _round_half_up(ratio * g.num_edges)
    if k == 0:
        return g
    removed_idx = rng.choice(g.num_edges, size=k, replace=False)
    keep_mask = np.ones(g.num_edges, dtype=bool)
    keep_mask[removed_idx] = False
    new_edges = [tuple(e) for e in g.edges[keep_mask]]
    # Removed pairs stay ineligible: the non-edge set is taken relative to
    # the original edge set.
    original = {tuple(e) for e in g.edges}
    new_edges.extend(_sample_non_edges(g.num_nodes, original, k, rng))
    arr = np.asarray(sorted(new_edges), dtype=np.int64).reshape(len(new_edges), 2)
    return Graph(g.num_nodes, arr, g.node_features, g.label)


def attr_mask(g: Graph, ratio: float, alpha: float, rng: np.random.Generator) -> Graph:
    """Zero out the feature rows of round(ratio*n) sampled nodes; structure unchanged."""
    if g.num_nodes == 0:
        raise AugmentationError("attribute masking needs at least one node")
    m = min(_round_half_up(ratio * g.num_nodes), g.num_nodes)
    if m == 0:
        return g
    probs = degree_biased_probs(g, alpha)
    masked = rng.choice(g.num_nodes, size=m, replace=False, p=probs)
    feats = g.node_features.copy()
    feats[masked] = 0.0
    return Graph(g.num_nodes, g.edges, feats, g.label)


def subgraph_rw(
    g: Graph,
    ratio: float,
    rng: np.random.Generator,
    max_steps: int | None = None,
) -> Graph:
    """Induced subgraph on the visited set of a random walk with restarts.

    The walk starts at a uniform seed node and at each step either restarts to
    the seed (probability RESTART_PROB, forced at dead ends) or moves to a
    uniform neighbor. It stops once max(1, round((1-ratio)*n)) distinct nodes
    are visited or the step budget (default 10*n) runs out, in which case the
    partial visited set is used.
    """
    if g.num_nodes < 2:
        raise AugmentationError("subgraph sampling needs at least 2 nodes")
    target = max(1, _round_half_up((1.0 - ratio) * g.num_nodes))
    budget = 10 * g.num_nodes if max_steps is None else max_steps
    adj = adjacency_lists(g)
    seed_node = int(rng.integers(g.num_nodes))
    visited = {seed_node}
    current = seed_node
    steps = 0
    while len(visited) < target and steps < budget:
        steps += 1
        neighbors = adj[current]
        if neighbors.size == 0 or rng.random() < RESTART_PROB:
            current = seed_node
        else:
            current = int(neighbors[rng.integers(neighbors.size)])
        visited.add(current)
    return induced_subgraph(g, visited)


def apply_augmentation(spec: AugmentationSpec, g: Graph, rng: np.random.Generator) -> Graph:
    """Apply one augmentation spec, drawing its randomness from `rng`."""
    if spec.kind == "Identity":
        return g
    if spec.kind == "NodeDrop":
        return node_drop(g, spec.ratio, spec.alpha, rng)
    if spec.kind == "EdgePerturb":
        return edge_perturb(g, spec.ratio, rng)
    if spec.kind == "AttrMask":
        return attr_mask(g, spec.ratio, spec.alpha, rng)
    return subgraph_rw(g, spec.ratio, rng)


def sample_view_pair(
    pool_i: AugmentationPool,
    pool_j: AugmentationPool,
    g: Graph,
    rng: np.random.Generator,
) -> tuple[Graph, Graph]:
    """Draw one spec uniformly from each pool and apply both independently to g."""
    spec_i = pool_i.specs[int(rng.integers(len(pool_i)))]
    spec_j = pool_j.specs[int(rng.integers(len(pool_j)))]
    seed_i, seed_j = (int(s) for s in rng.integers(0, 2**63, size=2))
    view_i = apply_augmentation(spec_i, g, np.random.default_rng(seed_i))
    view_j = apply_augmentation(spec_j, g, np.random.default_rng(seed_j))
    return view_i, view_j


def default_pool(category: str, ratio: float = DEFAULT_RATIO) -> AugmentationPool:
    """Per-category default augmentation pool at uniform degree bias.

    Biochemical data gets node dropping + subgraph, dense social networks all
    four, sparse social networks everything except attribute masking.
    """
    kinds_by_category = {
        "biochemical": ("NodeDrop", "Subgraph"),
        "social-dense": ("NodeDrop", "EdgePerturb", "AttrMask", "Subgraph"),
        "social-sparse": ("NodeDrop", "EdgePerturb", "Subgraph"),
        "synthetic": ("NodeDrop", "EdgePerturb", "AttrMask", "Subgraph"),
    }
    if category not in kinds_by_category:
        raise ValueError(f"unknown dataset category {category!r}")
    specs = tuple(AugmentationSpec(kind=k, ratio=ratio, alpha=0.0) for k in kinds_by_category[category])
    return AugmentationPool(specs=specs)
