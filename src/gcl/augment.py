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

from .graphs import Graph, degrees, induced_subgraph

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


def _sample_non_edges(n: int, edges: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Up to k distinct non-edges as (u < v) rows, uniform over the complement of `edges`.

    Ordered pairs u != v are rejection-sampled and kept in draw order; the
    expected number of draws is O(k) while non-edges are a fixed share of all pairs.
    """
    total = n * (n - 1) // 2
    available = total - len(edges)
    take = min(k, available)
    # Pairs are keyed u*n+v; the sentinel n*n keeps searchsorted inside `known`.
    known = np.append(np.sort(edges[:, 0] * n + edges[:, 1]), n * n)
    picked = np.zeros(0, dtype=np.int64)
    while picked.size < take:
        draws = int((take - picked.size) * total / (available - picked.size) * 1.1) + 8
        u = rng.integers(n, size=draws)
        v = rng.integers(n - 1, size=draws)
        v += v >= u
        keys = np.concatenate([picked, np.minimum(u, v) * n + np.maximum(u, v)])
        keys = keys[known[np.searchsorted(known, keys)] != keys]
        picked = keys[np.sort(np.unique(keys, return_index=True)[1])[:take]]
    return np.stack([picked // n, picked % n], axis=1)


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
    kept = np.delete(g.edges, rng.choice(g.num_edges, size=k, replace=False), axis=0)
    # Removed pairs stay ineligible: the non-edge set is taken relative to
    # the original edge set.
    edges = np.concatenate([kept, _sample_non_edges(g.num_nodes, g.edges, k, rng)])
    return Graph(g.num_nodes, edges, g.node_features, g.label)


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
    n = g.num_nodes
    if n < 2:
        raise AugmentationError("subgraph sampling needs at least 2 nodes")
    target = max(1, _round_half_up((1.0 - ratio) * n))
    budget = 10 * n if max_steps is None else max_steps
    # CSR adjacency: the neighbors of u are nbr[start[u]:start[u] + deg[u]].
    deg = degrees(g).tolist()
    start = np.cumsum([0] + deg[:-1]).tolist()
    nbr = g.edges[:, ::-1].ravel()[np.argsort(g.edges.ravel(), kind="stable")].tolist()
    seed_node = current = int(rng.integers(n))
    seen = [False] * n
    seen[seed_node] = True
    count, steps = 1, 0
    while count < target and steps < budget:
        # One (restart, neighbor) uniform pair per step, drawn a block at a time.
        block = rng.random((min(budget - steps, 2 * n), 2)).tolist()
        steps += len(block)
        for r, w in block:
            d = deg[current]
            current = seed_node if d == 0 or r < RESTART_PROB else nbr[start[current] + int(w * d)]
            if not seen[current]:
                seen[current] = True
                count += 1
                if count == target:
                    break
    return induced_subgraph(g, np.flatnonzero(seen))


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
