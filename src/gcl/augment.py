"""The four graph augmentations with parameterized strength and degree bias.

Every augmentation is a pure function of (graph, parameters, rng); callers own
the RNG stream, so distinct graphs can be augmented concurrently and any call
is reproducible from its seed. `ratio` uniformly means "fraction of the graph
perturbed or removed": node dropping removes round(ratio*n) nodes, edge
perturbation rewires round(ratio*|E|) edges, attribute masking zeroes
round(ratio*n) feature rows, and subgraph sampling by frontier expansion
retains round((1-ratio)*n) nodes (the seed's whole component when that is
smaller). Every pick of k distinct nodes or edges goes through `_pick`. Each
kind is one draw, a `ViewDraw` of what the view changes, which its public
function builds into a Graph and pretraining cuts out of a packed minibatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Graph, _canonical_edges, degrees, induced_subgraph

KINDS = ("Identity", "NodeDrop", "EdgePerturb", "AttrMask", "Subgraph")
BIASED_KINDS = ("NodeDrop", "AttrMask")  # the kinds that select nodes, so the only ones alpha applies to

DEFAULT_RATIO = 0.2
MAX_ALPHA = 1e306  # alpha * log(deg + 1) stays finite for every degree below e^179


class AugmentationError(ValueError):
    """Raised when an augmentation cannot be applied to a graph."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class AugmentationSpec:
    """One augmentation kind plus its strength and degree-bias controls.

    alpha > 0 biases node selection toward high-degree nodes, alpha < 0 toward
    low-degree ones, alpha = 0 is uniform. Only the node-selecting kinds,
    NodeDrop and AttrMask, take a bias; Identity ignores ratio.
    """

    kind: str
    ratio: float = DEFAULT_RATIO
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError(f"ratio must lie in [0, 1), got {self.ratio}")
        if not abs(self.alpha) <= MAX_ALPHA:
            raise ValueError(f"alpha must lie in [-{MAX_ALPHA:g}, {MAX_ALPHA:g}], got {self.alpha}")
        if self.alpha != 0.0 and self.kind not in BIASED_KINDS:
            raise ValueError(f"alpha must be 0 for {self.kind}, got {self.alpha}: "
                             "only NodeDrop and AttrMask take a degree bias")


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
    """Node-selection probabilities proportional to (deg + 1)^alpha, the law by which `_pick` draws each node.

    The +1 smoothing keeps isolated nodes sampleable and 0^alpha finite for
    negative alpha; exp(a - max a), a = alpha*log(deg + 1), stays finite where (deg + 1)^alpha overflows.
    """
    if g.num_nodes == 0:
        raise AugmentationError("cannot build selection probabilities for an empty graph")
    a = alpha * np.log1p(degrees(g))
    weights = np.exp(a - a.max())
    return weights / weights.sum()


def _pick(k: int, log_weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """k distinct indices drawn one at a time, each with probability proportional to exp(log_weights) among those
    left: the k smallest Efraimidis-Spirakis keys (IPL 2006) log(-log u) - log_weights, one uniform u per item."""
    keys = np.log(-np.log(rng.random(len(log_weights)))) - log_weights
    return np.argpartition(keys, k - 1)[:k]


class ViewDraw(NamedTuple):
    """What one drawn view changes in its graph; a draw with every field None is the graph itself."""
    keep: np.ndarray | None = None  # boolean mask of the nodes kept (NodeDrop, Subgraph)
    zeroed: np.ndarray | None = None  # nodes whose feature rows are zeroed (AttrMask)
    edges: np.ndarray | None = None  # the view's whole edge list, canonical (EdgePerturb)


def _draw_node_drop(g: Graph, spec: AugmentationSpec, rng: np.random.Generator) -> ViewDraw:
    if g.num_nodes < 2:
        raise AugmentationError("node dropping needs at least 2 nodes")
    d = min(_round_half_up(spec.ratio * g.num_nodes), g.num_nodes - 1)
    keep = np.ones(g.num_nodes, dtype=bool)
    if d:
        keep[_pick(d, spec.alpha * np.log1p(degrees(g)), rng)] = False
    return ViewDraw(keep=keep)


def node_drop(g: Graph, ratio: float, alpha: float, rng: np.random.Generator) -> Graph:
    """Remove round(ratio*n) nodes (at most n-1) along with their incident edges."""
    return induced_subgraph(g, _draw_node_drop(g, AugmentationSpec("NodeDrop", ratio, alpha), rng).keep)


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


def _draw_edge_perturb(g: Graph, spec: AugmentationSpec, rng: np.random.Generator) -> ViewDraw:
    if g.num_edges == 0:
        raise AugmentationError("edge perturbation needs at least one edge")
    k = _round_half_up(spec.ratio * g.num_edges)
    if k == 0:
        return ViewDraw(edges=g.edges)
    kept = np.delete(g.edges, _pick(k, np.zeros(g.num_edges), rng), axis=0)
    # Removed pairs stay ineligible: the non-edge set is taken relative to
    # the original edge set.
    return ViewDraw(edges=_canonical_edges(np.concatenate([kept, _sample_non_edges(g.num_nodes, g.edges, k, rng)])))


def edge_perturb(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Remove round(ratio*|E|) edges and add the same number of fresh non-edges.

    Additions exclude self-loops, duplicates, and the just-removed pairs; if
    fewer non-edges exist than removals, only the available ones are added.
    """
    edges = _draw_edge_perturb(g, AugmentationSpec("EdgePerturb", ratio), rng).edges
    return Graph(g.num_nodes, edges, g.node_features, g.label)


def _draw_attr_mask(g: Graph, spec: AugmentationSpec, rng: np.random.Generator) -> ViewDraw:
    if g.num_nodes == 0:
        raise AugmentationError("attribute masking needs at least one node")
    m = min(_round_half_up(spec.ratio * g.num_nodes), g.num_nodes)
    return ViewDraw(zeroed=_pick(m, spec.alpha * np.log1p(degrees(g)), rng) if m else np.zeros(0, dtype=np.int64))


def attr_mask(g: Graph, ratio: float, alpha: float, rng: np.random.Generator) -> Graph:
    """Zero out the feature rows of round(ratio*n) sampled nodes; structure unchanged."""
    feats = g.node_features.copy()
    feats[_draw_attr_mask(g, AugmentationSpec("AttrMask", ratio, alpha), rng).zeroed] = 0.0
    return Graph(g.num_nodes, g.edges, feats, g.label)


def _draw_subgraph(g: Graph, spec: AugmentationSpec, rng: np.random.Generator) -> ViewDraw:
    n = g.num_nodes
    if n < 2:
        raise AugmentationError("subgraph sampling needs at least 2 nodes")
    target = max(1, _round_half_up((1.0 - spec.ratio) * n))
    # CSR adjacency: the neighbors of u, ascending, are nbr[start[u]:start[u] + deg[u]].
    deg = degrees(g).tolist()
    start = np.cumsum([0] + deg[:-1]).tolist()
    nbr = g.edges[:, ::-1].ravel()[np.argsort(g.edges.ravel(), kind="stable")].tolist()
    seed_node = int(rng.integers(n))
    frontier, kept = [seed_node], []
    seen = [False] * n
    seen[seed_node] = True
    for u in rng.random(target).tolist():
        if not frontier:
            break
        i = int(u * len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        node = frontier.pop()
        kept.append(node)
        for v in nbr[start[node]:start[node] + deg[node]]:
            if not seen[v]:
                seen[v] = True
                frontier.append(v)
    return ViewDraw(keep=np.bincount(kept, minlength=n) > 0)


def subgraph_rw(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Induced subgraph on max(1, round((1-ratio)*n)) nodes grown by frontier expansion.

    The kept set starts at a uniform seed node; each step moves a uniform node
    of the frontier (the not-yet-kept neighbours of the kept set) into it. A
    connected graph therefore yields exactly the target size; the view never
    leaves the seed's component, and is that whole component when it is
    smaller than the target. (The name dates from a random-walk sampler and
    stays because callers and the benchmark's span look it up by name.)
    """
    return induced_subgraph(g, _draw_subgraph(g, AugmentationSpec("Subgraph", ratio), rng).keep)


_DRAWS = {"Identity": lambda g, spec, rng: ViewDraw(), "NodeDrop": _draw_node_drop,
          "EdgePerturb": _draw_edge_perturb, "AttrMask": _draw_attr_mask, "Subgraph": _draw_subgraph}


def draw_view(spec: AugmentationSpec, g: Graph, rng: np.random.Generator) -> ViewDraw:
    """Draw one view of g under `spec` from `rng`, without building it."""
    return _DRAWS[spec.kind](g, spec, rng)


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
    view=apply_augmentation,
) -> tuple:
    """Draw one spec uniformly from each pool, then make view i's and view j's of g by `view`, in turn, all from
    `rng`: `apply_augmentation` (the default) builds Graphs, `draw_view` returns only their ViewDraws."""
    spec_i = pool_i.specs[int(rng.integers(len(pool_i)))]
    spec_j = pool_j.specs[int(rng.integers(len(pool_j)))]
    return view(spec_i, g, rng), view(spec_j, g, rng)


def single_pool(kind: str, ratio: float = DEFAULT_RATIO, alpha: float = 0.0) -> AugmentationPool:
    """The pool of one spec: every view it gives is `kind` at this ratio and bias."""
    return AugmentationPool(specs=(AugmentationSpec(kind, ratio, alpha),))


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
