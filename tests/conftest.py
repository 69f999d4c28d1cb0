import numpy as np
import pytest

from gcl import tensor
from gcl.graphs import Graph


@pytest.fixture(autouse=True)
def isolated_tape():
    """Empty the process's tape and restore the grad flag after every test, so a test that
    fails between recording and `backward` cannot leave its ops to the next one."""
    grad_enabled = tensor._grad_enabled
    yield
    tensor._TAPE.clear()
    tensor._grad_enabled = grad_enabled


def make_graph(n, edges, label=None, feature_dim=2, rng=None):
    """Graph with arbitrary (seeded) features, for structural tests."""
    rng = rng or np.random.default_rng(0)
    feats = rng.normal(size=(n, feature_dim))
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(len(edges), 2), feats, label)


def random_connected_graph(rng, n_min=3, n_max=12, extra_frac=0.3, feature_dim=2):
    """Random tree plus extra edges: connected by construction."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    extras = int(extra_frac * n)
    for _ in range(extras):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return make_graph(n, sorted(edges), feature_dim=feature_dim, rng=rng)


def bfs_component(num_nodes, edge_list, start=0):
    """Independent connectivity oracle: plain BFS over an adjacency dict."""
    adj = {v: [] for v in range(num_nodes)}
    for u, v in edge_list:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_connected(g) -> bool:
    if g.num_nodes <= 1:
        return True
    return len(bfs_component(g.num_nodes, g.edges.tolist())) == g.num_nodes


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (0, 2), (1, 2)], label=0)


@pytest.fixture
def path3():
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def k4():
    return make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
