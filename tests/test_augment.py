import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcl.augment import (
    RESTART_PROB,
    AugmentationError,
    AugmentationPool,
    AugmentationSpec,
    apply_augmentation,
    attr_mask,
    default_pool,
    degree_biased_probs,
    edge_perturb,
    node_drop,
    sample_view_pair,
    subgraph_rw,
)
from gcl.graphs import validate
from gcl.synth import make_corpus

from conftest import is_connected, make_graph, random_connected_graph


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDegreeBiasedProbs:
    def test_uniform_at_alpha_zero(self, path3):
        assert degree_biased_probs(path3, 0.0).tolist() == [1 / 3, 1 / 3, 1 / 3]

    def test_alpha_one(self, path3):
        # degrees (1, 2, 1) -> weights (2, 3, 2) -> normalized by 7
        np.testing.assert_allclose(degree_biased_probs(path3, 1.0), [2 / 7, 3 / 7, 2 / 7])

    def test_alpha_minus_one(self, path3):
        # weights (1/2, 1/3, 1/2) -> (3/8, 2/8, 3/8)
        np.testing.assert_allclose(degree_biased_probs(path3, -1.0), [3 / 8, 2 / 8, 3 / 8])

    def test_sums_to_one(self):
        g = random_connected_graph(rng(5))
        for alpha in (-2.0, -0.5, 0.0, 0.7, 2.0):
            assert degree_biased_probs(g, alpha).sum() == pytest.approx(1.0)


class TestNodeDrop:
    def test_drops_exact_count(self):
        g = random_connected_graph(rng(1), n_min=10, n_max=10)
        out = node_drop(g, 0.2, 0.0, rng(2))
        assert out.num_nodes == 8

    def test_ratio_zero_identity(self, k4):
        out = node_drop(k4, 0.0, 0.0, rng(3))
        assert out.num_nodes == 4
        assert out.edges.tolist() == k4.edges.tolist()

    def test_triangle_third(self, triangle):
        out = node_drop(triangle, 1 / 3, 0.0, rng(4))
        assert out.num_nodes == 2
        assert out.num_edges == 1

    def test_single_node_rejected(self):
        g = make_graph(1, [])
        with pytest.raises(AugmentationError):
            node_drop(g, 0.2, 0.0, rng(0))

    def test_cap_leaves_one_node(self):
        g = make_graph(2, [(0, 1)])
        out = node_drop(g, 0.99, 0.0, rng(0))
        assert out.num_nodes == 1


class TestEdgePerturb:
    def test_preserves_edge_count(self):
        g = random_connected_graph(rng(7), n_min=10, n_max=10)
        assert g.num_edges >= 5
        out = edge_perturb(g, 0.2, rng(8))
        assert out.num_edges == g.num_edges
        assert out.num_nodes == g.num_nodes
        assert np.array_equal(out.node_features, g.node_features)

    def test_ratio_zero_identity(self, k4):
        out = edge_perturb(k4, 0.0, rng(9))
        assert out.edges.tolist() == k4.edges.tolist()

    def test_k4_one_sixth(self, k4):
        # K4 is complete: the only non-edge after one removal is the removed
        # pair itself, which is excluded, so nothing is added back.
        out = edge_perturb(k4, 1 / 6, rng(10))
        assert out.num_edges == 5

    def test_edgeless_rejected(self):
        g = make_graph(3, [])
        with pytest.raises(AugmentationError):
            edge_perturb(g, 0.2, rng(0))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_no_self_loops_or_duplicates(self, seed):
        r = np.random.default_rng(seed)
        g = random_connected_graph(r, n_min=4, n_max=10)
        out = edge_perturb(g, float(r.uniform(0.0, 0.9)), r)
        assert validate(out) == []

    @staticmethod
    def added_pair_counts(g, ratio, draws):
        """How often each non-edge of g is added over `draws` seeded perturbations."""
        original = {tuple(e) for e in g.edges.tolist()}
        n = g.num_nodes
        complement = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in original]
        counts = dict.fromkeys(complement, 0)
        for seed in range(draws):
            for e in edge_perturb(g, ratio, rng(seed)).edges.tolist():
                if tuple(e) not in original:
                    counts[tuple(e)] += 1
        return np.array(list(counts.values()))

    def test_added_pairs_uniform_sparse(self):
        from scipy import stats

        # An 8-node path: 21 of 28 pairs are non-edges, the rejection-sampled branch.
        g = make_graph(8, [(i, i + 1) for i in range(7)])
        counts = self.added_pair_counts(g, 0.3, 3000)
        assert counts.size == 21 and counts.sum() == 2 * 3000
        assert stats.chisquare(counts).pvalue > 0.001

    def test_added_pairs_uniform_dense(self):
        from scipy import stats

        # K8 minus 12 pairs: most draws hit an edge and are rejected.
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        missing = set(rng(36).permutation(len(pairs))[:12].tolist())
        g = make_graph(8, [p for i, p in enumerate(pairs) if i not in missing])
        counts = self.added_pair_counts(g, 0.25, 3000)
        assert counts.size == 12 and counts.sum() == 4 * 3000
        assert stats.chisquare(counts).pvalue > 0.001

    def test_near_complete_adds_every_non_edge(self):
        # K10 minus 3 pairs with 5 removals: every one of the 3 non-edges is added.
        pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        g = make_graph(10, pairs[3:])
        for seed in range(20):
            out = edge_perturb(g, 5 / 42, rng(seed))
            assert validate(out) == [] and out.num_edges == 42 - 5 + 3
            assert {tuple(p) for p in out.edges.tolist()} >= set(pairs[:3])

    def test_removed_pairs_never_readded_sparse(self):
        r = rng(37)
        for seed in range(200):
            g = random_connected_graph(r, n_min=20, n_max=40, extra_frac=0.1)
            k = int(np.floor(0.3 * g.num_edges + 0.5))
            out = edge_perturb(g, 0.3, rng(seed))
            kept = {tuple(e) for e in out.edges.tolist()} & {tuple(e) for e in g.edges.tolist()}
            assert out.num_edges == g.num_edges
            assert len(kept) == g.num_edges - k

    def test_sparse_4000_node_tree_time_and_memory(self):
        g = make_corpus(1, families=("tree",), size_range=(4000, 4000), seed=0)[0]
        start = time.perf_counter()
        edge_perturb(g, 0.2, rng(38))
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            out = edge_perturb(g, 0.2, rng(38))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validate(out) == [] and out.num_edges == g.num_edges
        assert elapsed <= 0.5
        assert peak <= 16 * 2**20


class TestAttrMask:
    def test_masks_exact_count(self):
        g = random_connected_graph(rng(13), n_min=10, n_max=10)
        out = attr_mask(g, 0.2, 0.0, rng(14))
        zero_rows = (np.abs(out.node_features).sum(axis=1) == 0).sum()
        assert zero_rows == 2

    def test_ratio_zero_identity(self, k4):
        out = attr_mask(k4, 0.0, 0.0, rng(15))
        assert np.array_equal(out.node_features, k4.node_features)

    def test_unmasked_rows_bit_identical(self):
        g = random_connected_graph(rng(16), n_min=10, n_max=10)
        out = attr_mask(g, 0.3, 0.0, rng(17))
        masked = np.abs(out.node_features).sum(axis=1) == 0
        assert np.array_equal(out.node_features[~masked], g.node_features[~masked])
        assert out.edges.tolist() == g.edges.tolist()


class TestSubgraphRW:
    def test_k10_connected_and_sized(self):
        g = make_graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
        out = subgraph_rw(g, 0.2, rng(18))
        assert out.num_nodes == 8
        assert is_connected(out)

    def test_ratio_zero_retains_all(self):
        g = random_connected_graph(rng(19), n_min=6, n_max=8)
        out = subgraph_rw(g, 0.0, rng(20), max_steps=100_000)
        assert out.num_nodes == g.num_nodes

    def test_cannot_cross_components(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = make_graph(6, edges)
        out = subgraph_rw(g, 0.5, rng(21))
        assert out.num_nodes == 3
        assert out.num_edges == 3  # one full triangle, never a mix

    def test_budget_exhaustion_returns_partial(self):
        g = random_connected_graph(rng(22), n_min=10, n_max=10)
        out = subgraph_rw(g, 0.0, rng(23), max_steps=1)
        assert 1 <= out.num_nodes <= 2

    def test_single_node_rejected(self):
        with pytest.raises(AugmentationError):
            subgraph_rw(make_graph(1, []), 0.2, rng(0))

    def test_restart_law_one_step(self):
        from scipy import stats

        # With no isolated node, the one step restarts (1 node) with
        # probability RESTART_PROB or moves to a new neighbor (2 nodes).
        g = random_connected_graph(rng(39), n_min=10, n_max=10)
        r = rng(40)
        twos = sum(subgraph_rw(g, 0.0, r, max_steps=1).num_nodes == 2 for _ in range(4000))
        lo, hi = stats.binom.interval(0.999, 4000, 1.0 - RESTART_PROB)
        assert lo <= twos <= hi


class TestApplyAndPools:
    def test_identity_returns_same_graph(self, triangle):
        spec = AugmentationSpec(kind="Identity")
        assert apply_augmentation(spec, triangle, rng(0)) is triangle

    def test_node_drop_spec(self):
        g = random_connected_graph(rng(24), n_min=10, n_max=10)
        out = apply_augmentation(AugmentationSpec(kind="NodeDrop", ratio=0.2), g, rng(5))
        assert out.num_nodes == 8

    def test_same_seed_same_output(self):
        g = random_connected_graph(rng(25), n_min=10, n_max=10)
        spec = AugmentationSpec(kind="Subgraph", ratio=0.3)
        a = apply_augmentation(spec, g, rng(42))
        b = apply_augmentation(spec, g, rng(42))
        assert a.edges.tolist() == b.edges.tolist()
        assert np.array_equal(a.node_features, b.node_features)

    def test_sample_view_pair_identity_pools(self, triangle):
        pool = AugmentationPool(specs=(AugmentationSpec(kind="Identity"),))
        vi, vj = sample_view_pair(pool, pool, triangle, rng(26))
        assert vi is triangle and vj is triangle

    def test_sample_view_pair_composition(self):
        g = random_connected_graph(rng(27), n_min=10, n_max=10)
        drop = AugmentationPool(specs=(AugmentationSpec(kind="NodeDrop", ratio=0.2),))
        mask = AugmentationPool(specs=(AugmentationSpec(kind="AttrMask", ratio=0.2),))
        vi, vj = sample_view_pair(drop, mask, g, rng(28))
        assert vi.num_nodes == 8
        assert vj.num_nodes == 10
        assert (np.abs(vj.node_features).sum(axis=1) == 0).sum() == 2

    def test_sample_view_pair_reproducible(self):
        g = random_connected_graph(rng(29), n_min=8, n_max=8)
        pool = default_pool("synthetic")
        a = sample_view_pair(pool, pool, g, rng(30))
        b = sample_view_pair(pool, pool, g, rng(30))
        for x, y in zip(a, b):
            assert x.edges.tolist() == y.edges.tolist()

    def test_default_pools(self):
        assert len(default_pool("biochemical")) == 2
        assert len(default_pool("social-dense")) == 4
        assert len(default_pool("social-sparse")) == 3
        assert len(default_pool("synthetic")) == 4
        kinds = {s.kind for s in default_pool("social-sparse").specs}
        assert "AttrMask" not in kinds
        for spec in default_pool("social-dense").specs:
            assert spec.ratio == 0.2 and spec.alpha == 0.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            AugmentationSpec(kind="Bogus")
        with pytest.raises(ValueError):
            AugmentationSpec(kind="NodeDrop", ratio=1.0)
        with pytest.raises(ValueError):
            AugmentationPool(specs=())


class TestSharedProperties:
    @pytest.mark.parametrize("ratio", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_exact_output_sizes(self, ratio):
        r = np.random.default_rng(int(ratio * 100) + 1)
        for _ in range(10):
            g = random_connected_graph(r, n_min=5, n_max=20)
            n = g.num_nodes
            dropped = node_drop(g, ratio, 0.0, r)
            assert dropped.num_nodes == n - min(int(np.floor(ratio * n + 0.5)), n - 1)
            masked = attr_mask(g, ratio, 0.0, r)
            zero = (np.abs(masked.node_features).sum(axis=1) == 0).sum()
            assert zero == min(int(np.floor(ratio * n + 0.5)), n)
            sub = subgraph_rw(g, ratio, r, max_steps=50 * n)
            assert sub.num_nodes <= max(1, int(np.floor((1 - ratio) * n + 0.5)))

    def test_label_and_feature_dim_preserved(self):
        r = np.random.default_rng(31)
        pool = default_pool("synthetic")
        for _ in range(20):
            g = random_connected_graph(r, n_min=5, n_max=12)
            g = make_graph(g.num_nodes, g.edges.tolist(), label=1, feature_dim=3, rng=r)
            spec = pool.specs[int(r.integers(len(pool)))]
            out = apply_augmentation(spec, g, r)
            assert out.label == 1
            assert out.feature_dim == 3

    def test_surviving_rows_bit_exact_under_node_drop(self):
        r = np.random.default_rng(32)
        g = random_connected_graph(r, n_min=8, n_max=8, feature_dim=4)
        out = node_drop(g, 0.25, 0.0, r)
        # every surviving row must appear bit-identically in the original
        originals = {row.tobytes() for row in g.node_features}
        assert all(row.tobytes() in originals for row in out.node_features)

    def test_alpha_two_star_prefers_hub(self):
        g = make_graph(7, [(0, i) for i in range(1, 7)])
        probs = degree_biased_probs(g, 2.0)
        r = np.random.default_rng(33)
        draws = r.choice(7, size=10_000, replace=True, p=probs)
        counts = np.bincount(draws, minlength=7)
        assert counts[0] > counts[1:].max()

    def test_alpha_zero_uniformity_chi_square(self):
        from scipy import stats

        g = random_connected_graph(np.random.default_rng(34), n_min=20, n_max=20)
        probs = degree_biased_probs(g, 0.0)
        r = np.random.default_rng(35)
        draws = r.choice(20, size=10_000, replace=True, p=probs)
        counts = np.bincount(draws, minlength=20)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001
