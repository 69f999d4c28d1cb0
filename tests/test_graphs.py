import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcl.graphs import (
    Graph,
    _canonical_edges,
    degrees,
    induced_subgraph,
    load_tudataset,
    permute_nodes,
    save_tudataset,
    validate,
)

from conftest import make_graph


def write_minimal_corpus(directory):
    """Two labeled triangles with node labels {7, 9} standing in for {a, b}."""
    directory.mkdir(exist_ok=True)
    (directory / "TWOTRI_A.txt").write_text(
        "1, 2\n2, 1\n1, 3\n3, 1\n2, 3\n3, 2\n"
        "4, 5\n5, 4\n4, 6\n6, 4\n5, 6\n6, 5\n"
    )
    (directory / "TWOTRI_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
    (directory / "TWOTRI_graph_labels.txt").write_text("0\n1\n")
    (directory / "TWOTRI_node_labels.txt").write_text("7\n9\n7\n9\n9\n7\n")


class TestDegree:
    def test_path_center(self, path3):
        assert degrees(path3)[1] == 2
        assert degrees(path3)[0] == 1

    def test_isolated_node(self):
        g = make_graph(3, [(0, 1)])
        assert degrees(g)[2] == 0

    def test_k5(self):
        g = make_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert degrees(g).tolist() == [4] * 5


class TestCanonicalEdges:
    @staticmethod
    def reference(pairs):
        arr = np.asarray(sorted((min(u, v), max(u, v)) for u, v in pairs), dtype=np.int64)
        return arr.reshape(-1, 2) if arr.size else np.zeros((0, 2), dtype=np.int64)

    def test_matches_sorted_tuples(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            pairs = {tuple(p) for p in rng.integers(0, n, size=(int(rng.integers(1, 40)), 2)).tolist()
                     if p[0] != p[1]}
            for arg in (list(pairs), np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)):
                out = _canonical_edges(arg)
                assert out.dtype == np.int64
                assert out.tolist() == self.reference(pairs).tolist()

    def test_empty(self):
        for arg in ([], np.zeros((0, 2), dtype=np.int64)):
            out = _canonical_edges(arg)
            assert out.shape == (0, 2) and out.dtype == np.int64


class TestGraphEdges:
    def test_unsorted_and_reversed_rows_are_stored_canonically(self):
        g = make_graph(5, [(3, 1), (0, 4), (2, 0), (1, 2)])
        assert g.edges.tolist() == [[0, 2], [0, 4], [1, 2], [1, 3]]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Graph(3, np.array([[0, 1, 2]]), np.zeros((3, 1)))


class TestInducedSubgraph:
    def test_views_of_unsorted_input_are_canonical(self):
        g = make_graph(6, [(5, 4), (3, 0), (4, 1), (2, 5), (1, 0)])
        sub = induced_subgraph(g, [0, 1, 4, 5])
        assert sub.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert sub.edges.tolist() == _canonical_edges(sub.edges).tolist()

    def test_triangle_keep_two(self, triangle):
        sub = induced_subgraph(triangle, {0, 1})
        assert sub.num_nodes == 2
        assert sub.edges.tolist() == [[0, 1]]
        assert sub.label == triangle.label

    def test_keep_all_is_identity(self, k4):
        sub = induced_subgraph(k4, range(4))
        assert sub.num_nodes == 4
        assert sub.edges.tolist() == k4.edges.tolist()
        assert np.array_equal(sub.node_features, k4.node_features)

    def test_four_cycle_opposite_corners(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = induced_subgraph(g, {0, 2})
        assert sub.num_nodes == 2
        assert sub.num_edges == 0

    def test_empty_keep_rejected(self, triangle):
        with pytest.raises(ValueError):
            induced_subgraph(triangle, set())

    def test_keeps_feature_rows(self, k4):
        sub = induced_subgraph(k4, {1, 3})
        assert np.array_equal(sub.node_features, k4.node_features[[1, 3]])

    def test_degree_sequence_preserved_on_full_keep(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = [pairs[i] for i in rng.permutation(len(pairs))[: rng.integers(0, len(pairs))]]
            g = make_graph(n, sorted(take), rng=rng)
            sub = induced_subgraph(g, range(n))
            assert sorted(degrees(sub)) == sorted(degrees(g))


class TestValidate:
    def test_well_formed(self, triangle):
        assert validate(triangle) == []

    def test_out_of_range_edge(self):
        g = make_graph(3, [(0, 5)])
        assert len(validate(g)) == 1
        assert "outside" in validate(g)[0]

    def test_duplicate_edge(self):
        g = make_graph(3, [(0, 1), (1, 0)])
        assert any("duplicate" in v for v in validate(g))

    def test_self_loop(self):
        g = make_graph(3, [(1, 1)])
        assert any("self-loop" in v for v in validate(g))

    def test_feature_row_mismatch(self):
        g = Graph(3, np.zeros((0, 2), dtype=np.int64), np.zeros((2, 1)))
        assert any("rows" in v for v in validate(g))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_degree_sum_equals_twice_edges(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    g = make_graph(n, sorted(chosen))
    assert degrees(g).sum() == 2 * g.num_edges


def test_permute_nodes_preserves_structure(k4):
    perm = [2, 0, 3, 1]
    p = permute_nodes(k4, perm)
    assert sorted(degrees(p)) == sorted(degrees(k4))
    assert np.array_equal(p.node_features[perm[1]], k4.node_features[1])


class TestLoader:
    def test_minimal_corpus(self, tmp_path):
        write_minimal_corpus(tmp_path)
        ds = load_tudataset(str(tmp_path), "TWOTRI", category="synthetic")
        assert len(ds) == 2
        assert ds.feature_dim == 2  # one-hot over two node label values
        assert ds.num_classes == 2
        assert [g.label for g in ds.graphs] == [0, 1]
        for g in ds.graphs:
            assert g.num_nodes == 3
            assert g.num_edges == 3  # both-direction lines deduplicated
        assert ds[0].node_features.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_missing_mandatory_file(self, tmp_path):
        (tmp_path / "X_graph_indicator.txt").write_text("1\n")
        with pytest.raises(FileNotFoundError):
            load_tudataset(str(tmp_path), "X")

    def test_node_index_out_of_range(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 9\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n")
        with pytest.raises(ValueError, match="out of range"):
            load_tudataset(str(tmp_path), "X")

    def test_indicator_length_mismatch(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2\n2, 1\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "X_node_labels.txt").write_text("0\n0\n0\n")
        with pytest.raises(ValueError, match="node"):
            load_tudataset(str(tmp_path), "X")

    def test_degree_features_when_unattributed(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n1\n")
        ds = load_tudataset(str(tmp_path), "X", category="social-sparse")
        assert ds.feature_dim == 1
        assert ds[0].node_features.ravel().tolist() == [0.5, 1.0, 0.5]

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        graphs = []
        for i in range(6):
            n = int(rng.integers(2, 8))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = [pairs[k] for k in rng.permutation(len(pairs))[: rng.integers(1, len(pairs) + 1)]]
            graphs.append(make_graph(n, sorted(take), label=i % 2, feature_dim=3, rng=rng))
        from gcl.graphs import GraphDataset

        ds = GraphDataset(tuple(graphs), "RT", "synthetic", 2, 3)
        save_tudataset(ds, str(tmp_path / "out"))
        reloaded = load_tudataset(str(tmp_path / "out"), "RT", category="synthetic")
        assert len(reloaded) == len(ds)
        for a, b in zip(ds.graphs, reloaded.graphs):
            assert a.edges.tolist() == b.edges.tolist()
            assert np.array_equal(a.node_features, b.node_features)
            assert a.label == b.label
