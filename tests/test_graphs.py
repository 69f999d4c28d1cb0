import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcl.graphs import (
    Graph,
    GraphDataset,
    _canonical_edges,
    degrees,
    induced_subgraph,
    load_tudataset,
    permute_nodes,
    save_tudataset,
    validate,
)
from gcl.synth import make_corpus

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


def write_files(directory, name="X", **files):
    """Write NAME_<suffix>.txt for every suffix=text pair."""
    for suffix, text in files.items():
        (directory / f"{name}_{suffix}.txt").write_text(text)


def assert_same_dataset(a, b):
    assert (len(a), a.category, a.num_classes, a.feature_dim) == (len(b), b.category, b.num_classes, b.feature_dim)
    for x, y in zip(a.graphs, b.graphs):
        assert x.num_nodes == y.num_nodes
        assert x.edges.tolist() == y.edges.tolist()
        assert x.node_features.tobytes() == y.node_features.tobytes()
        assert x.node_features.shape == y.node_features.shape
        assert x.label == y.label


FIXTURES = Path(__file__).parent / "data"


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

    @staticmethod
    def roundtrip(tmp_path, labeled):
        rng = np.random.default_rng(11)
        graphs = []
        for i in range(6):
            n = int(rng.integers(2, 8))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = [pairs[k] for k in rng.permutation(len(pairs))[: rng.integers(1, len(pairs) + 1)]]
            graphs.append(make_graph(n, sorted(take), label=i % 2, feature_dim=3, rng=rng))
        graphs.append(make_graph(4, [(0, 1), (1, 2)], label=0, feature_dim=3, rng=rng))  # node 3 isolated
        graphs.append(make_graph(3, [], label=1, feature_dim=3, rng=rng))  # no edges at all
        graphs.append(make_graph(1, [], label=0, feature_dim=3, rng=rng))
        if not labeled:
            graphs = [Graph(g.num_nodes, g.edges, g.node_features) for g in graphs]
        ds = GraphDataset(tuple(graphs), "RT", "synthetic", 2 if labeled else 0, 3)
        save_tudataset(ds, str(tmp_path / "out"))
        assert (tmp_path / "out" / "RT_graph_labels.txt").exists() == labeled
        reloaded = load_tudataset(str(tmp_path / "out"), "RT", category="synthetic")
        assert_same_dataset(ds, reloaded)

    def test_roundtrip(self, tmp_path):
        self.roundtrip(tmp_path, labeled=True)

    def test_roundtrip_unlabeled(self, tmp_path):
        self.roundtrip(tmp_path, labeled=False)

    def test_save_bytes_match_fixture(self, tmp_path):
        ds = make_corpus(6, families=("cycle", "star", "clique"), size_range=(3, 6), seed=7, name="FIX")
        save_tudataset(ds, str(tmp_path))
        expected = sorted(FIXTURES.glob("FIX_*.txt"))
        assert [p.name for p in expected] == sorted(p.name for p in tmp_path.iterdir())
        for path in expected:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("text", ["1, 2\n2, 1, 2\n", "1, 2, 1\n", "1\n"])
    def test_edge_line_without_two_fields_rejected(self, tmp_path, text):
        write_files(tmp_path, A=text, graph_indicator="1\n1\n")
        with pytest.raises(ValueError, match="X_A.txt"):
            load_tudataset(str(tmp_path), "X")

    def test_edge_crossing_graphs_rejected(self, tmp_path):
        write_files(tmp_path, A="1, 2\n2, 1\n2, 3\n3, 2\n", graph_indicator="1\n1\n2\n")
        with pytest.raises(ValueError, match="crosses graph boundaries"):
            load_tudataset(str(tmp_path), "X")

    def test_self_loop_lines_dropped_with_count(self, tmp_path, caplog):
        write_files(tmp_path, A="1, 1\n1, 2\n2, 1\n2, 2\n1, 1\n3, 3\n", graph_indicator="1\n1\n2\n")
        with caplog.at_level(logging.WARNING, logger="gcl.graphs"):
            ds = load_tudataset(str(tmp_path), "X", category="synthetic")
        assert [g.edges.tolist() for g in ds.graphs] == [[[0, 1]], []]
        assert "X_A.txt: dropped 4 self-loop lines" in caplog.text

    def test_indicator_gap_rejected(self, tmp_path):
        write_files(tmp_path, A="1, 2\n2, 1\n", graph_indicator="1\n1\n3\n")
        with pytest.raises(ValueError, match="graph 2 has no nodes"):
            load_tudataset(str(tmp_path), "X")

    def test_indicator_must_be_one_based(self, tmp_path):
        write_files(tmp_path, A="", graph_indicator="0\n1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_tudataset(str(tmp_path), "X")

    def test_empty_indicator_rejected(self, tmp_path):
        write_files(tmp_path, A="", graph_indicator="\n  \n")
        with pytest.raises(ValueError, match="empty"):
            load_tudataset(str(tmp_path), "X")

    @pytest.mark.parametrize("suffix", ["A", "graph_indicator", "graph_labels", "node_labels", "node_attributes"])
    def test_non_numeric_value_rejected(self, tmp_path, suffix):
        files = {
            "A": "1, 2\n2, 1\n",
            "graph_indicator": "1\n1\n",
            "graph_labels": "1\n",
            "node_labels": "0\n1\n",
            "node_attributes": "0.5\n1.5\n",
        }
        write_files(tmp_path, **files)
        load_tudataset(str(tmp_path), "X")  # well-formed as written
        files[suffix] = files[suffix].replace("1", "x", 1)
        write_files(tmp_path, **files)
        with pytest.raises(ValueError):
            load_tudataset(str(tmp_path), "X")

    def test_inconsistent_attribute_widths_rejected(self, tmp_path):
        write_files(tmp_path, A="", graph_indicator="1\n1\n", node_attributes="0.5, 1.0\n2.0\n")
        with pytest.raises(ValueError, match="node_attributes.txt.*column"):
            load_tudataset(str(tmp_path), "X")

    def test_graph_label_count_mismatch_rejected(self, tmp_path):
        write_files(tmp_path, A="", graph_indicator="1\n2\n", graph_labels="0\n")
        with pytest.raises(ValueError, match="graph_labels.txt"):
            load_tudataset(str(tmp_path), "X")

    def test_non_contiguous_graph_labels_remapped(self, tmp_path):
        write_files(tmp_path, A="", graph_indicator="1\n2\n3\n", graph_labels="1\n-1\n1\n")
        ds = load_tudataset(str(tmp_path), "X", category="synthetic")
        assert ds.num_classes == 2
        assert [g.label for g in ds.graphs] == [1, 0, 1]
        assert all(type(g.label) is int for g in ds.graphs)

    def test_interleaved_indicator_keeps_file_order(self, tmp_path):
        write_files(
            tmp_path,
            A="1, 5\n5, 1\n2, 4\n4, 2\n3, 5\n5, 3\n",
            graph_indicator="1\n2\n1\n2\n1\n",
            node_labels="0\n1\n2\n3\n4\n",
        )
        ds = load_tudataset(str(tmp_path), "X", category="synthetic")
        assert [g.num_nodes for g in ds.graphs] == [3, 2]
        assert ds[0].edges.tolist() == [[0, 2], [1, 2]]  # nodes 1, 3, 5 -> 0, 1, 2
        assert ds[1].edges.tolist() == [[0, 1]]
        assert ds[0].node_features.argmax(axis=1).tolist() == [0, 2, 4]
        assert ds[1].node_features.argmax(axis=1).tolist() == [1, 3]

    def test_blank_lines_and_separators(self, tmp_path):
        tidy, messy = tmp_path / "tidy", tmp_path / "messy"
        tidy.mkdir()
        messy.mkdir()
        write_files(tidy, A="1, 2\n2, 1\n2, 3\n3, 2\n", graph_indicator="1\n1\n1\n2\n",
                    graph_labels="0\n1\n", node_attributes="0.5,1.0\n2.0,3.0\n4.0,5.0\n6.0,7.0\n")
        write_files(messy, A="1 2\n  \n2\t1\n\n2,3\n 3 ,2 ", graph_indicator="1\n \n1\n1\n\n2\n",
                    graph_labels="\t\n0\n1\n", node_attributes="0.5,1\n   \n 2.0 , 3\n4,5\n6.0,7.0\n\n")
        assert_same_dataset(load_tudataset(str(tidy), "X", "synthetic"), load_tudataset(str(messy), "X", "synthetic"))

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_edge_file(self, tmp_path, text):
        write_files(tmp_path, A=text, graph_indicator="1\n1\n2\n")
        ds = load_tudataset(str(tmp_path), "X")
        assert [g.num_nodes for g in ds.graphs] == [2, 1]
        assert [g.num_edges for g in ds.graphs] == [0, 0]
        assert [g.node_features.tolist() for g in ds.graphs] == [[[0.0], [0.0]], [[0.0]]]
        assert ds.category == "social-sparse" and ds.num_classes == 0
