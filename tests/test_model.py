import json

import numpy as np
import pytest

from gcl.graphs import Graph, permute_nodes
from gcl.model import (
    EncoderConfig,
    accuracy,
    classify,
    cross_entropy,
    encode,
    gcn_layer,
    gin_layer,
    init_params,
    load_checkpoint,
    make_batch,
    project,
    save_checkpoint,
)
from gcl.tensor import Tensor

from conftest import random_connected_graph


def single(g):
    return make_batch([g])


class TestGCNLayer:
    def test_isolated_node_is_relu(self):
        g = Graph(1, np.zeros((0, 2), dtype=np.int64), np.array([[-2.0, 3.0]]))
        batch = single(g)
        out = gcn_layer(Tensor(batch.features), batch, Tensor(np.eye(2)))
        assert out.data.tolist() == [[0.0, 3.0]]

    def test_two_nodes_one_edge_hand_case(self):
        # deg_hat = 2 for both nodes, so every S row is [0.5, 0.5].
        g = Graph(2, np.array([[0, 1]]), np.array([[1.0], [1.0]]))
        batch = single(g)
        out = gcn_layer(Tensor(batch.features), batch, Tensor(np.array([[1.0]])))
        np.testing.assert_allclose(out.data, [[1.0], [1.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, n_min=6, n_max=6, feature_dim=3)
        w = Tensor(rng.normal(size=(3, 4)))
        perm = rng.permutation(6)
        direct = gcn_layer(Tensor(single(g).features), single(g), w).data
        pg = permute_nodes(g, perm)
        permuted = gcn_layer(Tensor(single(pg).features), single(pg), w).data
        np.testing.assert_allclose(permuted[perm], direct, atol=1e-12)


class TestGINLayer:
    def _mlp(self, rng, din=2, hidden=3):
        return (
            Tensor(rng.normal(size=(din, hidden))),
            Tensor(rng.normal(size=hidden)),
            Tensor(rng.normal(size=(hidden, hidden))),
            Tensor(rng.normal(size=hidden)),
        )

    def _apply_mlp(self, x, w1, b1, w2, b2):
        return np.maximum(x @ w1.data + b1.data, 0.0) @ w2.data + b2.data

    def test_isolated_node_is_mlp_of_h(self):
        rng = np.random.default_rng(1)
        g = Graph(1, np.zeros((0, 2), dtype=np.int64), rng.normal(size=(1, 2)))
        batch = single(g)
        w1, b1, w2, b2 = self._mlp(rng)
        out = gin_layer(Tensor(batch.features), batch, w1, b1, w2, b2)
        np.testing.assert_allclose(out.data, self._apply_mlp(g.node_features, w1, b1, w2, b2))

    def test_connected_equal_nodes_give_mlp_2h(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=2)
        g = Graph(2, np.array([[0, 1]]), np.vstack([h, h]))
        batch = single(g)
        w1, b1, w2, b2 = self._mlp(rng)
        out = gin_layer(Tensor(batch.features), batch, w1, b1, w2, b2)
        expected = self._apply_mlp((2 * h)[None, :], w1, b1, w2, b2)
        np.testing.assert_allclose(out.data[0], expected[0])
        np.testing.assert_allclose(out.data[1], expected[0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, n_min=6, n_max=6, feature_dim=2)
        w1, b1, w2, b2 = self._mlp(rng)
        perm = rng.permutation(6)
        direct = gin_layer(Tensor(single(g).features), single(g), w1, b1, w2, b2).data
        pg = permute_nodes(g, perm)
        permuted = gin_layer(Tensor(single(pg).features), single(pg), w1, b1, w2, b2).data
        np.testing.assert_allclose(permuted[perm], direct, atol=1e-12)


class TestEncode:
    def test_mean_readout_hand_case(self):
        # one identity-ish layer so the readout sees the raw features
        g = Graph(2, np.zeros((0, 2), dtype=np.int64), np.array([[1.0, 2.0], [3.0, 4.0]]))
        cfg = EncoderConfig(arch="gcn", num_layers=1, hidden_dim=2, readout="mean")
        params = init_params(cfg, 2, 0, np.random.default_rng(0))
        params.tensors["enc0.W"] = Tensor(np.eye(2), requires_grad=True)
        out = encode(make_batch([g]), params)
        np.testing.assert_allclose(out.data, [[2.0, 3.0]])

    def test_identical_graphs_identical_rows(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, n_min=5, n_max=5)
        cfg = EncoderConfig(hidden_dim=8)
        params = init_params(cfg, 2, 0, rng)
        out = encode(make_batch([g, g, g]), params).data
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_sum_readout_additivity(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, n_min=5, n_max=5)
        two_copies = Graph(
            2 * g.num_nodes,
            np.vstack([g.edges, g.edges + g.num_nodes]),
            np.vstack([g.node_features, g.node_features]),
        )
        cfg = EncoderConfig(arch="gin", num_layers=2, hidden_dim=6, readout="sum")
        params = init_params(cfg, 2, 0, rng)
        one = encode(make_batch([g]), params).data
        double = encode(make_batch([two_copies]), params).data
        np.testing.assert_allclose(double, 2 * one, rtol=1e-9)

    def test_empty_graph_rejected(self):
        g = Graph(0, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            make_batch([g])

    def test_batching_invariance(self):
        rng = np.random.default_rng(6)
        graphs = [random_connected_graph(rng, n_min=3, n_max=9) for _ in range(8)]
        for arch in ("gcn", "gin"):
            params = init_params(EncoderConfig(arch=arch, hidden_dim=8), 2, 0, rng)
            batched = encode(make_batch(graphs), params).data
            single_rows = np.vstack([encode(make_batch([g]), params).data for g in graphs])
            np.testing.assert_allclose(batched, single_rows, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for arch in ("gcn", "gin"):
            params = init_params(EncoderConfig(arch=arch, hidden_dim=8), 2, 0, rng)
            for _ in range(10):
                g = random_connected_graph(rng, n_min=4, n_max=10)
                perm = rng.permutation(g.num_nodes)
                a = encode(make_batch([g]), params).data
                b = encode(make_batch([permute_nodes(g, perm)]), params).data
                np.testing.assert_allclose(a, b, atol=1e-9)


class TestHeads:
    def test_project_identity_weights(self):
        params = init_params(EncoderConfig(hidden_dim=3), 3, 0, np.random.default_rng(8))
        params.tensors["proj.W1"] = Tensor(np.eye(3), requires_grad=True)
        params.tensors["proj.W2"] = Tensor(np.eye(3), requires_grad=True)
        h = Tensor(np.array([[1.0, 0.5, 2.0]]))
        np.testing.assert_allclose(project(h, params).data, h.data)

    def test_project_zero_weights(self):
        params = init_params(EncoderConfig(hidden_dim=3), 3, 0, np.random.default_rng(9))
        params.tensors["proj.W1"] = Tensor(np.zeros((3, 3)), requires_grad=True)
        params.tensors["proj.W2"] = Tensor(np.zeros((3, 3)), requires_grad=True)
        h = Tensor(np.ones((2, 3)))
        assert project(h, params).data.tolist() == [[0.0] * 3, [0.0] * 3]

    def test_classify_zero_weights_uniform_softmax(self):
        params = init_params(EncoderConfig(hidden_dim=3), 3, 4, np.random.default_rng(10))
        for name in ("clf.W1", "clf.b1", "clf.W2", "clf.b2"):
            params.tensors[name] = Tensor(np.zeros_like(params.tensors[name].data), requires_grad=True)
        logits = classify(Tensor(np.ones((2, 3))), params)
        assert logits.data.shape == (2, 4)
        probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, 0.25)

    def test_cross_entropy_uniform_is_log_c(self):
        logits = Tensor(np.zeros((5, 7)))
        loss = cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(7), abs=1e-12)

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        assert accuracy(logits, [0, 1, 1]) == pytest.approx(2 / 3)


class TestGINExpressiveness:
    def test_triangle_vs_path_under_random_params(self):
        triangle = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.ones((3, 1)))
        path = Graph(3, np.array([[0, 1], [1, 2]]), np.ones((3, 1)))
        cfg = EncoderConfig(arch="gin", num_layers=2, hidden_dim=8, readout="sum")
        distinct = 0
        for seed in range(100):
            params = init_params(cfg, 1, 0, np.random.default_rng(seed))
            out = encode(make_batch([triangle, path]), params).data
            if np.linalg.norm(out[0] - out[1]) > 1e-6:
                distinct += 1
        assert distinct >= 99


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = init_params(EncoderConfig(arch="gin", hidden_dim=5), 3, 2, rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.feature_dim == 3 and loaded.num_classes == 2
        assert list(loaded.tensors) == list(params.tensors)
        for name in params.tensors:
            assert loaded.tensors[name].data.tobytes() == params.tensors[name].data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(EncoderConfig(), 3, 2, np.random.default_rng(12))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_checkpoint(params, a)
        save_checkpoint(params, b)
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc.update(feature_dim=5), "enc0.W1"),  # stored (3, 5), layout wants (5, 5)
        (lambda doc: doc["tensors"].pop(), "clf.b2"),
        (lambda doc: doc["encoder"].update(num_layers=1), "enc1.W1"),
    ])
    def test_rejects_tensors_off_the_layout(self, tmp_path, edit, match):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_params(EncoderConfig(arch="gin", hidden_dim=5), 3, 2, np.random.default_rng(0)), str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"ckpt.json.*{match}"):
            load_checkpoint(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
