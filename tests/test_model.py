import json
import tracemalloc

import numpy as np
import pytest

from gcl import tensor as T
from gcl.augment import AugmentationError, AugmentationPool, AugmentationSpec, ViewDraw, draw_view, sample_view_pair
from gcl.contrastive import nt_xent
from gcl.graphs import Graph, permute_nodes
from gcl.model import (
    EncoderConfig,
    accuracy,
    classify,
    encode,
    gcn_layer,
    gin_layer,
    init_params,
    load_checkpoint,
    make_batch,
    project,
    save_checkpoint,
    view_batch,
)
from gcl.tensor import Tensor, finite_diff_check

from conftest import random_connected_graph


def single(g):
    return make_batch([g])


def dense_operator(graphs, arch, eps=0.0):
    """The layer operator as a dense matrix over the batch's node table, from the edge lists."""
    sizes = [g.num_nodes for g in graphs]
    a = np.zeros((sum(sizes), sum(sizes)))
    for g, offset in zip(graphs, np.cumsum(sizes) - sizes):
        for u, v in g.edges + offset:
            a[u, v] = a[v, u] = 1.0
    if arch == "gin":
        return a + (1.0 + eps) * np.eye(len(a))
    d = 1.0 / np.sqrt(a.sum(axis=1) + 1.0)
    return d[:, None] * (a + np.eye(len(a))) * d[None, :]


ISOLATED = Graph(1, np.zeros((0, 2), dtype=np.int64), np.array([[0.5, -1.0]]))
EDGELESS = Graph(3, np.zeros((0, 2), dtype=np.int64), np.arange(6.0).reshape(3, 2))
CASES = ["connected", "with-isolated-node", "edgeless"]


def case_graphs(rng, case):
    return {
        "connected": [random_connected_graph(rng, n_min=4, n_max=9) for _ in range(3)],
        "with-isolated-node": [random_connected_graph(rng, n_min=5, n_max=5), ISOLATED],
        "edgeless": [EDGELESS, ISOLATED],
    }[case]


class TestPropagate:
    @pytest.mark.parametrize("arch, eps", [("gcn", 0.0), ("gin", 0.0), ("gin", 0.37), ("gin", -0.6)])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_operator(self, arch, eps, case):
        rng = np.random.default_rng(20)
        graphs = case_graphs(rng, case)
        batch = make_batch(graphs)
        op = batch.operator(arch, eps)
        for width in (1, 2, 7):  # row-major keys and buffer per width; feature-major one row at a time
            x = rng.normal(size=(batch.features.shape[0], width))
            for out in (op(x), op.feature_major(x.T).T):
                assert out.dtype == np.float64
                np.testing.assert_allclose(out, dense_operator(graphs, arch, eps) @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("arch, eps", [("gcn", 0.0), ("gin", 0.37)])  # edge coefficients or none
    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical_to_add_at(self, arch, eps, case):
        rng = np.random.default_rng(21)
        op = make_batch(case_graphs(rng, case)).operator(arch, eps)
        coef = np.ones(op.src.size) if op.coef is None else op.coef
        for width in (1, 2, 7, 32):
            x = rng.normal(size=(op.n, width)) * 10.0 ** rng.integers(-8, 9, size=(op.n, 1))  # rounding shows
            reference = np.zeros((op.n, width))
            np.add.at(reference, op.dst, x[op.src] * coef[:, None])
            reference += x * op.self_weight.reshape(-1, 1)
            for out in (op(x), op.feature_major(x.T).T):
                assert out.dtype == np.float64 and np.ascontiguousarray(out).tobytes() == reference.tobytes()

    def test_operator_built_once_per_batch(self):
        batch = make_batch([random_connected_graph(np.random.default_rng(22))])
        assert batch.operator("gcn") is batch.operator("gcn")
        assert batch.operator("gin", 0.5) is not batch.operator("gin", 0.0)


def frozen_gcn_conv(x, w, op, probe):
    """The arithmetic of a GCN layer as its own op first computed it, kept as a reference:
    ReLU(S x W) on the narrower side of W, and the gradients of sum(out * probe) for x and W."""
    sx = op(x) if x.shape[1] < w.shape[1] else None
    out = op(x @ w) if sx is None else sx @ w
    np.maximum(out, 0.0, out=out)
    g = probe * (out > 0.0)
    if sx is None:
        sg = op(g)
        return out, sg @ w.T, x.T @ sg
    return out, op(g @ w.T), sx.T @ g


CONV_VARIANTS = [("gcn", 0.0, False), ("gcn", 0.0, True), ("gin", 0.37, False), ("gin", 0.37, True)]  # arch, eps, bias


class TestGcnConv:
    """`tensor.graph_conv`, the one op for GCN and GIN layers, on both operators with and without a bias."""

    @staticmethod
    def chain(h, w, s, b=None):
        """The reference: ReLU(S h W + b) as a tape chain over the dense S."""
        out = T.matmul(T.matmul(Tensor(s), h), w)
        return T.relu(out if b is None else T.add(out, b))

    @pytest.mark.parametrize("width", [2, 5, 7])  # narrower than, as wide as and wider than W's 5 columns
    @pytest.mark.parametrize("case", CASES)
    def test_matches_three_op_chain(self, width, case):
        rng = np.random.default_rng(26)
        graphs = case_graphs(rng, case)
        batch = make_batch(graphs)
        for arch, eps, bias in CONV_VARIANTS:
            op, s = batch.operator(arch, eps), dense_operator(graphs, arch, eps)
            x, w0, b0 = rng.normal(size=(op.n, width)), rng.normal(size=(width, 5)), rng.normal(size=5)
            probe = Tensor(rng.normal(size=(op.n, 5)))
            results = []
            for layer in (lambda h, w, b: T.graph_conv(h, w, op, b), lambda h, w, b: self.chain(h, w, s, b)):
                h, w = Tensor(x.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
                b = Tensor(b0.copy(), requires_grad=True) if bias else None
                out = layer(h, w, b)
                T.backward(T.sum(T.mul(out, probe)))
                results.append((out.data, h.grad, w.grad) + ((b.grad,) if bias else ()))
            assert (results[0][0] == 0.0).any() and (results[0][0] > 0.0).any()  # the ReLU mask matters
            for got, want in zip(*results):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # A GCN layer keeps its arithmetic bit for bit.
        h, w = Tensor(x.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        out = gcn_layer(h, batch, w)
        T.backward(T.sum(T.mul(out, probe)))
        for got, want in zip((out.data, h.grad, w.grad), frozen_gcn_conv(x, w0, batch.operator("gcn"), probe.data)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [2, 5, 7])
    @pytest.mark.parametrize("case", CASES)
    def test_feature_major_matches_chain_and_row_major(self, monkeypatch, width, case):
        """With FEATURE_MAJOR_MIN at 0 every call runs feature-major, on the edgeless batch too."""
        rng = np.random.default_rng(27)
        threshold = T.FEATURE_MAJOR_MIN  # these batches lie far below it
        graphs = case_graphs(rng, case)
        batch = make_batch(graphs)
        for arch, eps, bias in CONV_VARIANTS:
            op, s = batch.operator(arch, eps), dense_operator(graphs, arch, eps)
            x, w0, b0 = rng.normal(size=(op.n, width)), rng.normal(size=(width, 5)), rng.normal(size=5)
            probe = Tensor(rng.normal(size=(op.n, 5)))

            def run(layer, threshold):
                monkeypatch.setattr(T, "FEATURE_MAJOR_MIN", threshold)
                h, w = Tensor(x.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
                b = Tensor(b0.copy(), requires_grad=True) if bias else None
                out = layer(h, w, b)
                T.backward(T.sum(T.mul(out, probe)))
                return (out.data, h.grad, w.grad) + ((b.grad,) if bias else ())

            conv = lambda h, w, b: T.graph_conv(h, w, op, b)  # noqa: E731
            feature_major, row_major = run(conv, 0), run(conv, threshold)
            chain = run(lambda h, w, b: self.chain(h, w, s, b), 0)
            assert feature_major[0].flags.f_contiguous and not row_major[0].flags.f_contiguous
            assert (feature_major[0] == 0.0).any() and (feature_major[0] > 0.0).any()  # the ReLU mask matters
            for got, *wants in zip(feature_major, row_major, chain):
                for want in wants:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("arch, eps, bias", CONV_VARIANTS)
    def test_feature_major_passes_finite_differences(self, monkeypatch, arch, eps, bias):
        monkeypatch.setattr(T, "FEATURE_MAJOR_MIN", 0)
        rng = np.random.default_rng(31)
        op = make_batch(case_graphs(rng, "with-isolated-node")).operator(arch, eps)
        for width in (2, 7):  # propagated before W's 5 columns, then after them
            params = [Tensor(rng.normal(size=shape), requires_grad=True)
                      for shape in [(op.n, width), (width, 5)] + [(5,)] * bias]
            probe = Tensor(rng.normal(size=(op.n, 5)))

            def f(ps):
                return T.sum(T.mul(T.graph_conv(ps[0], ps[1], op, ps[2] if bias else None), probe))

            result = finite_diff_check(f, params)
            assert result["passed"], result

    @pytest.mark.parametrize("f, h", [(2, 32), (32, 2)])
    def test_layout_switches_at_the_threshold(self, f, h):
        """A path of E / 2 edges: E x max(F, H) one edge pair below FEATURE_MAJOR_MIN stays row-major."""
        for pairs, layout in ((T.FEATURE_MAJOR_MIN // 64 - 1, "C_CONTIGUOUS"), (T.FEATURE_MAJOR_MIN // 64, "F_CONTIGUOUS")):
            path = Graph(pairs + 1, np.stack([np.arange(pairs), np.arange(1, pairs + 1)], axis=1), np.ones((pairs + 1, f)))
            op = make_batch([path]).operator("gcn")
            out = T.graph_conv(Tensor(path.node_features), Tensor(np.ones((f, h))), op).data
            assert op.src.size * 32 - T.FEATURE_MAJOR_MIN in (-64, 0)
            assert out.flags[layout] and out.flags.c_contiguous != out.flags.f_contiguous

    def test_constant_input_needs_no_gradient(self):
        rng = np.random.default_rng(28)
        batch = make_batch(case_graphs(rng, "connected"))
        n = batch.features.shape[0]
        for arch, eps, bias in CONV_VARIANTS:
            h, w = Tensor(rng.normal(size=(n, 2))), Tensor(rng.normal(size=(2, 6)), requires_grad=True)
            b = Tensor(rng.normal(size=6), requires_grad=True) if bias else None
            T.backward(T.sum(T.graph_conv(h, w, batch.operator(arch, eps), b)))
            assert h.grad is None and w.grad.shape == (2, 6) and (b is None or b.grad.shape == (6,))

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(29)
        graphs = case_graphs(rng, "with-isolated-node")
        batch = make_batch(graphs)
        for arch, eps, bias in CONV_VARIANTS:
            h = Tensor(rng.normal(size=(batch.features.shape[0], 2)), requires_grad=True)
            w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=3), requires_grad=True) if bias else None
            with T.no_grad():
                out = T.graph_conv(h, w, batch.operator(arch, eps), b)
                want = self.chain(h, w, dense_operator(graphs, arch, eps), b)
            assert T.tape_size() == 0 and not out.requires_grad
            np.testing.assert_allclose(out.data, want.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("h_shape, w_shape", [((4, 2), (2, 3)), ((3, 2), (3, 3)), ((3, 2), (2,)), ((3,), (1, 3))])
    def test_wrong_shapes_rejected(self, h_shape, w_shape):
        op = make_batch([EDGELESS]).operator("gcn")
        with pytest.raises(ValueError, match="graph_conv"):
            T.graph_conv(Tensor(np.ones(h_shape)), Tensor(np.ones(w_shape)), op)

    @pytest.mark.parametrize("b_shape", [(2,), (1, 3), (3, 1), ()])
    def test_wrong_bias_shape_rejected(self, b_shape):
        op = make_batch([EDGELESS]).operator("gin")
        with pytest.raises(ValueError, match="graph_conv"):
            T.graph_conv(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 3))), op, Tensor(np.ones(b_shape)))

    def test_encode_keeps_only_layer_outputs_until_backward(self):
        # 3 layers x 32 columns on ~4,000 nodes: each n x 32 table is about 1 MB. A GCN layer keeps only
        # its output, a GIN layer its graph_conv, matmul and add outputs; one that also kept its
        # intermediates (the aggregate, the pre-ReLU sum) would hold about twice as much.
        rng = np.random.default_rng(30)
        batch = make_batch([random_connected_graph(rng, n_min=380, n_max=420, extra_frac=1.0) for _ in range(10)])
        assert 3800 <= batch.features.shape[0] <= 4200
        table = batch.features.shape[0] * 32 * 8
        for arch, bound in (("gcn", 1.5 * 3), ("gin", 10.5)):
            params = init_params(EncoderConfig(arch=arch, num_layers=3, hidden_dim=32), 2, 0, rng)
            with T.no_grad():  # builds the operator, and its row-major scatter keys if any
                encode(batch, params)
            tracemalloc.start()
            try:
                pooled = encode(batch, params)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            T.backward(T.sum(pooled))
            assert held < bound * table, f"{arch}: {held / table:.2f} n x 32 tables held before backward"

    def test_feature_major_encode_holds_no_edge_by_width_table(self):
        # The first encode of a batch above FEATURE_MAJOR_MIN, its operator built inside the measurement,
        # holds its layer outputs (3 n x 32 tables with GCN, 9 with GIN) and less than half of one E x 32
        # table besides; row-major scatter keys and message buffers for widths 2 and 32 held 2.1 to 2.2.
        rng = np.random.default_rng(32)
        graphs = [random_connected_graph(rng, n_min=380, n_max=420, extra_frac=1.0) for _ in range(10)]
        for arch, outputs in (("gcn", 3), ("gin", 9)):
            batch = make_batch(graphs)
            n, e = batch.features.shape[0], batch.src.size
            assert e * 32 >= T.FEATURE_MAJOR_MIN and e > 3 * n
            params = init_params(EncoderConfig(arch=arch, num_layers=3, hidden_dim=32), 2, 0, rng)
            tracemalloc.start()
            try:
                pooled = encode(batch, params)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            T.backward(T.sum(pooled))
            extra = (held - outputs * n * 32 * 8) / (e * 32 * 8)
            assert extra < 0.5, f"{arch}: {extra:.2f} E x 32 tables held besides the layer outputs"


class TestTapeOps:
    def test_one_gcn_layer_records_one_op(self):
        rng = np.random.default_rng(23)
        batch = make_batch([random_connected_graph(rng, n_min=5, n_max=8)])
        out = gcn_layer(Tensor(batch.features), batch, Tensor(rng.normal(size=(2, 4)), requires_grad=True))
        assert T.tape_size() == 1  # graph_conv
        T.backward(T.sum(out))

    def test_one_gin_layer_records_three_ops(self):
        rng = np.random.default_rng(24)
        batch = make_batch([random_connected_graph(rng, n_min=5, n_max=8)])
        mlp = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((2, 4), 4, (4, 4), 4)]
        out = gin_layer(Tensor(batch.features, requires_grad=True), batch, *mlp, eps=0.1)
        assert T.tape_size() == 3  # graph_conv, matmul, add
        T.backward(T.sum(out))

    @pytest.mark.parametrize("arch, ops", [("gcn", 22), ("gin", 34)])
    def test_three_layer_pretrain_step(self, arch, ops):
        rng = np.random.default_rng(25)
        params = init_params(EncoderConfig(arch=arch, num_layers=3, hidden_dim=8), 2, 0, rng)
        views = [make_batch([random_connected_graph(rng) for _ in range(4)]) for _ in range(2)]
        z_i, z_j = (project(encode(batch, params), params) for batch in views)
        loss = nt_xent(z_i, z_j, 0.5)
        assert T.tape_size() == ops
        T.backward(loss)


def view_test_graphs(rng):
    """Random connected graphs, the same with isolated nodes appended, edgeless graphs and 1-node graphs."""
    graphs = []
    for _ in range(12):
        g = random_connected_graph(rng, n_min=2, n_max=14, feature_dim=3)
        graphs.append(g)
        extra = int(rng.integers(1, 4))
        feats = np.vstack([g.node_features, rng.normal(size=(extra, 3))])
        graphs.append(Graph(g.num_nodes + extra, g.edges, feats))
    for n in (1, 1, 2, 5):
        graphs.append(Graph(n, np.zeros((0, 2), dtype=np.int64), rng.normal(size=(n, 3))))
    return [graphs[i] for i in rng.permutation(len(graphs))]


ALL_KINDS_POOL = AugmentationPool((
    AugmentationSpec("Identity"),
    AugmentationSpec("NodeDrop", 0.3, 1.5),
    AugmentationSpec("EdgePerturb", 0.3),
    AugmentationSpec("AttrMask", 0.4, -2.0),
    AugmentationSpec("Subgraph", 0.3),
))


class TestViewBatch:
    """view_batch cuts each side's views out of one pack from the draws alone; it must give the batch that
    make_batch builds from sample_view_pair's Graphs, drawn from the same streams, exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cut_views_equal_built_views(self, seed):
        rng = np.random.default_rng(seed)
        graphs, draws, views = [], [], []
        for k, g in enumerate(view_test_graphs(rng)):
            try:
                draws.append(sample_view_pair(ALL_KINDS_POOL, ALL_KINDS_POOL, g, np.random.default_rng((seed, k)),
                                              draw_view))
            except AugmentationError:
                with pytest.raises(AugmentationError):  # the built views fail alike
                    sample_view_pair(ALL_KINDS_POOL, ALL_KINDS_POOL, g, np.random.default_rng((seed, k)))
                continue
            graphs.append(g)
            views.append(sample_view_pair(ALL_KINDS_POOL, ALL_KINDS_POOL, g, np.random.default_rng((seed, k))))
        assert len(graphs) >= 20
        pack = make_batch(graphs)
        for side in (0, 1):
            cut = view_batch(pack, [d[side] for d in draws])
            built = make_batch([v[side] for v in views])
            assert np.array_equal(cut.features, built.features)
            assert np.array_equal(cut.segments, built.segments)
            assert np.array_equal(cut.node_counts, built.node_counts) and cut.num_graphs == built.num_graphs
            for arch in ("gcn", "gin"):
                params = init_params(EncoderConfig(arch=arch, hidden_dim=8, gin_eps=0.25), 3, 0,
                                     np.random.default_rng(seed))
                encoder = [t for name, t in params.tensors.items() if name.startswith("enc")]
                outs, grads = [], []
                for batch in (cut, built):
                    for t in encoder:
                        t.grad = None
                    outs.append(encode(batch, params))
                    T.backward(T.sum(T.mul(outs[-1], Tensor(np.arange(outs[-1].data.size).reshape(-1, 8)))))
                    grads.append([t.grad for t in encoder])
                assert np.array_equal(outs[0].data, outs[1].data), arch
                assert all(np.array_equal(a, b) for a, b in zip(*grads)), arch

    def test_every_kind_is_drawn(self):
        kinds = set()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for k, g in enumerate(view_test_graphs(rng)):
                pair_rng = np.random.default_rng((seed, k))
                kinds.update(ALL_KINDS_POOL.specs[int(pair_rng.integers(len(ALL_KINDS_POOL)))].kind for _ in range(2))
        assert kinds == {spec.kind for spec in ALL_KINDS_POOL.specs}

    def test_unchanged_views_are_the_pack(self):
        pack = make_batch(view_test_graphs(np.random.default_rng(9)))
        assert view_batch(pack, [ViewDraw()] * pack.num_graphs) is pack


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
        loss = T.cross_entropy(logits, np.zeros(5, dtype=np.int64))
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
