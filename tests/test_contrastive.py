import logging

import numpy as np
import pytest

from gcl.augment import AugmentationPool, AugmentationSpec, default_pool
from gcl.contrastive import LossCurve, PretrainConfig, contrastive_loss, cosine_sim, nt_xent, pretrain
from gcl.graphs import Graph, GraphDataset
from gcl.model import EncoderConfig, encode, make_batch, project
from gcl.synth import make_corpus
from gcl.tensor import Tensor, finite_diff_check, no_grad


def identity_pool():
    return AugmentationPool(specs=(AugmentationSpec(kind="Identity"),))


class TestCosineSim:
    def test_parallel(self):
        assert cosine_sim([3.0, 4.0], [3.0, 4.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_forty_five_degrees(self):
        assert cosine_sim([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector_convention(self):
        assert cosine_sim([0.0, 0.0], [1.0, 2.0]) == 0.0


class TestNTXent:
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_identical_embeddings_closed_form(self, n, tau):
        rng = np.random.default_rng(n)
        row = rng.normal(size=4)
        z = Tensor(np.tile(row, (n, 1)))
        loss = nt_xent(z, z, tau, "exclusive").item()
        assert loss == pytest.approx(np.log(n - 1), abs=1e-9)

    def test_orthogonal_n2_is_minus_one(self):
        z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert nt_xent(z, z, 1.0, "exclusive").item() == pytest.approx(-1.0, abs=1e-9)

    def test_n1_rejected(self):
        z = Tensor(np.ones((1, 3)))
        with pytest.raises(ValueError):
            nt_xent(z, z, 0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        zi, zj = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        base = nt_xent(Tensor(zi), Tensor(zj), 0.5).item()
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        rescaled = nt_xent(Tensor(zi * scales), Tensor(zj), 0.5).item()
        assert rescaled == pytest.approx(base, abs=1e-9)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(1)
        zi, zj = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        base = nt_xent(Tensor(zi), Tensor(zj), 0.5).item()
        permuted = nt_xent(Tensor(zi[perm]), Tensor(zj[perm]), 0.5).item()
        assert permuted == pytest.approx(base, abs=1e-9)

    def test_inclusive_at_least_exclusive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            zi, zj = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
            tau = float(rng.uniform(0.1, 2.0))
            excl = nt_xent(Tensor(zi), Tensor(zj), tau, "exclusive").item()
            incl = nt_xent(Tensor(zi), Tensor(zj), tau, "inclusive").item()
            assert incl >= excl - 1e-12

    def test_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(3)
        for variant in ("exclusive", "inclusive"):
            zi = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            zj = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

            def f(ps, v=variant):
                return nt_xent(ps[0], ps[1], 0.5, v)

            assert finite_diff_check(f, [zi, zj])["passed"]

    @pytest.mark.parametrize("variant", ["exclusive", "inclusive"])
    def test_symmetric_averages_both_anchorings(self, variant):
        rng = np.random.default_rng(5)
        zi = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        zj = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        config = PretrainConfig(temperature=0.5, loss_variant=variant, symmetric=True)
        with no_grad():
            expected = 0.5 * (nt_xent(zi, zj, 0.5, variant).item() + nt_xent(zj, zi, 0.5, variant).item())
            assert contrastive_loss(zi, zj, config).item() == pytest.approx(expected, abs=1e-12)
        assert finite_diff_check(lambda ps: contrastive_loss(ps[0], ps[1], config), [zi, zj])["passed"]

    def test_tiny_temperature_stays_finite(self):
        rng = np.random.default_rng(4)
        zi, zj = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        loss = nt_xent(Tensor(zi), Tensor(zj), 0.001, "exclusive").item()
        assert np.isfinite(loss)


class TestPretrain:
    def _dataset(self, n=12, seed=0):
        return make_corpus(n, families=("cycle", "star"), size_range=(6, 9), seed=seed)

    def test_identity_pools_give_unit_positive_similarity(self):
        ds = self._dataset()
        cfg = PretrainConfig(batch_size=6, epochs=1, pool_i=identity_pool(), pool_j=identity_pool(), seed=1)
        params, curve = pretrain(ds, cfg, EncoderConfig(hidden_dim=8))
        batch = make_batch(list(ds.graphs[:6]))
        z = project(encode(batch, params), params).data
        for row in range(z.shape[0]):
            assert cosine_sim(z[row], z[row]) == pytest.approx(1.0)
        assert len(curve) == 1

    def test_fixed_seed_bit_identical_curves(self):
        ds = self._dataset()
        cfg = PretrainConfig(batch_size=6, epochs=3, pool_i=default_pool("synthetic"),
                             pool_j=default_pool("synthetic"), seed=7)
        _, c1 = pretrain(ds, cfg, EncoderConfig(hidden_dim=8))
        _, c2 = pretrain(ds, cfg, EncoderConfig(hidden_dim=8))
        assert c1.losses == c2.losses

    def test_loss_descends_on_synthetic_corpus(self):
        ds = make_corpus(30, families=("cycle", "star", "clique"), seed=3)
        cfg = PretrainConfig(batch_size=16, epochs=20, pool_i=default_pool("synthetic"),
                             pool_j=default_pool("synthetic"), seed=5)
        _, curve = pretrain(ds, cfg, EncoderConfig(hidden_dim=16))
        assert curve.losses[-1] < curve.losses[0]

    def test_degenerate_graph_skipped_with_warning(self, caplog):
        single_node = Graph(1, np.zeros((0, 2), dtype=np.int64), np.ones((1, 2)))
        normal = make_corpus(6, families=("cycle",), size_range=(6, 8), seed=9)
        graphs = tuple(normal.graphs) + (single_node,)
        ds = GraphDataset(graphs, "mixed", "synthetic", 1, 2)
        drop_pool = AugmentationPool(specs=(AugmentationSpec(kind="NodeDrop", ratio=0.2),))
        cfg = PretrainConfig(batch_size=7, epochs=1, pool_i=drop_pool, pool_j=drop_pool, seed=2)
        with caplog.at_level(logging.WARNING):
            _, curve = pretrain(ds, cfg, EncoderConfig(hidden_dim=4))
        assert len(curve) == 1
        assert any("skipping graph" in rec.message for rec in caplog.records)

    def test_batch_of_one_after_skips_is_dropped(self):
        # every graph degenerate -> no trainable minibatch -> hard error
        g = Graph(1, np.zeros((0, 2), dtype=np.int64), np.ones((1, 2)))
        ds = GraphDataset((g, g), "degenerate", "synthetic", 1, 2)
        drop_pool = AugmentationPool(specs=(AugmentationSpec(kind="NodeDrop", ratio=0.2),))
        cfg = PretrainConfig(batch_size=2, epochs=1, pool_i=drop_pool, pool_j=drop_pool)
        with pytest.raises(ValueError):
            pretrain(ds, cfg, EncoderConfig(hidden_dim=4))

    def test_loss_curve_validations(self):
        with pytest.raises(ValueError):
            LossCurve(losses=(np.nan,))
        with pytest.raises(ValueError):
            PretrainConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            PretrainConfig(batch_size=1)
