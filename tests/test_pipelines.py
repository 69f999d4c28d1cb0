import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

import gcl.tensor as T
from gcl import pipelines
from gcl.augment import AugmentationPool, AugmentationSpec
from gcl.contrastive import PretrainConfig, pretrain
from gcl.model import EncoderConfig, accuracy, init_params
from gcl.pipelines import (
    EvalReport,
    ExperimentBase,
    SplitSpec,
    aug_grid,
    check_split,
    embed_dataset,
    finetune,
    linear_probe,
    loss_curve_compare,
    pattern_sweep,
    strength_sweep,
    stratified_folds,
    train_from_scratch,
)
from gcl.synth import make_corpus


class CellFailure(Exception):
    """Raised by a patched pretrain inside a worker process."""


def small_base(seed=0, epochs=2, folds=2, label_rate=0.5):
    return ExperimentBase(
        encoder=EncoderConfig(arch="gin", num_layers=2, hidden_dim=8),
        pretrain=PretrainConfig(batch_size=8, epochs=epochs, seed=seed),
        split=SplitSpec(label_rate=label_rate, folds=folds, seed=seed),
        finetune_epochs=3,
        finetune_lr=0.01,
    )


class TestFolds:
    def test_folds_partition_everything(self):
        labels = np.array([0, 1] * 10)
        folds = stratified_folds(labels, 4, seed=0)
        combined = np.concatenate(folds)
        assert sorted(combined.tolist()) == list(range(20))

    def test_stratification_balances_classes(self):
        labels = np.array([0] * 12 + [1] * 8)
        for fold in stratified_folds(labels, 4, seed=1):
            counts = np.bincount(labels[fold], minlength=2)
            assert counts[0] == 3 and counts[1] == 2

    def test_split_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(label_rate=0.0)
        with pytest.raises(ValueError):
            SplitSpec(folds=1)

    def test_folds_that_would_be_empty_rejected(self):
        # A stratified deal puts each class's f-th member into fold f, so 7 folds of 6 + 6 graphs leave fold 6 empty.
        ds = make_corpus(12, families=("cycle", "star"), seed=6)
        params = init_params(EncoderConfig(hidden_dim=4), ds.feature_dim, 2, np.random.default_rng(0))
        emb = np.random.default_rng(1).normal(size=(12, 3))
        with pytest.raises(ValueError, match="folds = 7 .*the largest class has 6 graphs"):
            finetune(params, ds, SplitSpec(label_rate=0.5, folds=7), epochs=1)
        with pytest.raises(ValueError, match="folds = 7 .*the largest class has 6 graphs"):
            linear_probe(emb, ds.labels, folds=7)
        with pytest.raises(ValueError, match="folds = 13 .*there are 12 graphs"):
            finetune(params, ds, SplitSpec(label_rate=0.5, folds=13, stratified=False), epochs=1)
        plain = finetune(params, ds, SplitSpec(label_rate=0.5, folds=7, stratified=False), epochs=1)
        assert len(plain.fold_accuracies) == 7

    def test_probe_inner_split_reads_only_its_first_fold(self):
        # Each 2-fold training split holds 3 graphs per class, fewer than the 5 inner folds: only inner fold 0 is read.
        labels = make_corpus(12, families=("cycle", "star"), seed=6).labels
        report = linear_probe(np.random.default_rng(1).normal(size=(12, 3)), labels, folds=2)
        assert len(report.fold_accuracies) == 2


    def test_probe_training_folds_too_small_for_the_inner_split_rejected(self):
        # 4 + 4 graphs in 2 folds leave 4 training graphs a fold, and the inner split deals them into 5 folds.
        labels = make_corpus(8, families=("cycle", "star"), seed=6).labels
        message = "folds = 2 leaves 4 graphs in a training fold, too few for its inner split"
        with pytest.raises(ValueError, match=message):
            linear_probe(np.random.default_rng(1).normal(size=(8, 3)), labels, folds=2)
        with pytest.raises(ValueError, match=message):
            check_split(labels, 2, stratified=False, probe=True)
        check_split(labels, 2, stratified=False)  # finetune has no inner split
        report = linear_probe(np.random.default_rng(1).normal(size=(11, 3)), np.arange(11) % 2, folds=2)
        assert len(report.fold_accuracies) == 2  # fold 0 holds 3 + 3 of the 6 + 5 graphs, leaving 5 to train on


class TestFinetune:
    def test_separable_corpus_full_labels(self):
        ds = make_corpus(60, families=("star", "clique"), size_range=(8, 14), seed=2)
        split = SplitSpec(label_rate=1.0, folds=3, seed=0)
        report = train_from_scratch(ds, split, epochs=30, lr=0.01,
                                    encoder_config=EncoderConfig(arch="gin", hidden_dim=16))
        assert all(acc >= 0.95 for acc in report.fold_accuracies)

    def test_untrained_params_give_valid_report(self):
        ds = make_corpus(20, families=("cycle", "star"), seed=3)
        params = init_params(EncoderConfig(hidden_dim=8), ds.feature_dim, ds.num_classes,
                             np.random.default_rng(1))
        report = finetune(params, ds, SplitSpec(label_rate=0.5, folds=2, seed=1), epochs=2, lr=0.01)
        assert len(report.fold_accuracies) == 2
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)
        assert report.mean == pytest.approx(np.mean(report.fold_accuracies))
        assert report.std == pytest.approx(np.std(report.fold_accuracies, ddof=1))

    def test_training_under_no_grad_is_rejected(self):
        # A loss off the tape would leave every parameter untrained.
        ds = make_corpus(20, families=("cycle", "star"), seed=4)
        base = small_base(seed=1)
        with T.no_grad():
            with pytest.raises(ValueError, match="recorded on the tape"):
                pretrain(ds, base.pretrain, base.encoder)
            with pytest.raises(ValueError, match="recorded on the tape"):
                train_from_scratch(ds, base.split, base.finetune_epochs, base.finetune_lr, base.encoder,
                                   base.finetune_batch)

    def test_fixed_seed_reproducible(self):
        ds = make_corpus(20, families=("cycle", "star"), seed=4)
        params = init_params(EncoderConfig(hidden_dim=8), ds.feature_dim, ds.num_classes,
                             np.random.default_rng(2))
        split = SplitSpec(label_rate=0.5, folds=2, seed=5)
        a = finetune(params, ds, split, epochs=2, lr=0.01)
        b = finetune(params, ds, split, epochs=2, lr=0.01)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.config == b.config

    def test_leaves_the_pretrained_params_bit_identical(self):
        # Adam updates parameter data in place, so finetune must train a copy.
        ds = make_corpus(20, families=("cycle", "star"), seed=4)
        for arch in ("gcn", "gin"):
            params = init_params(EncoderConfig(arch=arch, hidden_dim=8), ds.feature_dim, ds.num_classes,
                                 np.random.default_rng(3))
            before = {name: t.data.tobytes() for name, t in params.tensors.items()}
            finetune(params, ds, SplitSpec(label_rate=0.5, folds=2, seed=5), epochs=2, lr=0.01)
            assert {name: t.data.tobytes() for name, t in params.tensors.items()} == before

    def test_unlabeled_dataset_rejected(self):
        ds = make_corpus(8, families=("cycle",), seed=5)  # single class
        params = init_params(EncoderConfig(hidden_dim=4), ds.feature_dim, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            finetune(params, ds, SplitSpec(label_rate=0.5, folds=2))

    def test_class_missing_from_fold_warns_and_proceeds(self, caplog):
        import logging

        from gcl.graphs import Graph, GraphDataset

        base = make_corpus(12, families=("cycle", "star"), seed=6)
        # relabel one lone graph as a third class: with 2 folds it is absent
        # from one training fold, which must warn rather than fail
        graphs = list(base.graphs)
        lone = graphs[0]
        graphs[0] = Graph(lone.num_nodes, lone.edges, lone.node_features, 2)
        ds = GraphDataset(tuple(graphs), "x", "synthetic", 3, base.feature_dim)
        params = init_params(EncoderConfig(hidden_dim=4), ds.feature_dim, 3, np.random.default_rng(1))
        with caplog.at_level(logging.WARNING):
            report = finetune(params, ds, SplitSpec(label_rate=0.5, folds=2, seed=0), epochs=1, lr=0.01)
        assert len(report.fold_accuracies) == 2
        assert any("no graphs in this training fold" in r.message for r in caplog.records)


class TestEmbed:
    def test_identical_graphs_identical_rows(self):
        ds = make_corpus(6, families=("cycle",), size_range=(7, 7), seed=6)
        g = ds.graphs[0]
        from gcl.graphs import GraphDataset

        dup = GraphDataset((g, g, g), "dup", "synthetic", 1, ds.feature_dim)
        params = init_params(EncoderConfig(hidden_dim=8), ds.feature_dim, 1, np.random.default_rng(3))
        emb = embed_dataset(params, dup)
        assert np.array_equal(emb[0], emb[1]) and np.array_equal(emb[1], emb[2])

    def test_row_count_and_dim(self, monkeypatch):
        ds = make_corpus(9, families=("cycle", "star"), seed=7)
        params = init_params(EncoderConfig(hidden_dim=8), ds.feature_dim, 2, np.random.default_rng(4))
        whole = embed_dataset(params, ds)
        monkeypatch.setattr(pipelines, "EVAL_CHUNK", 4)
        emb = embed_dataset(params, ds)
        assert emb.shape == (9, 8)
        np.testing.assert_allclose(emb, whole, atol=1e-12)

    def test_dataset_permutation_permutes_rows(self):
        ds = make_corpus(8, families=("cycle", "star"), seed=8)
        params = init_params(EncoderConfig(hidden_dim=8), ds.feature_dim, 2, np.random.default_rng(5))
        emb = embed_dataset(params, ds)
        from gcl.graphs import GraphDataset

        perm = [3, 1, 0, 2, 7, 6, 5, 4]
        permuted = GraphDataset(tuple(ds.graphs[i] for i in perm), "p", "synthetic", 2, ds.feature_dim)
        emb_p = embed_dataset(params, permuted)
        np.testing.assert_allclose(emb_p, emb[perm], atol=1e-12)


class TestLinearProbe:
    def test_separable_embeddings(self):
        rng = np.random.default_rng(0)
        emb = np.vstack([rng.normal(size=(30, 4)) + 4.0, rng.normal(size=(30, 4)) - 4.0])
        labels = np.array([0] * 30 + [1] * 30)
        assert linear_probe(emb, labels, folds=5, seed=1).mean == 1.0

    def test_permuted_labels_near_chance(self):
        # permutation-null oracle: mean accuracy over 5 permutation seeds
        # (single seeds wander +-0.12 on 100 samples; the mean concentrates)
        rng = np.random.default_rng(0)
        emb = np.vstack([rng.normal(size=(50, 4)) + 4.0, rng.normal(size=(50, 4)) - 4.0])
        labels = np.array([0] * 50 + [1] * 50)
        accs = [
            linear_probe(emb, np.random.default_rng(seed).permutation(labels), folds=5, seed=seed).mean
            for seed in range(5)
        ]
        assert abs(np.mean(accs) - 0.5) <= 0.1

    def test_constant_embeddings_hit_majority(self):
        emb = np.ones((60, 4))
        labels = np.array([0] * 40 + [1] * 20)
        acc = linear_probe(emb, labels, folds=5, seed=1).mean
        assert acc == pytest.approx(2 / 3, abs=0.02)

    def test_leakage_guard_on_permuted_labels(self):
        ds = make_corpus(40, families=("cycle", "star"), seed=9)
        params = init_params(EncoderConfig(hidden_dim=8), ds.feature_dim, 2, np.random.default_rng(6))
        emb = embed_dataset(params, ds)
        majority = 0.5
        for seed in range(5):
            labels = np.random.default_rng(seed).permutation(ds.labels)
            acc = linear_probe(emb, labels, folds=4, seed=seed).mean
            assert acc <= majority + 0.15

    def test_single_class_fold_rejected(self):
        emb = np.random.default_rng(2).normal(size=(10, 3))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            linear_probe(emb, labels, folds=2, seed=0)

    def test_reproducible(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(24, 5))
        labels = np.array([0, 1] * 12)
        a = linear_probe(emb, labels, folds=3, seed=4)
        b = linear_probe(emb, labels, folds=3, seed=4)
        assert a.fold_accuracies == b.fold_accuracies

    def test_grid_order_does_not_change_the_report(self):
        # the 10.0 and 0.01 fits tie on validation; the smaller strength wins in either order
        rng = np.random.default_rng(0)
        emb = np.vstack([rng.normal(size=(30, 4)) + 1.0, rng.normal(size=(30, 4)) - 1.0])
        labels = np.array([0] * 30 + [1] * 30)
        a = linear_probe(emb, labels, folds=3, seed=1, l2_grid=(10.0, 0.01))
        b = linear_probe(emb, labels, folds=3, seed=1, l2_grid=(0.01, 10.0))
        assert a.fold_accuracies == b.fold_accuracies == (0.95, 0.95, 0.95)
        assert a.config["selected_l2"] == b.config["selected_l2"] == [0.01, 0.01, 0.01]

    @pytest.mark.parametrize("grid", [(), (0.1, -1.0), (1.0, float("nan")), (float("inf"),)])
    def test_bad_l2_grid_rejected_before_any_fit(self, grid, monkeypatch):
        monkeypatch.setattr(pipelines, "_fit_logreg", lambda *a: pytest.fail("a fit ran"))
        emb = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError, match="l2_grid") as err:
            linear_probe(emb, np.arange(20) % 2, folds=2, l2_grid=grid)
        assert repr(grid) in str(err.value)

    @pytest.mark.parametrize("emb,labels", [(np.zeros(8), np.arange(8) % 2), (np.zeros((8, 2)), np.arange(7) % 2),
                                            (np.zeros((8, 2)), np.arange(8) % 2 - 1)])
    def test_malformed_inputs_rejected(self, emb, labels):
        with pytest.raises(ValueError, match="linear_probe needs"):
            linear_probe(emb, labels, folds=2)

    def test_nan_embeddings_raise(self):
        emb = np.random.default_rng(0).normal(size=(20, 3))
        emb[4, 1] = np.nan
        with pytest.raises(FloatingPointError):
            linear_probe(emb, np.arange(20) % 2, folds=2)

    def test_leaves_the_tape_alone(self):
        emb = np.random.default_rng(1).normal(size=(24, 3))
        labels = np.arange(24) % 3
        x = T.Tensor(np.ones(2), requires_grad=True)
        loss = T.sum(T.mul(x, x))
        before = T.tape_size()
        report = linear_probe(emb, labels, folds=3)
        assert T.tape_size() == before
        T.backward(loss)
        with T.no_grad():
            assert linear_probe(emb, labels, folds=3).fold_accuracies == report.fold_accuracies


def _tape_fit_logreg(x, y, num_classes, l2, steps=300, lr=0.1):
    """The probe's former fit, one (fold, strength) at a time through the tape: the reference."""
    n, d = x.shape
    w = T.Tensor(np.zeros((d, num_classes)), requires_grad=True)
    b = T.Tensor(np.zeros(num_classes), requires_grad=True)
    xt = T.Tensor(x)
    optimizer = T.Adam([w, b], lr=lr)
    for _ in range(steps):
        logits = T.add(T.matmul(xt, w), b)
        penalty = T.mul(T.sum(T.mul(w, w)), T.Tensor(l2 / (2.0 * n)))
        loss = T.add(T.cross_entropy(logits, y), penalty)
        optimizer.zero_grad()
        T.backward(loss)
        optimizer.step()
    return w.data, b.data


def _reference_probe(x, y, folds, seed, l2_grid):
    """linear_probe's former per-fold loop over `_tape_fit_logreg`, ascending grid."""
    num_classes = int(y.max()) + 1
    accs = []
    for f, test_idx in enumerate(stratified_folds(y, folds, seed)):
        train_idx = np.setdiff1d(np.arange(y.size), test_idx)
        mu, sd = x[train_idx].mean(axis=0), x[train_idx].std(axis=0)
        sd[sd == 0.0] = 1.0
        xs = (x - mu) / sd
        inner_test = stratified_folds(y[train_idx], 5, seed + 31 * (f + 1))[0]
        inner_train = np.setdiff1d(np.arange(train_idx.size), inner_test)
        xf, yf = xs[train_idx], y[train_idx]
        best_l2, best_acc = None, -1.0
        for l2 in sorted(l2_grid):
            w, b = _tape_fit_logreg(xf[inner_train], yf[inner_train], num_classes, l2)
            val = accuracy(xf[inner_test] @ w + b, yf[inner_test])
            if val > best_acc:
                best_l2, best_acc = l2, val
        w, b = _tape_fit_logreg(xf, yf, num_classes, best_l2)
        accs.append(accuracy(xs[test_idx] @ w + b, y[test_idx]))
    return tuple(accs)


def _probe_input(seed, classes):
    """Unevenly sized classes, so folds differ in size, and a constant first column."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(int(rng.integers(31, 47))) % classes)
    x = rng.normal(size=(y.size, 4)) + 0.8 * rng.normal(size=(classes, 4))[y]
    x[:, 0] = 2.5
    return x, y


CASES = [(2, (1.0,)), (3, (0.01, 10.0)), (4, (0.1, 3.0, 0.01)), (2, (10.0, 0.01, 1.0, 0.1)), (3, (0.1, 1.0))]


class TestProbeSolver:
    @pytest.mark.parametrize("classes,grid", CASES)
    def test_weights_match_the_tape_fit(self, classes, grid):
        parts = [_probe_input(10 * classes + f, classes) for f in range(3)]
        assert len({y.size for _, y in parts}) > 1  # unequal folds
        w, b = pipelines._fit_logreg(parts, classes, np.broadcast_to(np.array(grid), (3, len(grid))))
        assert w.shape == (3, len(grid), classes, 4) and b.shape == (3, len(grid), classes, 1)
        for f, (x, y) in enumerate(parts):
            for i, l2 in enumerate(grid):
                w_ref, b_ref = _tape_fit_logreg(x, y, classes, l2)
                np.testing.assert_allclose(w[f, i], w_ref.T, rtol=1e-7, atol=1e-7 * np.abs(w_ref).max())
                np.testing.assert_allclose(b[f, i, :, 0], b_ref, rtol=1e-7, atol=1e-7 * np.abs(b_ref).max())

    @pytest.mark.parametrize("classes,grid", CASES)
    def test_fold_accuracies_equal_the_tape_probe(self, classes, grid):
        x, y = _probe_input(classes + len(grid), classes)
        folds = 3 if classes < 4 else 2
        report = linear_probe(x, y, folds=folds, seed=classes, l2_grid=grid)
        assert report.fold_accuracies == _reference_probe(x, y, folds, classes, grid)
        assert len(report.config["selected_l2"]) == folds
        assert set(report.config["selected_l2"]) <= set(grid)


class TestGridAndSweeps:
    def test_grid_shape_and_identity_completion(self):
        ds = make_corpus(16, families=("cycle", "star"), seed=10)
        result = aug_grid(ds, ["NodeDrop"], small_base(), ratio=0.2)
        assert result.kinds == ("NodeDrop", "Identity")
        assert result.accuracies.shape == (2, 2)
        assert np.array_equal(result.accuracies, result.accuracies.T)
        assert len(result.reports) == 3  # unordered pairs incl. both diagonals
        assert np.allclose(result.gains, result.accuracies - result.scratch.mean)

    def test_grid_cell_matches_direct_run(self):
        ds = make_corpus(16, families=("cycle", "star"), seed=11)
        base = small_base(seed=3)
        result = aug_grid(ds, ["AttrMask"], base, ratio=0.2)
        pool_a = AugmentationPool(specs=(AugmentationSpec(kind="AttrMask", ratio=0.2),))
        pool_b = AugmentationPool(specs=(AugmentationSpec(kind="Identity", ratio=0.2),))
        cfg = dataclasses.replace(base.pretrain, pool_i=pool_a, pool_j=pool_b)
        params, _ = pretrain(ds, cfg, base.encoder)
        direct = finetune(params, ds, base.split, base.finetune_epochs, base.finetune_lr, base.finetune_batch)
        grid_report = result.reports[("AttrMask", "Identity")]
        assert grid_report.fold_accuracies == direct.fold_accuracies

    def test_strength_sweep_rows_and_ratio_zero_equivalence(self):
        ds = make_corpus(16, families=("cycle", "star"), seed=12)
        base = small_base(seed=4)
        points = strength_sweep(ds, "AttrMask", [0.0, 0.2], base, seeds=(4,))
        assert len(points) == 2
        # ratio 0 masking is the Identity view: must equal the Identity x Identity cell
        grid = aug_grid(ds, ["AttrMask"], base, ratio=0.2)
        identity_cell = grid.reports[("Identity", "Identity")]
        assert points[0].accuracies[0] == pytest.approx(identity_cell.mean, abs=1e-12)

    def test_strength_sweep_ratio_range_enforced(self):
        ds = make_corpus(8, families=("cycle", "star"), seed=13)
        with pytest.raises(ValueError):
            strength_sweep(ds, "AttrMask", [0.7], small_base())

    def test_pattern_sweep_alpha_zero_matches_uniform(self):
        ds = make_corpus(16, families=("cycle", "star"), seed=14)
        base = small_base(seed=5)
        pat = pattern_sweep(ds, "AttrMask", [-1.0, 0.0, 1.0], base, ratio=0.2, seeds=(5,))
        assert len(pat) == 3
        strength = strength_sweep(ds, "AttrMask", [0.2], base, seeds=(5,))
        assert pat[1].accuracies == strength[0].accuracies

    def test_pattern_sweep_kind_restriction(self):
        ds = make_corpus(8, families=("cycle", "star"), seed=15)
        with pytest.raises(ValueError):
            pattern_sweep(ds, "EdgePerturb", [0.0], small_base())

    def test_multi_seed_std_populated(self):
        ds = make_corpus(12, families=("cycle", "star"), seed=16)
        points = strength_sweep(ds, "NodeDrop", [0.2], small_base(), seeds=(0, 1))
        assert len(points[0].accuracies) == 2
        assert points[0].std >= 0.0

    def test_sweeps_reject_an_empty_list_before_any_run(self, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("a baseline ran")

        monkeypatch.setattr(pipelines, "train_from_scratch", run)
        ds = make_corpus(8, families=("cycle", "star"), seed=13)
        with pytest.raises(ValueError, match="needs 1 or more values, got 0"):
            strength_sweep(ds, "AttrMask", [], small_base())
        with pytest.raises(ValueError, match="needs 1 or more values, got 0"):
            pattern_sweep(ds, "AttrMask", [], small_base())

    def test_workers_do_not_change_sweep_points(self):
        ds = make_corpus(12, families=("cycle", "star"), seed=16)
        serial = strength_sweep(ds, "NodeDrop", [0.1, 0.3], small_base(), seeds=(0, 1))
        parallel_base = dataclasses.replace(small_base(), workers=3)
        parallel = strength_sweep(ds, "NodeDrop", [0.1, 0.3], parallel_base, seeds=(0, 1))
        assert not multiprocessing.active_children()
        assert parallel == serial

    def test_one_cell_grid_runs_its_baseline_in_a_worker(self, monkeypatch):
        def scratch(*args):  # inherited by the forked workers
            return EvalReport("scratch", (0.5,), 0.0, {"pid": os.getpid()})

        monkeypatch.setattr(pipelines, "train_from_scratch", scratch)
        ds = make_corpus(12, families=("cycle", "star"), seed=17)
        result = aug_grid(ds, [], dataclasses.replace(small_base(seed=6), workers=2))
        assert list(result.reports) == [("Identity", "Identity")]
        assert result.scratch.config["pid"] != os.getpid()
        assert not multiprocessing.active_children()

    def test_workers_do_not_change_results(self):
        ds = make_corpus(12, families=("cycle", "star"), seed=17)
        serial = aug_grid(ds, ["NodeDrop"], small_base(seed=6), ratio=0.2)
        parallel_base = dataclasses.replace(small_base(seed=6), workers=3)
        parallel = aug_grid(ds, ["NodeDrop"], parallel_base, ratio=0.2)
        assert not multiprocessing.active_children()
        assert np.array_equal(serial.accuracies, parallel.accuracies)
        assert serial.scratch.fold_accuracies == parallel.scratch.fold_accuracies
        assert serial.reports.keys() == parallel.reports.keys()
        for key, report in serial.reports.items():
            assert (report.fold_accuracies, report.config) == (
                parallel.reports[key].fold_accuracies, parallel.reports[key].config)
        pairs = [("AttrMask", "AttrMask"), ("AttrMask", "NodeDrop"), ("NodeDrop", "Identity")]
        serial_curves = loss_curve_compare(ds, pairs, small_base(seed=6))
        assert loss_curve_compare(ds, pairs, parallel_base) == serial_curves

    def test_worker_failure_reaches_the_caller_with_its_type(self, monkeypatch):
        parent = os.getpid()

        def fail(*args, **kwargs):  # inherited by the forked workers
            raise CellFailure(os.getpid())

        monkeypatch.setattr(pipelines, "pretrain", fail)
        ds = make_corpus(12, families=("cycle", "star"), seed=17)
        with pytest.raises(CellFailure) as err:
            aug_grid(ds, ["NodeDrop", "AttrMask"], dataclasses.replace(small_base(seed=6), workers=2))
        assert err.value.args[0] != parent
        assert not multiprocessing.active_children()

    def test_one_job_or_one_worker_runs_in_process(self):
        jobs = [os.getpid, os.getpid]
        assert pipelines._run_cells(jobs, 1) == [os.getpid()] * 2
        assert pipelines._run_cells(jobs[:1], 4) == [os.getpid()]
        assert os.getpid() not in pipelines._run_cells(jobs, 2)


class TestLossCompare:
    def test_curves_have_equal_length(self):
        ds = make_corpus(12, families=("cycle", "star"), seed=18)
        curves = loss_curve_compare(ds, [("AttrMask", "AttrMask"), ("AttrMask", "NodeDrop")],
                                    small_base(seed=7, epochs=3))
        assert [name for name, _ in curves] == ["AttrMask+AttrMask", "AttrMask+NodeDrop"]
        assert all(len(c) == 3 for _, c in curves)

    def test_requires_two_pairs(self):
        ds = make_corpus(8, families=("cycle", "star"), seed=19)
        with pytest.raises(ValueError):
            loss_curve_compare(ds, [("AttrMask", "AttrMask")], small_base())


class TestEvalReport:
    def test_mean_std_consistency(self):
        report = EvalReport("x", (0.5, 0.7, 0.9), 1.0)
        assert report.mean == pytest.approx(0.7)
        assert report.std == pytest.approx(np.std([0.5, 0.7, 0.9], ddof=1))
