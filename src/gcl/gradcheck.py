"""Finite-difference verification of every composite gradient the trainer
relies on: GCN layer and GIN layer (in both aggregation orders, with respect
to their node table as well as their weights), projection head, classifier
head with cross-entropy, the contrastive loss in both variants, and the whole
pretraining graph end to end (encode -> project -> contrastive loss).

Each check draws random inputs/parameters, contracts the composite's output
with a fixed random probe matrix to get a scalar, and compares analytic
gradients against central differences via `finite_diff_check`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .contrastive import LOSS_VARIANTS, PretrainConfig, contrastive_loss, nt_xent
from .graphs import Graph
from .model import ARCHS, EncoderConfig, classify, encode, gcn_layer, gin_layer, init_params, make_batch, project
from .tensor import Tensor, finite_diff_check

HIDDEN = 4
FEATURE_DIM = 3


def _random_batch(rng, num_graphs=2, max_nodes=6, feature_dim=FEATURE_DIM):
    graphs = []
    for _ in range(num_graphs):
        n = int(rng.integers(4, max_nodes + 1))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        count = int(rng.integers(n - 1, len(pairs) + 1))
        take = rng.permutation(len(pairs))[:count]
        edges = np.asarray(sorted(pairs[i] for i in take), dtype=np.int64)
        graphs.append(Graph(n, edges, rng.normal(size=(n, feature_dim))))
    return make_batch(graphs)


def _draw(rng, *shapes, scale=1.0):
    """One normal parameter tensor per shape, in order."""
    return [Tensor(scale * rng.normal(size=shape), requires_grad=True) for shape in shapes]


def check_gcn_layer(rng, h=1e-5, tol=1e-4):
    # An input narrower than HIDDEN is propagated before the weight, a wider one after it.
    width = (FEATURE_DIM, HIDDEN + 1)[rng.integers(2)]
    batch = _random_batch(rng, feature_dim=width)
    params = [Tensor(batch.features.copy(), requires_grad=True), *_draw(rng, (width, HIDDEN))]
    probe = Tensor(rng.normal(size=(batch.features.shape[0], HIDDEN)))

    def f(ps):
        return T.sum(T.mul(gcn_layer(ps[0], batch, ps[1]), probe))

    return finite_diff_check(f, params, h=h, tol=tol)


def check_gin_layer(rng, h=1e-5, tol=1e-4):
    width = (FEATURE_DIM, HIDDEN)[rng.integers(2)]  # propagated before W1, or (as wide) after it
    batch = _random_batch(rng, feature_dim=width)
    x = Tensor(batch.features.copy(), requires_grad=True)
    params = [x, *_draw(rng, (width, HIDDEN), HIDDEN, (HIDDEN, HIDDEN), HIDDEN)]
    probe = Tensor(rng.normal(size=(batch.features.shape[0], HIDDEN)))
    eps = float(rng.uniform(-0.5, 0.5))

    def f(ps):
        return T.sum(T.mul(gin_layer(ps[0], batch, *ps[1:], eps=eps), probe))

    return finite_diff_check(f, params, h=h, tol=tol)


def check_projection_head(rng, h=1e-5, tol=1e-4):
    rows = int(rng.integers(3, 6))
    x = Tensor(rng.normal(size=(rows, HIDDEN)))
    params = _draw(rng, (HIDDEN, HIDDEN), (HIDDEN, HIDDEN))
    probe = Tensor(rng.normal(size=(rows, HIDDEN)))
    head = SimpleNamespace(tensors={"proj.W1": params[0], "proj.W2": params[1]})  # all `project` reads

    def f(ps):
        return T.sum(T.mul(project(x, head), probe))

    return finite_diff_check(f, params, h=h, tol=tol)


def check_classifier_head(rng, h=1e-5, tol=1e-4):
    # Draws are scaled down so no softmax probability collapses toward zero:
    # saturated classes have exponentially small gradients that sit below the
    # roundoff noise floor of central differences, which would make the
    # relative-error comparison meaningless rather than wrong.
    rows, classes = int(rng.integers(3, 6)), 3
    x = Tensor(0.5 * rng.normal(size=(rows, HIDDEN)))
    labels = rng.integers(0, classes, size=rows)
    params = _draw(rng, (HIDDEN, HIDDEN), HIDDEN, (HIDDEN, classes), classes, scale=0.5)
    head = SimpleNamespace(tensors=dict(zip(("clf.W1", "clf.b1", "clf.W2", "clf.b2"), params)))

    def f(ps):
        return T.cross_entropy(classify(x, head), labels)

    return finite_diff_check(f, params, h=h, tol=tol)


def check_nt_xent(rng, variant, h=1e-5, tol=1e-4):
    n, d = int(rng.integers(3, 6)), 5
    params = _draw(rng, (n, d), (n, d))
    temperature = float(rng.uniform(0.2, 1.0))

    def f(ps):
        return nt_xent(ps[0], ps[1], temperature, variant)

    return finite_diff_check(f, params, h=h, tol=tol)


def check_end_to_end(rng, h=1e-5, tol=1e-4):
    """encode -> project -> contrastive_loss on two random batches of paired views.

    NT-Xent ignores each projected row's scale, so in a net this small some
    parameter often only rescales rows: a zero gradient that central
    differences read as roundoff. A probe contraction of the projections, as
    in the layer checks, lifts every live parameter's gradient above that.
    Small batches keep ReLU inputs that sit within h of their kink rare.
    """
    arch = ARCHS[rng.integers(len(ARCHS))]
    params = init_params(EncoderConfig(arch=arch, num_layers=2, hidden_dim=HIDDEN), FEATURE_DIM, 0, rng)
    scale = 0.5 if arch == "gin" else 1.0  # GIN sums neighbours and multiplies twice per layer
    for t in params.tensors.values():
        t.data = scale * rng.normal(size=t.data.shape)
    num_graphs = int(rng.integers(2, 4))
    batch_i, batch_j = (_random_batch(rng, num_graphs, max_nodes=5) for _ in range(2))
    probe_i, probe_j = (Tensor(rng.normal(size=(num_graphs, HIDDEN))) for _ in range(2))
    pretrain_config = PretrainConfig(
        temperature=float(rng.uniform(0.2, 1.0)),
        loss_variant=LOSS_VARIANTS[rng.integers(len(LOSS_VARIANTS))],
        symmetric=bool(rng.integers(2)),
    )

    def f(ps):
        z_i = project(encode(batch_i, params), params)
        z_j = project(encode(batch_j, params), params)
        probed = T.add(T.sum(T.mul(z_i, probe_i)), T.sum(T.mul(z_j, probe_j)))
        return T.add(contrastive_loss(z_i, z_j, pretrain_config), probed)

    return finite_diff_check(f, params.encoder_and_projection(), h=h, tol=tol)


CHECKS = {
    "gcn_layer": check_gcn_layer,
    "gin_layer": check_gin_layer,
    "projection_head": check_projection_head,
    "classifier_head": check_classifier_head,
    "nt_xent_exclusive": lambda rng, h=1e-5, tol=1e-4: check_nt_xent(rng, "exclusive", h, tol),
    "nt_xent_inclusive": lambda rng, h=1e-5, tol=1e-4: check_nt_xent(rng, "inclusive", h, tol),
    "end_to_end": check_end_to_end,
}


def run_gradient_checks(draws: int = 20, h: float = 1e-5, tol: float = 1e-4, seed: int = 0) -> dict:
    """Run every composite check `draws` times; reports worst error per composite. A draw
    that fails the smoothness screen (a kink within h) is redrawn, at most `draws` times
    per composite, and counted."""
    results = {}
    for i, (name, check) in enumerate(CHECKS.items()):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 5, i)))
        worst, redraws = 0.0, 0
        for _ in range(draws):
            report = check(rng, h=h, tol=tol)
            while not report["smooth"] and redraws < draws:
                redraws += 1
                report = check(rng, h=h, tol=tol)
            worst = max(worst, float(report["max_rel_error"]))
        results[name] = {"max_rel_error": worst, "passed": bool(worst < tol), "redraws": redraws}
    return {
        "draws": draws,
        "h": h,
        "tol": tol,
        "seed": seed,
        "checks": results,
        "passed": all(r["passed"] for r in results.values()),
    }
