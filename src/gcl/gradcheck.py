"""Finite-difference verification of every composite gradient the trainer
relies on: GCN layer, GIN layer, projection head, classifier head with
cross-entropy, and the contrastive loss in both variants.

Each check draws random inputs/parameters, contracts the composite's output
with a fixed random probe matrix to get a scalar, and compares analytic
gradients against central differences via `finite_diff_check`.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .contrastive import nt_xent
from .graphs import Graph
from .model import cross_entropy, gcn_layer, gin_layer, make_batch
from .tensor import Tensor, finite_diff_check

HIDDEN = 4
FEATURE_DIM = 3


def _random_batch(rng, num_graphs=2, feature_dim=FEATURE_DIM):
    graphs = []
    for _ in range(num_graphs):
        n = int(rng.integers(4, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        count = int(rng.integers(n - 1, len(pairs) + 1))
        take = rng.permutation(len(pairs))[:count]
        edges = np.asarray(sorted(pairs[i] for i in take), dtype=np.int64)
        graphs.append(Graph(n, edges, rng.normal(size=(n, feature_dim))))
    return make_batch(graphs)


def check_gcn_layer(rng, h=1e-5, tol=1e-4):
    batch = _random_batch(rng)
    x = Tensor(batch.features)
    w = Tensor(rng.normal(size=(FEATURE_DIM, HIDDEN)), requires_grad=True)
    probe = Tensor(rng.normal(size=(batch.features.shape[0], HIDDEN)))

    def f(params):
        return T.sum(T.mul(gcn_layer(x, batch, params[0]), probe))

    return finite_diff_check(f, [w], h=h, tol=tol)


def check_gin_layer(rng, h=1e-5, tol=1e-4):
    batch = _random_batch(rng)
    x = Tensor(batch.features)
    params = [
        Tensor(rng.normal(size=(FEATURE_DIM, HIDDEN)), requires_grad=True),
        Tensor(rng.normal(size=HIDDEN), requires_grad=True),
        Tensor(rng.normal(size=(HIDDEN, HIDDEN)), requires_grad=True),
        Tensor(rng.normal(size=HIDDEN), requires_grad=True),
    ]
    probe = Tensor(rng.normal(size=(batch.features.shape[0], HIDDEN)))

    def f(ps):
        return T.sum(T.mul(gin_layer(x, batch, ps[0], ps[1], ps[2], ps[3]), probe))

    return finite_diff_check(f, params, h=h, tol=tol)


def check_projection_head(rng, h=1e-5, tol=1e-4):
    rows = int(rng.integers(3, 6))
    x = Tensor(rng.normal(size=(rows, HIDDEN)))
    params = [
        Tensor(rng.normal(size=(HIDDEN, HIDDEN)), requires_grad=True),
        Tensor(rng.normal(size=(HIDDEN, HIDDEN)), requires_grad=True),
    ]
    probe = Tensor(rng.normal(size=(rows, HIDDEN)))

    def f(ps):
        return T.sum(T.mul(T.matmul(T.relu(T.matmul(x, ps[0])), ps[1]), probe))

    return finite_diff_check(f, params, h=h, tol=tol)


def check_classifier_head(rng, h=1e-5, tol=1e-4):
    # Draws are scaled down so no softmax probability collapses toward zero:
    # saturated classes have exponentially small gradients that sit below the
    # roundoff noise floor of central differences, which would make the
    # relative-error comparison meaningless rather than wrong.
    rows, classes = int(rng.integers(3, 6)), 3
    x = Tensor(0.5 * rng.normal(size=(rows, HIDDEN)))
    labels = rng.integers(0, classes, size=rows)
    params = [
        Tensor(0.5 * rng.normal(size=(HIDDEN, HIDDEN)), requires_grad=True),
        Tensor(0.5 * rng.normal(size=HIDDEN), requires_grad=True),
        Tensor(0.5 * rng.normal(size=(HIDDEN, classes)), requires_grad=True),
        Tensor(0.5 * rng.normal(size=classes), requires_grad=True),
    ]

    def f(ps):
        hidden = T.relu(T.add(T.matmul(x, ps[0]), ps[1]))
        logits = T.add(T.matmul(hidden, ps[2]), ps[3])
        return cross_entropy(logits, labels)

    return finite_diff_check(f, params, h=h, tol=tol)


def check_nt_xent(rng, variant, h=1e-5, tol=1e-4):
    n, d = int(rng.integers(3, 6)), 5
    params = [
        Tensor(rng.normal(size=(n, d)), requires_grad=True),
        Tensor(rng.normal(size=(n, d)), requires_grad=True),
    ]
    temperature = float(rng.uniform(0.2, 1.0))

    def f(ps):
        return nt_xent(ps[0], ps[1], temperature, variant)

    return finite_diff_check(f, params, h=h, tol=tol)


CHECKS = {
    "gcn_layer": check_gcn_layer,
    "gin_layer": check_gin_layer,
    "projection_head": check_projection_head,
    "classifier_head": check_classifier_head,
    "nt_xent_exclusive": lambda rng, h=1e-5, tol=1e-4: check_nt_xent(rng, "exclusive", h, tol),
    "nt_xent_inclusive": lambda rng, h=1e-5, tol=1e-4: check_nt_xent(rng, "inclusive", h, tol),
}


def run_gradient_checks(draws: int = 20, h: float = 1e-5, tol: float = 1e-4, seed: int = 0) -> dict:
    """Run every composite check `draws` times; reports worst error per composite."""
    results = {}
    for i, (name, check) in enumerate(CHECKS.items()):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 5, i)))
        worst = 0.0
        for _ in range(draws):
            report = check(rng, h=h, tol=tol)
            worst = max(worst, float(report["max_rel_error"]))
        results[name] = {"max_rel_error": worst, "passed": bool(worst < tol)}
    return {
        "draws": draws,
        "h": h,
        "tol": tol,
        "seed": seed,
        "checks": results,
        "passed": all(r["passed"] for r in results.values()),
    }
