"""Dense float64 tensors with a reverse-mode gradient tape, Adam, and a
finite-difference gradient oracle.

Define-by-run: every primitive checks its output for NaN/Inf and, when grads
are enabled and any input requires them, appends a backward closure to the
process's one tape. `backward(loss)` walks the tape in reverse execution order
(a valid topological order) and clears it. Tape work therefore runs on one
thread per process; parallel work runs in (forked) worker processes.

Gradient ownership: a backward closure hands `_accumulate` either a fresh
array that nothing else holds, which becomes the input's `.grad` as it is, or
(`owned=False`) the incoming gradient, a view of it or a broadcast, which is
copied first. Later contributions are added in place, so no two tensors'
`.grad` share memory and no gradient starts as a zero buffer. `Adam.step`
updates each parameter's data in place.

Graph ops take a batch's symmetric `Propagation` S. `graph_conv`, ReLU(S h W + b),
is the one op that applies S in a layer (all of GCN's, GIN's aggregation and first
Linear). It scatters on the narrower side of W and keeps only h, W, b, its output
and (narrow side) S h for the backward, so no n x H intermediate stays on the tape.
Below FEATURE_MAJOR_MIN (edges x the op's wider width) it works on (n, F) tables
with one flat-key bincount per scatter; from there on it works on their transposes,
(F, n) tables with one bincount per feature row, and returns an F-ordered (n, H) view.
"""

from __future__ import annotations

import builtins
from contextlib import contextmanager

import numpy as np


_TAPE: list = []  # (output tensor, backward closure) in execution order
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def tape_size() -> int:
    return len(_TAPE)


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return arr


def _accumulate(t: Tensor, grad: np.ndarray, owned: bool = True) -> None:
    if t.grad is None:
        t.grad = grad if owned else grad.copy()
    else:
        t.grad += grad


def _record(out: Tensor, inputs, backward_fn) -> Tensor:
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.append((out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over the axes that broadcasting expanded to reach `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(_check_finite(a.data @ b.data, "matmul"))

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(out, (a, b), backward_fn)


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T)

    def backward_fn(g):
        _accumulate(a, g.T, owned=False)

    return _record(out, (a,), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_check_finite(a.data + b.data, "add"))

    def backward_fn(g):
        for t in (a, b):
            if t.requires_grad:  # without broadcasting, t's share is g itself
                _accumulate(t, _unbroadcast(g, t.data.shape), owned=t.data.shape != g.shape)

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_check_finite(a.data * b.data, "mul"))

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0.0))

    return _record(out, (a,), backward_fn)


def sum(a: Tensor) -> Tensor:  # noqa: A001
    out = Tensor(a.data.sum())

    def backward_fn(g):
        _accumulate(a, np.full(a.data.shape, g))

    return _record(out, (a,), backward_fn)


def cross_entropy(logits: Tensor, targets, exclude_target: bool = False) -> Tensor:
    """Mean over rows of logsumexp(row) - row[target], shifted by the row max.

    With `exclude_target` the target entry is left out of the log-sum-exp, as
    in the exclusive NT-Xent denominator. The gradient is (softmax over the
    entries the log-sum-exp runs over - one-hot) / N.
    """
    targets = np.asarray(targets, dtype=np.int64)
    shape = logits.data.shape
    if not (len(shape) == 2 and shape[0] and shape[1] > exclude_target and targets.shape == shape[:1]
            and targets.min() >= 0 and targets.max() < shape[1]):
        raise ValueError(f"cross_entropy needs (N, C > {exclude_target:d}) logits and N targets in [0, C), "
                         f"got {shape} and {targets.shape}")
    n = shape[0]
    rows = np.arange(n)
    allowed = logits.data.copy()
    if exclude_target:
        allowed[rows, targets] = -np.inf
    row_max = allowed.max(axis=1, keepdims=True)
    expd = np.exp(allowed - row_max)
    denom = expd.sum(axis=1, keepdims=True)
    per_row = np.log(denom) + row_max - logits.data[rows, targets][:, None]
    out = Tensor(_check_finite(per_row.sum() * (1.0 / n), "cross_entropy"))

    def backward_fn(g):
        ga = expd / denom
        ga[rows, targets] -= 1.0
        _accumulate(logits, ga * (g / n))

    return _record(out, (logits,), backward_fn)


def _flat_keys(index: np.ndarray, f: int) -> np.ndarray:
    return (index[:, None] * f + np.arange(f)).ravel()  # element (i, col) of an (len(index), f) table


def _scatter_rows(x: np.ndarray, index: np.ndarray, n: int, keys: np.ndarray | None = None) -> np.ndarray:
    """(n, F) rows; row r sums the rows x[i] with index[i] == r. One np.bincount over the flat
    keys index * F + col (passed in as `keys` when the caller keeps them) with x.ravel() as
    weights: the same additions in the same order as np.add.at(zeros, index, x)."""
    f = x.shape[1]
    if not x.size:  # np.bincount returns int64 when there is nothing to weigh
        return np.zeros((n, f))
    return np.bincount(_flat_keys(index, f) if keys is None else keys, x.ravel(), minlength=n * f).reshape(n, f)


def gather_rows(a: Tensor, index) -> Tensor:
    # Indexing arange resolves negative ids as numpy does and rejects ids out of range.
    index = np.arange(a.data.shape[0])[np.asarray(index, dtype=np.int64)]
    out = Tensor(a.data[index])

    def backward_fn(g):
        _accumulate(a, _scatter_rows(g, index, a.data.shape[0]))

    return _record(out, (a,), backward_fn)


def segment_sum(a: Tensor, segment_ids, num_segments: int | None = None) -> Tensor:
    """Sum rows of `a` into one output row per segment id in [0, num_segments)."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if a.data.ndim != 2 or ids.shape != a.data.shape[:1]:
        raise ValueError(f"segment_sum needs a 2-D tensor and one id per row, got {a.data.shape}, {ids.shape}")
    n_seg = (int(ids.max()) + 1 if ids.size else 0) if num_segments is None else num_segments
    if ids.size and (ids.min() < 0 or ids.max() >= n_seg):
        raise ValueError(f"segment_sum: segment ids must lie in [0, {n_seg}), got {ids.min()}..{ids.max()}")
    out = Tensor(_scatter_rows(a.data, ids, n_seg))

    def backward_fn(g):  # in a's layout: a feature-major graph_conv output gets an F-ordered gradient
        _accumulate(a, g[ids] if a.data.flags.c_contiguous else g.T[:, ids].T)

    return _record(out, (a,), backward_fn)


# E x max(F, H) from which graph_conv runs feature-major, a little past where both layouts cost the same
FEATURE_MAJOR_MIN = 1 << 18  # so that small (finetune, grid) batches keep the row-major arithmetic bit for bit


class Propagation:
    """S = diag(self_weight) + sum over directed edges src -> dst of coef * e_dst e_src^T on n rows
    (self_weight a scalar or (n,); coef (E,), or None for 1 on every edge). Listing every edge both
    ways with one coefficient makes S symmetric. Called on an (n, F) table it scatters by flat keys
    and a message buffer kept per feature width; `feature_major` applies S to an (F, n) table and
    keeps nothing."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, n: int, self_weight, coef: np.ndarray | None = None):
        self.src, self.dst, self.n, self.coef = src, dst, n, coef
        self.self_weight = np.asarray(self_weight, dtype=np.float64)
        self._keys, self._scratch = {}, {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        f = x.shape[1]
        if f not in self._keys:
            self._keys[f] = _flat_keys(self.dst, f)
            self._scratch[f] = np.empty((max(self.src.size, self.n), f))
        scratch = self._scratch[f]
        # Every src id is < n, so "clip" changes none; the default "raise" would buffer `out`.
        messages = np.take(x, self.src, axis=0, out=scratch[: self.src.size], mode="clip")
        if self.coef is not None:
            messages *= self.coef[:, None]
        out = _scatter_rows(messages, self.dst, self.n, self._keys[f])
        out += np.multiply(x, self.self_weight.reshape(-1, 1), out=scratch[: self.n])
        return out

    def feature_major(self, xt: np.ndarray) -> np.ndarray:
        """S xt.T as a C-ordered (F, n) table: per row one np.take into one E-length buffer and one
        np.bincount over dst, so every cell adds its edges in edge order, as __call__ does."""
        out = np.multiply(xt, self.self_weight, order="C")  # + commutes exactly: same sums as __call__
        messages = np.empty(self.src.size)
        for row, x in zip(out, xt):
            np.take(x, self.src, out=messages, mode="clip")
            if self.coef is not None:
                messages *= self.coef
            row += np.bincount(self.dst, messages, minlength=self.n)
        return out


def graph_conv(h: Tensor, w: Tensor, op: Propagation, b: Tensor | None = None) -> Tensor:
    """ReLU(S h W + b), propagated on the narrower side: (S h) W when h has fewer columns than W
    has, else S (h W). The backward masks g by out > 0; the closure keeps h, W, b, out and S h.
    From FEATURE_MAJOR_MIN on, every table is the transpose of a C-ordered (F, n) one: S runs by
    `op.feature_major` and x W as (W.T x.T).T, so the output is an F-ordered (n, H) view."""
    hd, wd = h.data, w.data
    bias_ok = b is None or b.data.shape == wd.shape[1:]
    if hd.ndim != 2 or wd.ndim != 2 or hd.shape != (op.n, wd.shape[0]) or not bias_ok:
        raise ValueError(f"graph_conv needs ({op.n}, F) rows, (F, H) weights and no bias or an (H,) one, "
                         f"got {hd.shape}, {wd.shape} and {None if b is None else b.data.shape}")
    if op.src.size * max(wd.shape) < FEATURE_MAJOR_MIN:
        prop, mm, order = op, np.matmul, "K"
    else:
        prop, mm, order = (lambda x: op.feature_major(x.T).T), (lambda x, m: (m.T @ x.T).T), "F"
    sh = prop(hd) if hd.shape[1] < wd.shape[1] else None
    out = prop(mm(hd, wd)) if sh is None else mm(sh, wd)
    if b is not None:
        out += b.data
    np.maximum(_check_finite(out, "graph_conv"), 0.0, out=out)  # the fresh product or scatter output becomes the ReLU's

    def backward_fn(g):
        g = np.multiply(g, out > 0.0, order=order)  # feature-major: g.T is C-ordered
        sg = prop(g) if sh is None else None  # S g on the wide side
        if w.requires_grad:
            _accumulate(w, hd.T @ sg if sh is None else sh.T @ g)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=0))
        if h.requires_grad:
            _accumulate(h, mm(sg, wd.T) if sh is None else prop(mm(g, wd.T)))

    return _record(Tensor(out), (h, w) if b is None else (h, w, b), backward_fn)


def row_l2_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm; zero rows stay zero with zero gradient."""
    if a.data.ndim != 2:
        raise ValueError("row_l2_normalize expects a 2-D tensor")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    out = Tensor(a.data / safe)

    def backward_fn(g):
        # d(x/r)/dx = (I - x_hat x_hat^T) / r applied row-wise; zero rows get zero.
        dots = (g * out.data).sum(axis=1, keepdims=True)
        ga = (g - dots * out.data) / safe
        ga[(norms == 0.0).ravel()] = 0.0
        _accumulate(a, ga)

    return _record(out, (a,), backward_fn)


def backward(loss: Tensor) -> None:
    """Populate .grad on every tensor the scalar `loss` depends on; clears the tape."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:  # e.g. a loss computed under no_grad(): training would learn nothing
        raise ValueError("backward needs a loss recorded on the tape from tensors that require grad")
    try:
        loss.grad = np.ones_like(loss.data)
        while _TAPE:  # popping lets each op's arrays go as soon as its gradient has moved on
            out, backward_fn = _TAPE.pop()
            if out.grad is not None:
                backward_fn(out.grad)
    finally:
        _TAPE.clear()


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None


class Adam:
    """Adam with bias correction over a fixed list of parameter tensors."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        zero_grad(self.params)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if not np.isfinite(v).all():  # a non-finite g, or a finite one whose square overflows; m stays finite
                raise FloatingPointError("non-finite gradient or Adam moment in Adam step")
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def finite_diff_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> dict:
    """Compare analytic gradients of the scalar f(params) with central differences.

    Relative error per coordinate uses denominator max(|a|, |b|, 1e-8). Returns
    {"max_rel_error", "passed", "smooth"}; `smooth` (central differences at h and h/2
    agree within tol) reads f alone, so it tells a kink within h from a wrong gradient.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    zero_grad(params)
    loss = f(params)
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("non-finite loss in finite_diff_check")
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    def rel(a, b):
        return abs(a - b) / builtins.max(abs(a), abs(b), 1e-8)

    max_rel = max_kink = 0.0
    with no_grad():
        for p, grads in zip(params, analytic):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            flat = p.data.reshape(-1)  # writable view; perturbations hit p.data
            gflat = grads.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                numeric = []
                for step in (h, h / 2):
                    flat[i] = orig + step
                    f_plus = float(f(params).data)
                    flat[i] = orig - step
                    f_minus = float(f(params).data)
                    flat[i] = orig
                    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                        raise FloatingPointError("non-finite evaluation in finite_diff_check")
                    numeric.append((f_plus - f_minus) / (2.0 * step))
                max_rel = builtins.max(max_rel, rel(gflat[i], numeric[0]))
                max_kink = builtins.max(max_kink, rel(*numeric))
    return {"max_rel_error": max_rel, "passed": max_rel < tol, "smooth": max_kink < tol}
