"""Dense float64 tensors with a reverse-mode gradient tape, Adam, and a
finite-difference gradient oracle.

Define-by-run: every primitive checks its output for NaN/Inf and, when grads
are enabled and any input requires them, appends a backward closure to a
thread-local tape. `backward(loss)` walks the tape in reverse execution order
(a valid topological order) and clears it. A tape therefore belongs to one
thread; pure math under `no_grad()` is safe anywhere.
"""

from __future__ import annotations

import builtins
import threading
from contextlib import contextmanager

import numpy as np

_STATE = threading.local()


def _tape() -> list:
    if not hasattr(_STATE, "tape"):
        _STATE.tape = []
        _STATE.grad_enabled = True
    return _STATE.tape


def _grad_enabled() -> bool:
    _tape()
    return _STATE.grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    _tape()
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def tape_size() -> int:
    return len(_tape())


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return arr


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += grad


def _record(out: Tensor, inputs, backward_fn) -> Tensor:
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape().append((out, backward_fn))
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
    out = Tensor(a.data.T.copy())

    def backward_fn(g):
        _accumulate(a, g.T)

    return _record(out, (a,), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_check_finite(a.data + b.data, "add"))

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_check_finite(a.data * b.data, "mul"))

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward_fn)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(_check_finite(a.data * c, "mul_scalar"))

    def backward_fn(g):
        _accumulate(a, g * c)

    return _record(out, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0.0))

    return _record(out, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as FloatingPointError below
        out = Tensor(_check_finite(np.exp(a.data), "exp"))

    def backward_fn(g):
        _accumulate(a, g * out.data)

    return _record(out, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise FloatingPointError("log of non-positive value")
    out = Tensor(np.log(a.data))

    def backward_fn(g):
        _accumulate(a, g / a.data)

    return _record(out, (a,), backward_fn)


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(out, (a,), backward_fn)


def gather_rows(a: Tensor, index) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[index])

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        _accumulate(a, ga)

    return _record(out, (a,), backward_fn)


def segment_sum(a: Tensor, segment_ids, num_segments: int | None = None) -> Tensor:
    """Sum rows of `a` into one output row per segment id."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if a.data.ndim != 2:
        raise ValueError("segment_sum expects a 2-D tensor")
    if segment_ids.shape[0] != a.data.shape[0]:
        raise ValueError("segment_ids length must match the row count")
    n_seg = int(segment_ids.max()) + 1 if num_segments is None and segment_ids.size else num_segments
    if n_seg is None:
        n_seg = 0
    result = np.zeros((n_seg, a.data.shape[1]), dtype=np.float64)
    np.add.at(result, segment_ids, a.data)
    out = Tensor(result)

    def backward_fn(g):
        _accumulate(a, g[segment_ids])

    return _record(out, (a,), backward_fn)


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
    tape = _tape()
    try:
        loss.grad = np.ones_like(loss.data)
        for out, backward_fn in reversed(tape):
            if out.grad is not None:
                backward_fn(out.grad)
    finally:
        tape.clear()


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
            if not np.isfinite(g).all():
                raise FloatingPointError("non-finite gradient in Adam step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def finite_diff_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> dict:
    """Compare analytic gradients of the scalar f(params) with central differences.

    Relative error per coordinate uses denominator max(|analytic|, |numeric|,
    1e-8). Returns {"max_rel_error", "passed"}.
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
    max_rel = 0.0
    with no_grad():
        for p, grads in zip(params, analytic):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            flat = p.data.reshape(-1)  # writable view; perturbations hit p.data
            gflat = grads.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(f(params).data)
                flat[i] = orig - h
                f_minus = float(f(params).data)
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise FloatingPointError("non-finite evaluation in finite_diff_check")
                numeric = (f_plus - f_minus) / (2.0 * h)
                denom = builtins.max(abs(gflat[i]), abs(numeric), 1e-8)
                max_rel = builtins.max(max_rel, abs(gflat[i] - numeric) / denom)
    return {"max_rel_error": max_rel, "passed": max_rel < tol}
