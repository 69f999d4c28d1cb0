import numpy as np
import pytest

from gcl import tensor as T
from gcl.tensor import Adam, Tensor, backward, finite_diff_check, no_grad, zero_grad


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestPrimitives:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]], grad=False)
        out = T.matmul(a, t(np.eye(2), grad=False))
        assert out.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_relu(self):
        assert T.relu(t([-1.0, 2.0], grad=False)).data.tolist() == [0.0, 2.0]

    def test_segment_sum(self):
        out = T.segment_sum(t([[1.0], [2.0], [3.0]], grad=False), [0, 0, 1])
        assert out.data.tolist() == [[3.0], [3.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_log_of_non_positive(self):
        with pytest.raises(FloatingPointError):
            T.log(t([0.0, 1.0]))

    def test_non_finite_detected(self):
        with pytest.raises(FloatingPointError):
            T.exp(t([1000.0]))

    def test_row_l2_normalize_zero_rows(self):
        a = t([[3.0, 4.0], [0.0, 0.0]])
        out = T.row_l2_normalize(a)
        assert out.data.tolist() == [[0.6, 0.8], [0.0, 0.0]]
        backward(T.sum(out))
        assert a.grad[1].tolist() == [0.0, 0.0]

    def test_determinism(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        x1 = T.matmul(T.relu(t(a, grad=False)), t(b, grad=False)).data
        x2 = T.matmul(T.relu(t(a, grad=False)), t(b, grad=False)).data
        assert x1.tobytes() == x2.tobytes()


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = t([1.0, 2.0, 3.0])
        backward(T.sum(x))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_relu_chain(self):
        x = t([-1.0, 2.0])
        backward(T.sum(T.relu(x)))
        assert x.grad.tolist() == [0.0, 1.0]

    def test_matmul_grad_row_broadcast(self):
        # loss = sum(x W): dx = row-broadcast of W's row sums
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 4))
        x = t(rng.normal(size=(2, 3)))
        backward(T.sum(T.matmul(x, Tensor(w))))
        expected = np.tile(w.sum(axis=1), (2, 1))
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(t([1.0, 2.0]))

    def test_tape_cleared_after_backward(self):
        x = t([1.0])
        backward(T.sum(x))
        assert T.tape_size() == 0

    def test_grad_accumulates_over_reuse(self):
        x = t([[1.0, 2.0]])
        y = T.add(x, x)
        backward(T.sum(y))
        assert x.grad.tolist() == [[2.0, 2.0]]

    def test_broadcast_add_unbroadcasts(self):
        x = t(np.ones((3, 2)))
        b = t(np.zeros(2))
        backward(T.sum(T.add(x, b)))
        assert b.grad.tolist() == [3.0, 3.0]

    def test_no_grad_blocks_recording(self):
        x = t([1.0])
        with no_grad():
            y = T.mul_scalar(x, 2.0)
        assert T.tape_size() == 0
        assert not y.requires_grad


class TestFiniteDiff:
    def test_quadratic_passes(self):
        rng = np.random.default_rng(2)
        p = t(rng.normal(size=(4, 3)))

        def f(ps):
            return T.sum(T.mul(ps[0], ps[0]))

        report = finite_diff_check(f, [p], h=1e-5, tol=1e-4)
        assert report["passed"]

    def test_composite_passes(self):
        rng = np.random.default_rng(3)
        p1, p2 = t(rng.normal(size=(3, 3))), t(rng.normal(size=(3, 2)))
        x = Tensor(rng.normal(size=(5, 3)))

        def f(ps):
            h = T.relu(T.matmul(x, ps[0]))
            z = T.row_l2_normalize(T.matmul(h, ps[1]))
            return T.sum(T.exp(T.mul_scalar(z, 0.5)))

        assert finite_diff_check(f, [p1, p2])["passed"]

    def test_corrupted_gradient_fails(self):
        p = t(np.array([1.0, 2.0]))

        def wrong(ps):
            out = Tensor(ps[0].data ** 2)

            def backward_fn(g):
                bad = 3.0 * ps[0].data * g  # deliberately wrong local gradient
                ps[0].grad = bad if ps[0].grad is None else ps[0].grad + bad

            return T.sum(T._record(out, (ps[0],), backward_fn))

        report = finite_diff_check(wrong, [p])
        assert not report["passed"]

    def test_segment_sum_gradient_scatter(self):
        rng = np.random.default_rng(4)
        p = t(rng.normal(size=(5, 2)))
        probe = Tensor(rng.normal(size=(2, 2)))

        def f(ps):
            return T.sum(T.mul(T.segment_sum(ps[0], [0, 0, 1, 1, 1]), probe))

        assert finite_diff_check(f, [p])["passed"]
        zero_grad([p])
        backward(f([p]))
        np.testing.assert_allclose(p.grad[0], p.grad[1])
        np.testing.assert_allclose(p.grad[2], p.grad[4])

    def test_gather_and_concat(self):
        rng = np.random.default_rng(5)
        p = t(rng.normal(size=(4, 3)))
        probe = Tensor(rng.normal(size=(4, 3)))

        def f(ps):
            # The repeated index and the second use of ps[0] both accumulate.
            gathered = T.gather_rows(ps[0], [0, 2, 2, 3])
            return T.sum(T.mul(T.add(gathered, ps[0]), probe))

        assert finite_diff_check(f, [p])["passed"]


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = t([1.0, -2.0])
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        assert p.data.tolist() == [1.0, -2.0]

    def test_first_step_is_signed_lr(self):
        p = t([1.0, 1.0, 1.0])
        opt = Adam([p], lr=0.05)
        p.grad = np.array([0.3, -2.0, 1e-4])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.05, 1.0 + 0.05, 1.0 - 0.05], rtol=1e-3)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(6)
            p = t(rng.normal(size=(3, 3)))
            opt = Adam([p], lr=0.01)
            for _ in range(5):
                opt.zero_grad()
                backward(T.sum(T.mul(p, p)))
                opt.step()
            return p.data.tobytes()

        assert run() == run()

    def test_non_finite_grad_rejected(self):
        p = t([1.0])
        opt = Adam([p])
        p.grad = np.array([np.inf])
        with pytest.raises(FloatingPointError):
            opt.step()
