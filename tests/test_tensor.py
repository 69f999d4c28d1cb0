import numpy as np
import pytest

from gcl import gradcheck
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

    @pytest.mark.parametrize("ids, num_segments", [([-1, 0, 0], 2), ([0, 2, 1], 2), ([-2, -1, -1], None)])
    def test_segment_sum_rejects_ids_outside_the_segments(self, ids, num_segments):
        # A negative id used to wrap into the last segment: [-1, 0, 0] summed to [6, 1].
        with pytest.raises(ValueError, match="segment_sum"):
            T.segment_sum(t([[1.0], [2.0], [4.0]]), ids, num_segments)
        assert T.tape_size() == 0

    def test_transpose_is_a_view(self):
        a = t(np.arange(6.0).reshape(2, 3), grad=False)
        assert np.shares_memory(T.transpose(a).data, a.data)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_non_finite_detected(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            T.mul(t([1e308]), T.Tensor(10.0))

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
            y = T.mul(x, T.Tensor(2.0))
        assert T.tape_size() == 0
        assert not y.requires_grad

    def test_backward_rejects_a_loss_off_the_tape(self):
        with pytest.raises(ValueError, match="recorded on the tape"):
            backward(Tensor(1.0))
        x = t([1.0, 2.0])
        with no_grad():
            loss = T.sum(T.mul(x, x))
        with pytest.raises(ValueError, match="recorded on the tape"):
            backward(loss)


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
            return T.cross_entropy(T.mul(z, T.Tensor(2.0)), [0, 1, 1, 0, 1])

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
        assert report["smooth"]  # the screen reads f only, so it cannot excuse a wrong gradient

    def test_kink_within_h_is_not_smooth(self):
        def f(ps):
            return T.sum(T.relu(ps[0]))

        assert finite_diff_check(f, [t([0.5, -0.7])])["smooth"]
        report = finite_diff_check(f, [t([0.5, 3e-6])], h=1e-5)  # central differences read 0.65 and 0.8
        assert not report["smooth"] and not report["passed"]

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


class TestScatterRows:
    @pytest.mark.parametrize("f", [1, 2, 32])
    def test_bit_identical_to_add_at(self, f):
        rng = np.random.default_rng(f)
        index = rng.integers(0, 7, size=40)  # every id repeats
        x = rng.normal(size=(40, f)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))  # rounding shows in the sums
        reference = np.zeros((9, f))
        np.add.at(reference, index, x)
        out = T._scatter_rows(x, index, 9)
        assert out.dtype == np.float64 and out.tobytes() == reference.tobytes()

    def test_no_rows(self):
        out = T._scatter_rows(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
        assert out.dtype == np.float64 and out.tolist() == [[0.0] * 3] * 4


class TestGradientOwnership:
    """The first gradient a tensor receives becomes its .grad without a copy unless
    it is the incoming gradient, a view of it or a broadcast."""

    @pytest.mark.parametrize("build", [
        lambda ps, probe: T.add(ps[0], ps[0]),  # one leaf feeding both inputs of add
        lambda ps, probe: T.add(T.mul(ps[0], T.Tensor(2.0)), T.add(ps[0], ps[0])),
        lambda ps, probe: (lambda y: T.add(y, y))(T.mul(ps[0], ps[1])),  # one intermediate, both inputs
        lambda ps, probe: T.add(ps[0], T.mul(T.transpose(T.transpose(ps[0])), T.Tensor(3.0))),
        lambda ps, probe: T.mul(ps[0], ps[2]),  # a one-column operand
        lambda ps, probe: T.mul(ps[2], T.add(ps[0], ps[2])),
    ], ids=["add-x-x", "add-reused", "add-y-y", "transpose", "mul-column", "add-column"])
    def test_gradients_pass_finite_differences(self, build):
        rng = np.random.default_rng(9)
        params = [t(rng.normal(size=(4, 3))), t(rng.normal(size=(4, 3))), t(rng.normal(size=(4, 1)))]
        probe = Tensor(rng.normal(size=(4, 3)))
        assert finite_diff_check(lambda ps: T.sum(T.mul(build(ps, probe), probe)), params)["passed"]

    def test_sum_gradient_is_writable_and_accumulates(self):
        # sum's backward hands out a full array, not a read-only broadcast view.
        x = t([[1.0, -2.0], [0.5, 3.0]])
        backward(T.add(T.sum(x), T.sum(T.mul(x, x))))
        np.testing.assert_array_equal(x.grad, 1.0 + 2.0 * x.data)
        assert finite_diff_check(lambda ps: T.add(T.sum(ps[0]), T.sum(T.mul(ps[0], ps[0]))), [x])["passed"]

    def test_no_two_grads_share_memory(self):
        rng = np.random.default_rng(10)
        x, w, b = t(rng.normal(size=(5, 3))), t(rng.normal(size=(3, 3))), t(rng.normal(size=3))
        tensors = [x, w, b]
        tensors.append(T.matmul(x, w))
        tensors.append(T.add(tensors[-1], b))
        tensors.append(T.add(tensors[-1], tensors[-1]))
        tensors.append(T.relu(tensors[-1]))
        tensors.append(T.transpose(tensors[-1]))
        tensors.append(T.transpose(tensors[-1]))
        tensors.append(T.add(tensors[-1], x))
        tensors.append(T.mul(tensors[-1], T.Tensor(np.ones((5, 1)))))
        tensors.append(T.segment_sum(tensors[-1], [0, 0, 1, 1, 1]))
        backward(T.sum(tensors[-1]))
        grads = [tensor.grad for tensor in tensors]
        assert all(g is not None and g.flags.writeable for g in grads)
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)


def reference_cross_entropy(logits, targets, exclude_target=False):
    """The five-primitive formula the cross_entropy op replaced, in numpy:
    shift by the max over allowed entries, exp, masked row sum, log, and
    subtract the target logit; excluded entries enter exp as 0 and are masked."""
    rows = np.arange(logits.shape[0])
    mask = np.ones_like(logits)
    if exclude_target:
        mask[rows, targets] = 0.0
    row_max = np.where(mask > 0.0, logits, -np.inf).max(axis=1, keepdims=True)
    expd = np.exp(np.where(mask > 0.0, logits - row_max, 0.0)) * mask
    lse = np.log(expd.sum(axis=1)) + row_max[:, 0]
    return (lse - logits[rows, targets]).mean()


class TestCrossEntropy:
    @pytest.mark.parametrize("exclude_target", [False, True])
    @pytest.mark.parametrize("offset", [0.0, 1e3, -1e3])
    def test_matches_reference_formula(self, exclude_target, offset):
        rng = np.random.default_rng(7)
        logits = 3.0 * rng.normal(size=(6, 5)) + offset
        targets = rng.integers(0, 5, size=6)
        loss = T.cross_entropy(t(logits, grad=False), targets, exclude_target).item()
        assert abs(loss - reference_cross_entropy(logits, targets, exclude_target)) < 1e-12

    @pytest.mark.parametrize("exclude_target", [False, True])
    def test_gradients_pass_finite_differences(self, exclude_target):
        rng = np.random.default_rng(8)
        p = t(rng.normal(size=(5, 4)))
        targets = rng.integers(0, 4, size=5)
        assert finite_diff_check(lambda ps: T.cross_entropy(ps[0], targets, exclude_target), [p])["passed"]

    def test_exclude_target_on_two_columns(self):
        # One allowed entry per row: the log-sum-exp is that entry itself.
        logits = t([[1.0, 4.0], [2.0, -1.0], [0.5, 0.5]])
        targets = [0, 1, 0]
        loss = T.cross_entropy(logits, targets, exclude_target=True)
        assert loss.item() == pytest.approx(((4.0 - 1.0) + (2.0 + 1.0) + 0.0) / 3, abs=1e-15)
        assert T.tape_size() == 1
        backward(loss)
        np.testing.assert_allclose(logits.grad, np.array([[-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]) / 3, atol=1e-15)

    @pytest.mark.parametrize(
        "shape, targets, exclude_target",
        [
            ((3, 4), [0, 1], False),  # too few targets
            ((3, 4), [[0], [1], [2]], False),  # 2-D targets
            ((4,), [0, 1, 2, 3], False),  # 1-D logits
            ((3, 4), [0, 4, 1], False),  # target past the last column
            ((3, 4), [0, -1, 1], False),  # negative target
            ((3, 1), [0, 0, 0], True),  # nothing left for the log-sum-exp
            ((0, 4), [], False),  # no rows
        ],
    )
    def test_misshaped_input_rejected(self, shape, targets, exclude_target):
        with pytest.raises(ValueError, match="cross_entropy"):
            T.cross_entropy(t(np.zeros(shape)), targets, exclude_target)
        assert T.tape_size() == 0


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

    def test_in_place_step_matches_the_out_of_place_formula(self):
        rng = np.random.default_rng(11)
        p = t(rng.normal(size=(4, 3)))
        data, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        opt = Adam([p], lr=0.03)
        for step in range(1, 6):
            g = rng.normal(size=(4, 3))
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            data = data - 0.03 * (m / (1.0 - 0.9**step)) / (np.sqrt(v / (1.0 - 0.999**step)) + 1e-8)
            assert p.data.tobytes() == data.tobytes()

    def test_non_finite_grad_rejected(self):
        p = t([1.0])
        opt = Adam([p])
        p.grad = np.array([np.inf])
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_overflowing_moment_rejected(self):
        # 1e200 is finite but its square is not: v would turn inf and the update 0, so nothing would train.
        p = t([1.0, 2.0])
        opt = Adam([p])
        p.grad = np.array([1e200, 1.0])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="moment"):
            opt.step()
        assert p.data.tolist() == [1.0, 2.0]


def _wrong_square_check(rng, h=1e-5, tol=1e-4):
    """sum(p^2) with a backward of 3p instead of 2p."""
    p = t(rng.normal(size=3))

    def f(ps):
        def backward_fn(g):
            ps[0].grad = 3.0 * ps[0].data * g

        return T.sum(T._record(Tensor(ps[0].data ** 2), (ps[0],), backward_fn))

    return finite_diff_check(f, [p], h=h, tol=tol)


class TestGradientChecks:
    def test_seed_17_passes_by_redrawing_a_kink(self):
        # draw 3 of end_to_end puts a ReLU input within h of its kink at this seed
        report = gradcheck.run_gradient_checks(seed=17)
        assert report["passed"]
        assert report["checks"]["end_to_end"]["redraws"] >= 1
        assert report["draws"] == 20 and report["h"] == 1e-5 and report["tol"] == 1e-4

    def test_wrong_gradient_still_fails(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "CHECKS", {"wrong": _wrong_square_check})
        report = gradcheck.run_gradient_checks(draws=3)
        assert not report["passed"]
        assert report["checks"]["wrong"]["redraws"] == 0

    def test_redraws_are_capped(self, monkeypatch):
        def always_at_kink(rng, h=1e-5, tol=1e-4):
            return finite_diff_check(lambda ps: T.sum(T.relu(ps[0])), [t([h / 3])], h=h, tol=tol)

        monkeypatch.setattr(gradcheck, "CHECKS", {"kink": always_at_kink})
        report = gradcheck.run_gradient_checks(draws=4)
        assert report["checks"]["kink"]["redraws"] == 4
        assert not report["passed"]
