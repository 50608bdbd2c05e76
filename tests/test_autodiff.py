import warnings

import numpy as np
import pytest

from structrel.autodiff import (
    ADAM_BLOCK,
    Adam,
    Parameter,
    ParameterStore,
    ShapeError,
    Tensor,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    xavier_uniform,
)

from reference_ops import (
    add,
    bce_with_logits,
    constant,
    layer_norm,
    matmul,
    mul,
    relu,
    sum_all,
    take_rows,
)


class TestForward:
    def test_matmul_identity(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        out = matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.array_equal(out.values, x)

    def test_relu_and_sigmoid_values(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).values,
                              [0.0, 0.0, 2.0])
        assert np.array_equal(sigmoid(np.array([-800.0, 0.0, 800.0])),
                              [0.0, 0.5, 1.0])

    def test_take_rows(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        taken = take_rows(x, [1, 1, 0])
        assert taken.values.tolist() == [[3.0, 4.0], [3.0, 4.0], [1.0, 2.0]]

    @pytest.mark.parametrize("seed", range(20))
    def test_take_rows_backward_matches_add_at_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        rows, width = int(rng.integers(1, 30)), int(rng.integers(1, 17))
        size = int(rng.integers(0, 3 * rows)) if seed else 0  # seed 0: empty
        idx = rng.integers(0, rows, size=size)
        grad = rng.normal(size=(size, width)) * 10.0 ** rng.integers(-8, 8)
        table = Tensor(rng.normal(size=(rows, width)))
        taken = take_rows(table, idx)
        taken._backward(grad)
        expect = np.zeros((rows, width))
        np.add.at(expect, idx, grad)
        assert table.grad.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("seed", range(10))
    def test_row_accumulation_matches_the_row_loop_bitwise(self, seed,
                                                           dtype):
        # the embedding node's scatter, on a gradient already holding
        # values, with rows repeated many times over
        rng = np.random.default_rng(seed)
        rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 70))
        size = int(rng.integers(0, 8 * rows)) if seed else 0  # seed 0: empty
        idx = rng.integers(0, rows, size=size)
        grad = (rng.normal(size=(size, width))
                * 10.0 ** rng.integers(-6, 6, size=(size, 1))).astype(dtype)
        start = rng.normal(size=(rows, width)).astype(dtype)
        table = Tensor(np.zeros((rows, width), dtype=dtype))
        table.grad = start.copy()
        table._accumulate_rows(idx, grad)
        expect = start.copy()
        for i, row in enumerate(idx):
            expect[row] += grad[i]
        assert table.grad.dtype == dtype
        assert table.grad.tobytes() == expect.tobytes()
        fresh = Tensor(np.zeros((rows, width), dtype=dtype))
        fresh._accumulate_rows(idx, grad)
        expect = np.zeros((rows, width), dtype=dtype)
        np.add.at(expect, idx, grad)
        assert fresh.grad.tobytes() == expect.tobytes()

    def test_row_accumulation_into_a_transposed_gradient(self):
        table = Tensor(np.zeros((3, 2)))
        table.grad = np.arange(6.0).reshape(2, 3).T
        table._accumulate_rows(np.array([0, 0, 2]), np.ones((3, 2)))
        assert table.grad.tolist() == [[2.0, 5.0], [1.0, 4.0], [3.0, 6.0]]

    def test_shape_errors_name_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError):
            take_rows(Tensor(np.zeros((2, 2))), [5])


class TestBackward:
    def test_sum_gives_all_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        sum_all(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_logit_loss_of_dot_at_zero_weight(self):
        # d bce(w.x, y)/dw at w=0 is (sigmoid(0) - y) x = (0.5 - y) x
        x_vals = np.array([[0.7, -1.2, 2.0], [1.5, 0.5, -0.25]])
        y = np.array([[1.0], [0.0]])
        w = Tensor(np.zeros((3, 1)))
        out = sum_all(bce_with_logits(matmul(Tensor(x_vals), w), y))
        out.backward()
        assert np.allclose(w.grad, x_vals.T @ (0.5 - y))

    def test_non_scalar_backward_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).backward()

    def test_gradient_accumulates_over_shared_nodes(self):
        x = Tensor([2.0])
        y = add(mul(x, x), x)  # x^2 + x, grad = 2x + 1 = 5
        sum_all(y).backward()
        assert np.allclose(x.grad, [5.0])

    def test_shared_first_gradient_is_copied(self):
        # add hands one array to both parents; a second gradient for one
        # parent must not reach the other.
        a, b = Tensor(np.zeros(3)), Tensor(np.zeros(3))
        shared = np.ones(3)
        add(a, b)._backward(shared)
        a._accumulate(np.full(3, 2.0))
        assert np.array_equal(a.grad, [3.0, 3.0, 3.0])
        assert np.array_equal(b.grad, [1.0, 1.0, 1.0])
        assert np.array_equal(shared, [1.0, 1.0, 1.0])

    def test_shared_first_gradient_is_copied_in_backward(self):
        # The walk runs add(a, b) before a * 2, so a's second gradient
        # arrives after a and b adopted the same one.
        a, b = Tensor(np.zeros(2)), Tensor(np.zeros(2))
        sum_all(add(add(a, b), mul(a, constant(2.0)))).backward()
        assert np.array_equal(a.grad, [3.0, 3.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_inner_gradients_are_released_and_leaves_keep_theirs(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        w = Tensor(np.ones((3, 2)))
        product = matmul(x, w)
        hidden = relu(product)
        loss = sum_all(hidden)
        loss.backward()
        assert product.grad is None and hidden.grad is None
        assert loss.grad is None
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))
        assert np.array_equal(w.grad, np.array([[3.0, 3.0], [5.0, 5.0],
                                                [7.0, 7.0]]))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_constant_operand_of_matmul_takes_no_gradient(self, side,
                                                             monkeypatch):
        # matmul computes no product for the constant either
        handed = []
        monkeypatch.setattr(type(constant(0.0)), "_accumulate",
                            lambda self, grad: handed.append(grad))
        rng = np.random.default_rng(0)
        m, h = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        if side == "right":
            m, h = m.T, h.T
        grads = []
        for wrap in (Tensor, constant):
            held, x = wrap(m), Tensor(h)
            operands = (held, x) if side == "left" else (x, held)
            sum_all(matmul(*operands)).backward()
            grads.append((held.grad, x.grad))
        (tensor_m, tensor_h), (const_m, const_h) = grads
        assert tensor_m is not None and const_m is None and not handed
        assert const_h.tobytes() == tensor_h.tobytes()

    def test_first_gradient_of_wrong_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3)))._accumulate(np.ones(3))


def _finite_diff_check(build, params, tol, step=1e-6):
    err = grad_check(build, params, step=step)
    assert err < tol, f"max relative error {err}"


class TestFiniteDifferences:
    """Each op composed into a scalar and checked against central
    differences."""

    def test_linear_is_nearly_exact(self):
        w = Parameter("w", Tensor(np.array([[1.0, -2.0], [0.5, 3.0]])))
        x = Tensor(np.array([[0.3, -1.7]]))
        _finite_diff_check(
            lambda: sum_all(matmul(x, w.tensor)), [w], tol=1e-9
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composed_expression(self, seed):
        rng = np.random.default_rng(seed)
        a = Parameter("a", Tensor(rng.normal(size=(3, 4))))
        b = Parameter("b", Tensor(rng.normal(size=(4, 3))))
        c = Parameter("c", Tensor(rng.normal(size=(3,))))

        def build():
            h = relu(matmul(a.tensor, b.tensor))
            h = add(h, c.tensor)
            h = bce_with_logits(h, np.eye(3))
            return sum_all(mul(h, h))

        _finite_diff_check(build, [a, b, c], tol=1e-5)

    def test_each_core_op(self):
        rng = np.random.default_rng(42)
        p = Parameter("p", Tensor(rng.normal(size=(4, 5))))
        q = Parameter("q", Tensor(rng.normal(size=(4, 5))))
        r = Parameter("r", Tensor(rng.normal(size=(5, 4))))
        gain = Parameter("gain", Tensor(rng.normal(size=(5,)) + 1.0))
        bias = Parameter("bias", Tensor(rng.normal(size=(5,))))
        idx = rng.integers(0, 4, size=6)
        y = np.arange(20).reshape(4, 5) % 2

        cases = {
            "add": lambda: sum_all(add(p.tensor, q.tensor)),
            "mul": lambda: sum_all(mul(p.tensor, q.tensor)),
            "matmul": lambda: sum_all(matmul(p.tensor, r.tensor)),
            "relu": lambda: sum_all(mul(relu(p.tensor), q.tensor)),
            "layer_norm": lambda: sum_all(
                mul(layer_norm(p.tensor, gain.tensor, bias.tensor), q.tensor)
            ),
            "take_rows": lambda: sum_all(
                mul(take_rows(p.tensor, idx), take_rows(q.tensor, idx))
            ),
            "broadcast_add": lambda: sum_all(
                bce_with_logits(
                    add(matmul(p.tensor, constant(np.ones((5, 1)))),
                        take_rows(q.tensor, [0])), y)
            ),
            "bce_with_logits": lambda: sum_all(
                mul(bce_with_logits(p.tensor, y), q.tensor)
            ),
        }
        for name, build in cases.items():
            err = grad_check(build, [p, q, r, gain, bias])
            assert err < 1e-5, f"{name}: max relative error {err}"


def old_sigmoid(x):
    """The sigmoid graph op's forward value before the loss took logits:
    the reference :func:`sigmoid` must equal bit for bit."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


BCE_CLIP = 1e-7


def clipped_bce(p, y):
    """The cross entropy of probabilities that the logit loss replaced:
    value and gradient in ``p``, clipped to [BCE_CLIP, 1 - BCE_CLIP] with
    a zero gradient where the clip binds."""
    pc = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    value = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    unclipped = (p > BCE_CLIP) & (p < 1.0 - BCE_CLIP)
    return value, (-(y / pc) + (1.0 - y) / (1.0 - pc)) * unclipped


def logit_loss(z, y):
    """Value and gradient in ``z`` of ``bce_with_logits``, elementwise."""
    zt = Tensor(z)
    out = bce_with_logits(zt, y)
    sum_all(out).backward()
    return out.values, zt.grad


class TestLogitLoss:
    def test_grad_check(self):
        rng = np.random.default_rng(8)
        z = Parameter("z", Tensor(rng.normal(scale=3.0, size=(6, 7))))
        y = rng.integers(0, 2, size=(6, 7))
        err = grad_check(lambda: sum_all(bce_with_logits(z.tensor, y)), [z])
        assert err < 1e-5

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_equals_the_clipped_loss_where_the_clip_does_not_bind(self,
                                                                  target):
        z = np.linspace(-17.0, 17.0, 6801)
        p = sigmoid(z)
        z = z[(p > BCE_CLIP) & (p < 1.0 - BCE_CLIP)]
        y = np.full_like(z, target)
        old, old_dp = clipped_bce(sigmoid(z), y)
        new, dz = logit_loss(z, y)
        assert z.min() < -15.0 and z.max() > 15.0
        near = np.abs(z) <= 8.0
        assert np.abs(new - old)[near].max() <= 1e-12
        # Farther out the reference rounds 1 - p, an error of up to an
        # ulp of 1 in a number near exp(-|z|).
        assert np.all(np.abs(new - old)
                      <= 1e-12 + np.finfo(float).eps * np.exp(np.abs(z)))
        # the chain rule through the sigmoid, p (1 - p) dp, is sigmoid - y
        p = sigmoid(z)
        assert np.allclose(dz, p * (1.0 - p) * old_dp, rtol=1e-6, atol=1e-12)

    def test_saturated_wrong_logit_still_learns(self):
        z, y = np.array([-40.0]), np.array([1.0])
        _, old_dp = clipped_bce(sigmoid(z), y)
        assert old_dp[0] == 0.0
        value, dz = logit_loss(z, y)
        assert dz[0] == -1.0
        assert value[0] == 40.0

    def test_extreme_logits_are_finite_without_warnings(self):
        z = np.array([-800.0, -800.0, 800.0, 800.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, dz = logit_loss(z, y)
        assert np.array_equal(value, [0.0, 800.0, 800.0, 0.0])
        assert np.array_equal(dz, [0.0, -1.0, 1.0, 0.0])

    def test_targets_must_match_the_logits(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            bce_with_logits(Tensor(np.zeros(3)), np.zeros(2))

    def test_sigmoid_is_bit_equal_to_the_old_op(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0,
                   5e-324, -5e-324, 36.7, -36.7, 710.0, -745.2]
        x = np.concatenate([special, np.linspace(-60.0, 60.0, 24001),
                            np.random.default_rng(3).normal(scale=20.0,
                                                            size=5000)])
        assert sigmoid(x).tobytes() == old_sigmoid(x).tobytes()
        grid = x.reshape(-1, 7)
        assert sigmoid(grid).tobytes() == old_sigmoid(grid).tobytes()


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = ParameterStore(np.float64)
        p = store.create("p", np.array([1.0, -2.0, 3.0]))
        opt = Adam(store, lr=0.1)
        before = p.values.copy()
        for _ in range(5):
            opt.zero_grad()
            opt.step()
        assert np.array_equal(p.values, before)

    def test_first_step_matches_hand_formula(self):
        # constant gradient 1, lr 0.1: m_hat = 1, v_hat = 1,
        # step = 0.1 * 1 / (sqrt(1) + 1e-8)
        store = ParameterStore(np.float64)
        p = store.create("p", np.array(5.0))
        opt = Adam(store, lr=0.1)
        opt.zero_grad()
        p.tensor.grad = np.array(1.0)
        opt.step()
        expected = 5.0 - 0.1 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert p.values == pytest.approx(expected, abs=1e-15)

    def test_identical_parameters_follow_identical_trajectories(self):
        store = ParameterStore(np.float64)
        a = store.create("a", np.array([0.5, -0.5]))
        b = store.create("b", np.array([0.5, -0.5]))
        opt = Adam(store, lr=0.01)
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=2)
            opt.zero_grad()
            a.tensor.grad = g.copy()
            b.tensor.grad = g.copy()
            opt.step()
        assert np.array_equal(a.values, b.values)

    def test_missing_gradient_is_an_error(self):
        store = ParameterStore(np.float64)
        store.create("p", np.zeros(3))
        opt = Adam(store)
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_seeded_runs_are_bitwise_equal(self):
        def run():
            rng = np.random.default_rng(99)
            store = ParameterStore(np.float64)
            w = store.create("w", xavier_uniform(rng, 4, 4, (4, 4)))
            opt = Adam(store, lr=1e-2)
            x = rng.normal(size=(8, 4))
            for _ in range(15):
                opt.zero_grad()
                out = sum_all(bce_with_logits(matmul(Tensor(x), w.tensor),
                                              np.eye(8, 4)))
                out.backward()
                opt.step()
            return w.values.copy()

        assert run().tobytes() == run().tobytes()


def whole_array_adam_step(opt, moments):
    """Adam's update as first written, on whole arrays: the reference
    the blocked in-place step must equal bit for bit."""
    for p in opt.params:
        g = p.tensor.grad
        m, v = moments[p.name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        m_hat = m / (1.0 - opt.beta1 ** opt.t)
        v_hat = v / (1.0 - opt.beta2 ** opt.t)
        p.tensor.values -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


class TestBlockedAdam:
    SHAPES = {"small": (3, 4), "scalar": (), "blocks": (2 * ADAM_BLOCK + 5,)}

    def test_bit_equal_to_the_whole_array_formula(self):
        rng = np.random.default_rng(21)
        stores = [ParameterStore(np.float64), ParameterStore(np.float64)]
        init = {name: rng.normal(size=shape)
                for name, shape in self.SHAPES.items()}
        for store in stores:
            for name, values in init.items():
                store.create(name, values.copy())
        blocked = Adam(stores[0], lr=0.05, betas=(0.8, 0.99), eps=1e-6)
        whole = Adam(stores[1], lr=0.05, betas=(0.8, 0.99), eps=1e-6)
        moments = {name: (np.zeros(shape), np.zeros(shape))
                   for name, shape in self.SHAPES.items()}
        for _ in range(5):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
                     for name, shape in self.SHAPES.items()}
            for store in stores:
                for p in store:
                    p.tensor.grad = grads[p.name].copy()
            blocked.step()
            whole.t += 1
            whole_array_adam_step(whole, moments)
            for name in self.SHAPES:
                assert (stores[0][name].values.tobytes()
                        == stores[1][name].values.tobytes()), name
            # the flat moments hold the parameters' moments in order
            for got, side in ((blocked.m, 0), (blocked.v, 1)):
                expect = np.concatenate([moments[name][side].ravel()
                                         for name in self.SHAPES])
                assert got.tobytes() == expect.tobytes()

    def test_zero_grad_keeps_each_gradient_object(self):
        store = ParameterStore(np.float64)
        for name, shape in self.SHAPES.items():
            store.create(name, np.ones(shape))
        opt = Adam(store)
        opt.zero_grad()
        grads = [p.tensor.grad for p in store]
        for g in grads:
            g += 3.0
        opt.zero_grad()
        assert all(p.tensor.grad is g for p, g in zip(store, grads))
        assert all(not g.any() for g in grads)

    def test_parameters_become_views_of_the_flat_arrays(self):
        store = ParameterStore(np.float64)
        for name, shape in self.SHAPES.items():
            store.create(name, np.full(shape, 2.0))
        store["small"].tensor.grad = np.full((3, 4), 5.0)
        opt = Adam(store)
        assert opt.values.size == sum(p.values.size for p in store)
        for p in store:
            assert np.shares_memory(p.values, opt.values)
            assert p.values.shape == self.SHAPES[p.name]
            assert (p.values == 2.0).all()
        assert np.shares_memory(store["small"].tensor.grad, opt.grads)
        assert (store["small"].tensor.grad == 5.0).all()
        assert store["scalar"].tensor.grad is None
        opt.zero_grad()
        assert all(np.shares_memory(p.tensor.grad, opt.grads) for p in store)

    def test_parameter_replaced_after_build_is_refused(self):
        store = ParameterStore(np.float64)
        p = store.create("p", np.zeros((3, 4)))
        opt = Adam(store)
        p.tensor.values = np.ones((4, 3)).T
        opt.zero_grad()
        with pytest.raises(ValueError, match="parameter 'p': its values "
                                             "were replaced"):
            opt.step()
        assert opt.t == 0

    def test_parameter_loaded_after_build_still_steps(self):
        store = ParameterStore(np.float64)
        p = store.create("p", np.zeros((3, 4)))
        opt = Adam(store, lr=0.1)
        store.load_state_arrays({"p": np.full((3, 4), 7.0)})
        opt.zero_grad()
        p.tensor.grad += 1.0
        opt.step()
        assert np.shares_memory(p.values, opt.values)
        assert np.allclose(p.values, 7.0 - 0.1, rtol=0.0, atol=1e-9)

    def test_assigned_gradient_is_copied_into_the_flat_array(self):
        store = ParameterStore(np.float64)
        p = store.create("p", np.zeros(3))
        opt = Adam(store, lr=0.1)
        opt.zero_grad()
        p.tensor.grad = np.array([1.0, -1.0, 0.0])
        opt.step()
        assert np.shares_memory(p.tensor.grad, opt.grads)
        assert p.tensor.grad.tolist() == [1.0, -1.0, 0.0]
        assert np.allclose(p.values, [-0.1, 0.1, 0.0], rtol=0.0, atol=1e-9)

    def test_mixed_dtypes_are_refused(self):
        params = [Parameter("a", Tensor(np.zeros(2, dtype=np.float32))),
                  Parameter("b", Tensor(np.zeros(2)))]
        with pytest.raises(ValueError, match="one flat array"):
            Adam(params)


class TestParameterStore:
    def test_duplicate_names_rejected(self):
        store = ParameterStore(np.float64)
        store.create("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.create("w", np.zeros(2))

    def test_state_round_trip(self):
        store = ParameterStore(np.float64)
        store.create("a", np.arange(4.0))
        store.create("b", np.ones((2, 2)))
        arrays = store.state_arrays()
        other = ParameterStore(np.float64)
        other.create("a", np.zeros(4))
        other.create("b", np.zeros((2, 2)))
        other.load_state_arrays(arrays)
        assert np.array_equal(other["a"].values, np.arange(4.0))

    def test_shape_mismatch_on_load(self):
        store = ParameterStore(np.float64)
        store.create("a", np.zeros(3))
        with pytest.raises(ShapeError):
            store.load_state_arrays({"a": np.zeros(4)})


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {
            "embed.word": rng.normal(size=(7, 3)),
            "layer0.wqkv": rng.normal(size=(6, 4, 2)),
            "layer0.bias.b": rng.normal(size=(2, 5)),
            "scalar.b": np.array(0.25),
        }
        path = tmp_path / "model.bin"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name]), name

    def test_magic_is_validated(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_version_is_validated(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, {"a": np.zeros(1)})
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # bump the version field
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_trailing_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, {"a": np.arange(3.0)})
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 28)
        with pytest.raises(ValueError,
                           match="model.bin: 28 bytes after the last entry"):
            load_checkpoint(path)

    def test_truncated_file_names_the_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, {"a": np.arange(3.0), "b": np.zeros((2, 2))})
        blob = path.read_bytes()
        for cut in (10, 14, 18, 22, 30, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="model.bin: truncated"):
                load_checkpoint(path)
