import numpy as np
import pytest

from structrel.autodiff import (
    Adam,
    Parameter,
    ParameterStore,
    ShapeError,
    Tensor,
    add,
    binary_cross_entropy,
    concat,
    constant,
    grad_check,
    layer_norm,
    load_checkpoint,
    matmul,
    mul,
    relu,
    save_checkpoint,
    sigmoid,
    sum_all,
    take_rows,
    xavier_uniform,
)


class TestForward:
    def test_matmul_identity(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        out = matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.array_equal(out.values, x)

    def test_relu_and_sigmoid_values(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).values,
                              [0.0, 0.0, 2.0])
        assert np.allclose(sigmoid(Tensor([0.0])).values, [0.5])
        assert sigmoid(Tensor([800.0])).values[0] == pytest.approx(1.0)
        assert sigmoid(Tensor([-800.0])).values[0] == pytest.approx(0.0)

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

    def test_sigmoid_of_dot_at_zero_weight(self):
        # d sigmoid(w.x)/dw at w=0 is 0.25 * x
        x_vals = np.array([[0.7, -1.2, 2.0]])
        w = Tensor(np.zeros((3, 1)))
        out = sum_all(sigmoid(matmul(Tensor(x_vals), w)))
        out.backward()
        assert np.allclose(w.grad, 0.25 * x_vals.T)

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
        sum_all(add(add(a, b), a * 2.0)).backward()
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
            h = sigmoid(h)
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

        cases = {
            "add": lambda: sum_all(add(p.tensor, q.tensor)),
            "mul": lambda: sum_all(mul(p.tensor, q.tensor)),
            "matmul": lambda: sum_all(matmul(p.tensor, r.tensor)),
            "concat0": lambda: sum_all(
                mul(concat([p.tensor, q.tensor], axis=0),
                    concat([q.tensor, p.tensor], axis=0))
            ),
            "concat1": lambda: sum_all(
                mul(sigmoid(concat([p.tensor, q.tensor], axis=1)),
                    concat([q.tensor, p.tensor], axis=1))
            ),
            "sigmoid": lambda: sum_all(mul(sigmoid(p.tensor), q.tensor)),
            "relu": lambda: sum_all(mul(relu(p.tensor), q.tensor)),
            "layer_norm": lambda: sum_all(
                mul(layer_norm(p.tensor, gain.tensor, bias.tensor), q.tensor)
            ),
            "take_rows": lambda: sum_all(
                mul(take_rows(p.tensor, idx), take_rows(q.tensor, idx))
            ),
            "broadcast_add": lambda: sum_all(
                sigmoid(add(matmul(p.tensor, constant(np.ones((5, 1)))),
                            take_rows(q.tensor, [0])))
            ),
            "bce": lambda: sum_all(
                binary_cross_entropy(sigmoid(p.tensor),
                                     (np.arange(20).reshape(4, 5) % 2))
            ),
        }
        for name, build in cases.items():
            err = grad_check(build, [p, q, r, gain, bias])
            assert err < 1e-5, f"{name}: max relative error {err}"


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = ParameterStore()
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
        store = ParameterStore()
        p = store.create("p", np.array(5.0))
        opt = Adam(store, lr=0.1)
        opt.zero_grad()
        p.tensor.grad = np.array(1.0)
        opt.step()
        expected = 5.0 - 0.1 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert p.values == pytest.approx(expected, abs=1e-15)

    def test_identical_parameters_follow_identical_trajectories(self):
        store = ParameterStore()
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
        store = ParameterStore()
        store.create("p", np.zeros(3))
        opt = Adam(store)
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_seeded_runs_are_bitwise_equal(self):
        def run():
            rng = np.random.default_rng(99)
            store = ParameterStore()
            w = store.create("w", xavier_uniform(rng, 4, 4, (4, 4)))
            opt = Adam(store, lr=1e-2)
            x = rng.normal(size=(8, 4))
            for _ in range(15):
                opt.zero_grad()
                out = sum_all(sigmoid(matmul(Tensor(x), w.tensor)))
                out.backward()
                opt.step()
            return w.values.copy()

        assert run().tobytes() == run().tobytes()


class TestParameterStore:
    def test_duplicate_names_rejected(self):
        store = ParameterStore()
        store.create("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.create("w", np.zeros(2))

    def test_state_round_trip(self):
        store = ParameterStore()
        store.create("a", np.arange(4.0))
        store.create("b", np.ones((2, 2)))
        arrays = store.state_arrays()
        other = ParameterStore()
        other.create("a", np.zeros(4))
        other.create("b", np.zeros((2, 2)))
        other.load_state_arrays(arrays)
        assert np.array_equal(other["a"].values, np.arange(4.0))

    def test_shape_mismatch_on_load(self):
        store = ParameterStore()
        store.create("a", np.zeros(3))
        with pytest.raises(ShapeError):
            store.load_state_arrays({"a": np.zeros(4)})


class TestCheckpoint:
    def test_round_trip_including_moments(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {
            "embed.word": rng.normal(size=(7, 3)),
            "layer0.head0.wq": rng.normal(size=(3, 3)),
            "scalar.b": np.array(0.25),
            "adam.t": np.array(12.0),
            "adam.m.embed.word": rng.normal(size=(7, 3)),
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

    def test_truncated_file_names_the_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, {"a": np.arange(3.0), "b": np.zeros((2, 2))})
        blob = path.read_bytes()
        for cut in (10, 14, 18, 22, 30, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="model.bin: truncated"):
                load_checkpoint(path)
