"""Generic graph ops that the model no longer builds, kept as references
for the hand-written nodes that replaced them, and to build test graphs
around a node.

``encoder.block_tail`` replaced a layer's :func:`matmul`, ``add``,
``layer_norm`` and ``relu`` ops after the attention;
``model.embedding_sum`` replaced four :func:`take_rows` and three
:func:`add`; ``model.pool_blocks`` replaced the :func:`matmul` of a
constant pooling matrix; ``model.sigmoid_cross_entropy`` replaced
:func:`sum_all` of :func:`bce_with_logits`; ``Tensor.backward(scale)``
replaced :func:`mul` by a :func:`constant` ``1 / B``.  Each op is as it
last stood in ``structrel.autodiff``, so a test can build the graph the
model built and compare values and gradients with the node.
"""
import numpy as np

from structrel.autodiff import ShapeError, Tensor, _as_array, sigmoid


class _Constant(Tensor):
    """A leaf that takes no gradient."""

    __slots__ = ()

    def _accumulate(self, grad: np.ndarray) -> None:
        pass


def constant(values, dtype=None) -> Tensor:
    """A leaf holding ``values``, cast to ``dtype`` when one is given.  It
    takes no gradient."""
    return _Constant(values if dtype is None else np.asarray(values, dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(values, (a, b))

    def _backward(grad):
        a._accumulate(_unbroadcast(grad * b.values, a.shape))
        b._accumulate(_unbroadcast(grad * a.values, b.shape))

    out._backward = _backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = Tensor(a.values @ b.values, (a, b))

    def _backward(grad):
        if not isinstance(a, _Constant):
            a._accumulate(grad @ b.values.T)
        if not isinstance(b, _Constant):
            b._accumulate(a.values.T @ grad)

    out._backward = _backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(values, (a, b))

    def _backward(grad):
        a._accumulate(_unbroadcast(grad, a.shape))
        b._accumulate(_unbroadcast(grad, b.shape))

    out._backward = _backward
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum(), (a,))

    def _backward(grad):
        a._accumulate(np.broadcast_to(grad, a.values.shape).copy())

    out._backward = _backward
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.values, 0.0), (a,))

    def _backward(grad):
        a._accumulate(grad * (a.values > 0.0))

    out._backward = _backward
    return out


def take_rows(table: Tensor, indices) -> Tensor:
    """Row gather (embedding lookup); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.values.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix table, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.values.shape[0]):
        raise ShapeError(
            f"take_rows: index out of range for table with "
            f"{table.values.shape[0]} rows"
        )
    out = Tensor(table.values[idx], (table,))

    def _backward(grad):
        # One bincount over flat (row, column) positions: the same
        # sequential sums as ``np.add.at``, several times faster.
        rows, width = table.values.shape
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        g = np.bincount(flat, weights=grad.ravel(), minlength=rows * width)
        table._accumulate(g.reshape(rows, width))

    out._backward = _backward
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply
    an elementwise affine."""
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(xhat * gain.values + bias.values, (a, gain, bias))

    def _backward(grad):
        dxhat = grad * gain.values
        # standard layer-norm backward, derived from the normalization chain
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        a._accumulate(dx)
        axes = tuple(range(grad.ndim - 1))
        gain._accumulate((grad * xhat).sum(axis=axes))
        bias._accumulate(grad.sum(axis=axes))

    out._backward = _backward
    return out


def bce_with_logits(z: Tensor, targets) -> Tensor:
    """Elementwise sigmoid cross entropy of logits against 0/1 targets,
    ``max(z, 0) - z y + log1p(exp(-|z|))``, finite for any finite ``z``;
    its gradient is ``sigmoid(z) - y``."""
    y = _as_array(targets)
    if y.shape != z.values.shape:
        raise ShapeError(
            f"bce_with_logits: target shape {y.shape} does not match "
            f"{z.shape}"
        )
    x = z.values
    values = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def _backward(grad):
        z._accumulate(grad * (sigmoid(x) - y))

    return Tensor(values, (z,), _backward)




# ---- the graphs the hand-written nodes replaced -----------------------


def reference_block_tail(store, x: Tensor, heads: Tensor,
                         layer: int) -> Tensor:
    """``encoder.block_tail`` as the graph ops it replaced, ten nodes."""
    def param(name):
        return store[f"layer{layer}.{name}"].tensor

    merged = matmul(heads, param("wo"))
    x = layer_norm(add(x, merged), param("ln1.gain"), param("ln1.bias"))
    hidden = relu(add(matmul(x, param("ffn.w1")), param("ffn.b1")))
    ffn = add(matmul(hidden, param("ffn.w2")), param("ffn.b2"))
    return layer_norm(add(x, ffn), param("ln2.gain"), param("ln2.bias"))


def reference_embedding_sum(tables, rows) -> Tensor:
    """``model.embedding_sum`` as gathers and additions; ``rows`` are
    index arrays."""
    x = take_rows(tables[0], rows[0])
    for table, idx in zip(tables[1:], rows[1:]):
        x = add(x, take_rows(table, idx))
    return x


def reference_cross_entropy(logits: Tensor, targets) -> Tensor:
    """``model.sigmoid_cross_entropy`` as the elementwise loss and a sum."""
    return sum_all(bce_with_logits(logits, targets))
