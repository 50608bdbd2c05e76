"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

Every operation builds the graph as it computes its forward value and
registers a closure with its backward rule; ``Tensor.backward`` walks the
graph in reverse topological order and accumulates gradients into every
reachable node.  A node's first gradient is stored as a copy (backward
rules may hand one array to two parents, or pass views), later ones are
added into it.  An inner node's gradient is released as soon as its own
backward rule has consumed it; only leaves keep theirs, and a
:func:`constant` takes none.

A node's values keep their own dtype when it is float32 or float64, and
anything else becomes float64; gradients take the dtype of their node.
A :class:`ParameterStore` casts every parameter to its dtype, so a model
computes in the dtype its store was given: float32 for training and
inference, float64 where results must be exact, as in the
finite-difference checks of :func:`grad_check`, which refuse anything
else.  :func:`sigmoid` alone computes in float64 whatever its input, so
that probabilities near 1 stay distinct.

:func:`scratch` hands out views of process-wide buffers for temporaries
that die inside the call that makes them.  Full-size temporaries taken
from the C allocator are served from fresh pages and handed back to the
system when freed, so a training loop would fault them in again on every
document; a scratch buffer is faulted in once and reused.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


_SCRATCH: dict[tuple[str, np.dtype], np.ndarray] = {}


def scratch(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous view of shape ``shape`` and dtype ``dtype`` into the
    buffer ``(name, dtype)``, which lives as long as the process and only
    grows.

    The view's contents are whatever the last user left.  The rule for
    using one: the array dies inside the call that asks for it; it is
    never a graph value or gradient, never saved for a backward and never
    returned.  One name serves one temporary at a time, so two arrays
    alive together need two names, and the buffers are not for threads.
    """
    size = math.prod(shape)
    key = (name, np.dtype(dtype))
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < size:
        buf = _SCRATCH[key] = np.empty(size, dtype=key[1])
    return buf[:size].reshape(shape)


#: The dtypes a graph value keeps; any other input becomes float64.
FLOAT_DTYPES = (np.float32, np.float64)


def _as_array(values) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.type in FLOAT_DTYPES:
        return values
    return values.astype(np.float64)


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("_values", "grad", "_parents", "_backward")

    def __init__(self, values, _parents: tuple = (), _backward=None):
        self._values = _as_array(values)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward: Optional[Callable[[np.ndarray], None]] = _backward

    @property
    def values(self) -> np.ndarray:
        return self._values

    @values.setter
    def values(self, new) -> None:
        self._values = _as_array(new)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            if grad.shape != self._values.shape:
                raise ShapeError(
                    f"gradient of shape {grad.shape} for a node of shape "
                    f"{self._values.shape}"
                )
            # A copy in the node's own layout: the caller may still use
            # ``grad``, or have handed the same array to another parent.
            # Unlike zero-fill and add, the copy keeps a -0.0; that cannot
            # change a parameter's gradient, which starts at +0.0.
            self.grad = np.empty_like(self._values)
            np.copyto(self.grad, grad)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Reverse-accumulate gradients from a scalar loss.

        Leaves gain (or add to) their ``grad``.  Each inner node's
        ``grad`` is set to None once its backward rule has run, so at most
        the gradients still waiting to be consumed are alive.
        """
        if self.values.size != 1:
            raise ShapeError(
                f"backward requires a scalar, got shape {self.values.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.values))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


class _Constant(Tensor):
    """A leaf that takes no gradient."""

    __slots__ = ()

    def _accumulate(self, grad: np.ndarray) -> None:
        pass


def constant(values, dtype=None) -> Tensor:
    """A leaf holding ``values``, cast to ``dtype`` when one is given.  It
    takes no gradient, and :func:`matmul` computes none for it."""
    return _Constant(values if dtype is None else np.asarray(values, dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function of an array, from ``exp(-|x|)``, which
    cannot overflow; a plain numpy function, not a graph op.

    It computes in float64 whatever the input's dtype: in float32 every
    logit above about 16.6 would give exactly 1.0, and probabilities
    that tie there cannot be ranked or thresholded apart.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


@dataclass
class Parameter:
    """A named trainable leaf."""

    name: str
    tensor: Tensor
    trainable: bool = True

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values


class ParameterStore:
    """Ordered, uniquely named parameter registry.  Every parameter it
    creates or loads is cast to its ``dtype``, float32 or float64."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        if self.dtype.type not in FLOAT_DTYPES:
            raise ValueError(f"parameter dtype must be float32 or float64, "
                             f"got {self.dtype}")
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, values, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        values = np.asarray(values, dtype=self.dtype, order="C")
        param = Parameter(name, Tensor(values), trainable)
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.values.copy() for p in self}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self:
            if p.name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {p.name!r}")
            incoming = np.asarray(arrays[p.name], dtype=self.dtype)
            if incoming.shape != p.values.shape:
                raise ShapeError(
                    f"parameter {p.name!r}: checkpoint shape {incoming.shape} "
                    f"does not match model shape {p.values.shape}"
                )
            p.tensor.values = incoming.copy()


#: Elements per block of :meth:`Adam.step`: every parameter is updated in
#: flat blocks of this size, and the step's two work arrays are scratch of
#: this size, whatever the size of the largest parameter.
ADAM_BLOCK = 16 * 1024


class Adam:
    """Adaptive moment estimation with bias correction.

    Moment state persists between steps, keyed by parameter name.  The
    update runs in place, in flat blocks of ``ADAM_BLOCK`` elements, with
    the operations of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``
    and ``p -= lr m_hat / (sqrt(v_hat) + eps)`` in that order, so it is
    bit-equal to the same formula on whole arrays.  Parameters must be
    C-contiguous, as the store creates and loads them.  Moments and work
    arrays take each parameter's dtype.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.values) for p in self.params}
        self.v = {p.name: np.zeros_like(p.values) for p in self.params}

    def zero_grad(self) -> None:
        """Zero every gradient in place; a parameter without one gets a
        zero array."""
        for p in self.params:
            if p.tensor.grad is None:
                p.tensor.grad = np.zeros_like(p.values)
            else:
                p.tensor.grad.fill(0.0)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                raise ValueError(
                    f"parameter {p.name!r} has no gradient; call backward first"
                )
            if not p.values.flags.c_contiguous:
                raise ValueError(f"parameter {p.name!r} is not C-contiguous")
            flat = p.values.reshape(-1)
            work1 = scratch("adam.w1", (ADAM_BLOCK,), flat.dtype)
            work2 = scratch("adam.w2", (ADAM_BLOCK,), flat.dtype)
            g, m, v = (g.reshape(-1), self.m[p.name].reshape(-1),
                       self.v[p.name].reshape(-1))
            for lo in range(0, flat.size, ADAM_BLOCK):
                hi = lo + ADAM_BLOCK
                gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], flat[lo:hi]
                w1, w2 = work1[:pb.size], work2[:pb.size]
                mb *= b1
                np.multiply(1.0 - b1, gb, out=w1)
                mb += w1
                vb *= b2
                np.multiply(1.0 - b2, gb, out=w1)
                w1 *= gb
                vb += w1
                np.divide(mb, c1, out=w1)
                np.multiply(self.lr, w1, out=w1)
                np.divide(vb, c2, out=w2)
                np.sqrt(w2, out=w2)
                w2 += self.eps
                w1 /= w2
                pb -= w1


def grad_check(build: Callable[[], Tensor], params: Sequence[Parameter],
               step: float = 1e-6,
               max_elements_per_param: Optional[int] = None,
               seed: int = 0) -> float:
    """Compare analytic gradients with central finite differences.

    ``build`` must construct a fresh scalar loss from the parameters'
    current values.  Returns the max over checked elements of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.

    Every parameter must be float64: in float32 a central difference at
    a step like 1e-6 measures rounding, not the gradient.
    """
    for p in params:
        if p.values.dtype != np.float64:
            raise ValueError(f"grad_check: parameter {p.name!r} is "
                             f"{p.values.dtype}, not float64")
    for p in params:
        p.tensor.grad = np.zeros_like(p.values)
    loss = build()
    loss.backward()
    analytic = {p.name: p.tensor.grad.copy() for p in params}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.tensor.values.reshape(-1)
        n = flat.size
        if max_elements_per_param is not None and n > max_elements_per_param:
            picks = rng.choice(n, size=max_elements_per_param, replace=False)
        else:
            picks = range(n)
        ana_flat = analytic[p.name].reshape(-1)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + step
            up = float(build().values)
            flat[i] = orig - step
            down = float(build().values)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = ana_flat[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


CHECKPOINT_MAGIC = b"SRELCKPT"
#: Version 3 stores the relation head as one array, ``head.rel.W``;
#: version 2 stored it one array per relation.  Version 2 also first
#: stored each layer's attention parameters stacked (``wqkv``, ``bias.A``
#: and so on) and no optimizer state; version 1 stored them one array per
#: head, projection and dependency type, with Adam's moments.
CHECKPOINT_VERSION = 3


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a named-array archive: versioned header, then per entry the
    name, shape, and raw little-endian doubles, which hold float32
    values exactly."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n_bytes: int) -> bytes:
            if n_bytes > size - fh.tell():
                raise ValueError(f"{path}: truncated checkpoint")
            return fh.read(n_bytes)

        def read_u32() -> int:
            return struct.unpack("<I", read(4))[0]

        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version = read_u32()
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version "
                             f"{version}, expected {CHECKPOINT_VERSION}")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(read_u32()):
            try:
                name = read(read_u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: entry name is not UTF-8") from exc
            shape = tuple(read_u32() for _ in range(read_u32()))
            n_items = math.prod(shape)
            data = read(n_items * 8)
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return arrays
