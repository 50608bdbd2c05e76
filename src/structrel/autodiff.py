"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

Every operation builds the graph as it computes its forward value and
registers a closure with its backward rule; ``Tensor.backward`` walks the
graph in reverse topological order and accumulates gradients into every
reachable node.  A node's first gradient is stored as a copy (backward
rules may hand one array to two parents, or pass views), later ones are
added into it.  An inner node's gradient is released as soon as its own
backward rule has consumed it; only leaves (parameters and constants)
keep theirs.  Storage is float64 throughout: double precision keeps
finite-difference checks tight.

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


_SCRATCH: dict[str, np.ndarray] = {}


def scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous float64 view of shape ``shape`` into the buffer
    ``name``, which lives as long as the process and only grows.

    The view's contents are whatever the last user left.  The rule for
    using one: the array dies inside the call that asks for it; it is
    never a graph value or gradient, never saved for a backward and never
    returned.  One name serves one temporary at a time, so two arrays
    alive together need two names, and the buffers are not for threads.
    """
    size = math.prod(shape)
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < size:
        buf = _SCRATCH[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


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

    def __mul__(self, other):
        """Elementwise product; a non-tensor operand is wrapped as a
        constant."""
        return mul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(values) -> Tensor:
    return Tensor(values)


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
        a._accumulate(grad @ b.values.T)
        b._accumulate(a.values.T @ grad)

    out._backward = _backward
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    values = np.concatenate([p.values for p in parts], axis=axis)
    out = Tensor(values, tuple(parts))
    sizes = [p.values.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def _backward(grad):
        for p, piece in zip(parts, np.split(grad, splits, axis=axis)):
            p._accumulate(piece)

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


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    values = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                      np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(values, (a,))

    def _backward(grad):
        a._accumulate(grad * values * (1.0 - values))

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


BCE_CLIP = 1e-7


def binary_cross_entropy(p: Tensor, targets) -> Tensor:
    """Elementwise cross entropy against 0/1 targets.

    Probabilities are clipped to [BCE_CLIP, 1 - BCE_CLIP]; the gradient is
    zero where the clip binds.
    """
    y = _as_array(targets)
    if y.shape != p.values.shape:
        raise ShapeError(
            f"binary_cross_entropy: target shape {y.shape} does not match "
            f"{p.shape}"
        )
    pc = np.clip(p.values, BCE_CLIP, 1.0 - BCE_CLIP)
    values = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    out = Tensor(values, (p,))
    unclipped = (p.values > BCE_CLIP) & (p.values < 1.0 - BCE_CLIP)

    def _backward(grad):
        dp = (-(y / pc) + (1.0 - y) / (1.0 - pc)) * unclipped
        p._accumulate(grad * dp)

    out._backward = _backward
    return out


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
    """Ordered, uniquely named parameter registry."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, values, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
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
            incoming = np.asarray(arrays[p.name], dtype=np.float64)
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
    C-contiguous, as the store creates and loads them.
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
        work1 = scratch("adam.w1", (ADAM_BLOCK,))
        work2 = scratch("adam.w2", (ADAM_BLOCK,))
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                raise ValueError(
                    f"parameter {p.name!r} has no gradient; call backward first"
                )
            if not p.values.flags.c_contiguous:
                raise ValueError(f"parameter {p.name!r} is not C-contiguous")
            flat = p.values.reshape(-1)
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
    """
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
    name, shape, and raw little-endian doubles."""
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
