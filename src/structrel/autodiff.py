"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

Every operation builds the graph as it computes its forward value and
registers a closure with its backward rule; ``Tensor.backward`` walks the
graph in reverse topological order and accumulates gradients into every
reachable node.  A node's first gradient is stored as a copy (backward
rules may hand one array to two parents, or pass views), later ones are
added into it.  An inner node's gradient is released as soon as its own
backward rule has consumed it; only leaves keep theirs.  A backward may
start from a scaled gradient, as a batch's mean loss asks of each pack.

There are no generic ops here.  The model's nodes are written by hand
where they are used, one per piece of work (a layer's attention, a
block's tail, the embeddings, the pooling, the relation head, the loss),
each a ``Tensor`` built with its parents and backward closure, because a
step's fixed cost is paid per node.

A node's values keep their own dtype when it is float32 or float64, and
anything else becomes float64; gradients take the dtype of their node.
A :class:`ParameterStore` casts every parameter to its dtype, so a model
computes in the dtype its store was given: float32 for training and
inference, float64 where results must be exact, as in the
finite-difference checks of :func:`grad_check`, which refuse anything
else.  :func:`sigmoid` computes in float64 whatever its input unless
given another dtype, so that probabilities near 1 stay distinct; the
loss's gradient asks it for the compute dtype.

:class:`Adam` keeps every parameter's values, gradient and moments in
four flat arrays, the tensors holding views into the first two, and
updates them in one pass of blocks.  A parameter's values are therefore
written in place once an optimizer exists (as
:meth:`ParameterStore.load_state_arrays` writes them); one whose values
were replaced is refused by the next step.  The step's two work arrays,
of one block each, belong to the optimizer too: it allocates them when
built and reuses them on every step.
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

    def _accumulate_rows(self, rows: np.ndarray, grad: np.ndarray) -> None:
        """Add row ``i`` of ``grad`` into row ``rows[i]`` of the gradient,
        a repeated row once per occurrence, in order.  A missing gradient
        starts at zero.

        The gradient is 2-d, (rows, d).  ``np.add.at`` runs on its flat
        view at the flat positions ``rows[i] * d + j``, which gives every
        element the same additions in the same order as ``np.add.at`` on
        whole rows, several times faster.  A gradient assigned in another
        layout is copied to C order first, so that the flat view is one."""
        if self.grad is None:
            self.grad = np.zeros_like(self._values)
        elif not self.grad.flags.c_contiguous:
            self.grad = np.ascontiguousarray(self.grad)
        d = self.grad.shape[1]
        flat = (np.asarray(rows)[:, None] * d + np.arange(d)).ravel()
        np.add.at(self.grad.reshape(-1), flat, grad.reshape(-1))

    def backward(self, scale: float = 1.0) -> None:
        """Reverse-accumulate the gradients of ``scale`` times a scalar
        loss: the walk starts from the gradient ``scale``, in the loss's
        dtype.

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
                # a leaf has no rule to run; its gradient arrives through
                # its children's rules
                if parent._backward is not None and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.full_like(self.values, scale))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


def sigmoid(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The logistic function of an array, from ``exp(-|x|)``, which
    cannot overflow; a plain numpy function, not a graph op.

    It computes in ``dtype``, by default float64 whatever the input's
    dtype: in float32 every logit above about 16.6 would give exactly
    1.0, and probabilities that tie there cannot be ranked or
    thresholded apart.  A gradient, which needs no ranking, may take
    the compute dtype.
    """
    x = np.asarray(x, dtype=dtype)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        """Write ``arrays``, one per parameter and no other, into the
        parameters, each cast to the store's dtype, in which every value
        must be finite."""
        for name in arrays:
            if name not in self._params:
                raise ValueError(f"checkpoint entry {name!r} is no parameter "
                                 f"of the model")
        for p in self:
            if p.name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {p.name!r}")
            with np.errstate(over="ignore"):
                incoming = np.asarray(arrays[p.name], dtype=self.dtype)
            if incoming.shape != p.values.shape:
                raise ShapeError(
                    f"parameter {p.name!r}: checkpoint shape {incoming.shape} "
                    f"does not match model shape {p.values.shape}"
                )
            if not np.isfinite(incoming).all():
                raise ValueError(f"parameter {p.name!r}: a checkpoint value "
                                 f"is not finite as {self.dtype}")
            # in place, so that an optimizer's views stay the values
            np.copyto(p.values, incoming)


#: Elements per block of :meth:`Adam.step`: the flat arrays are updated
#: in blocks of this size, and the optimizer's two work arrays hold one
#: block each, whatever the number of elements.
ADAM_BLOCK = 32 * 1024


class Adam:
    """Adaptive moment estimation with bias correction.

    When built, it moves every trainable parameter's values, and its
    gradient if it has one, into one flat array each, ``values`` and
    ``grads``, parameter after parameter; each tensor keeps a view into
    them as its ``values`` and, once :meth:`zero_grad` has run, as its
    ``grad``.  The moments ``m`` and ``v`` are flat arrays of the same
    layout, so a step is one pass over four flat arrays, in blocks of
    ``ADAM_BLOCK`` elements, with the operations of ``m = b1 m + (1 - b1)
    g``, ``v = b2 v + (1 - b2) g g`` and ``p -= lr m_hat / (sqrt(v_hat) +
    eps)`` in that order; it is bit-equal to the same formula on each
    parameter's whole array.  The step's two work arrays, of
    ``min(size, ADAM_BLOCK)`` elements, are the optimizer's own,
    allocated here.  Every parameter must have the same dtype, which the
    arrays take.

    A gradient that was assigned to a tensor rather than accumulated into
    its view is copied into ``grads`` by the next step.  Values cannot be:
    a parameter whose values were replaced after the optimizer was built
    (rather than written in place, as the store loads them) is refused
    with a ``ValueError`` that names it.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        dtypes = {p.values.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam: parameters of dtypes "
                             f"{sorted(map(str, dtypes))} cannot share "
                             f"one flat array")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        size = sum(p.values.size for p in self.params)
        self.values = np.empty(size, dtype=dtype)
        self.grads = np.zeros(size, dtype=dtype)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self._work = np.empty((2, min(size, ADAM_BLOCK)), dtype=dtype)
        # (parameter, values view, gradient view) in parameter order
        self._views: list[tuple[Parameter, np.ndarray, np.ndarray]] = []
        lo = 0
        for p in self.params:
            shape, hi = p.values.shape, lo + p.values.size
            values = self.values[lo:hi].reshape(shape)
            grad = self.grads[lo:hi].reshape(shape)
            values[...] = p.values
            p.tensor.values = values
            if p.tensor.grad is not None:
                grad[...] = p.tensor.grad
                p.tensor.grad = grad
            self._views.append((p, values, grad))
            lo = hi

    def zero_grad(self) -> None:
        """Zero the flat gradient array and make each parameter's gradient
        its view into it."""
        self.grads.fill(0.0)
        for p, _, grad in self._views:
            p.tensor.grad = grad

    def step(self) -> None:
        for p, values, grad in self._views:
            if p.tensor.values is not values:
                raise ValueError(
                    f"parameter {p.name!r}: its values were replaced after "
                    f"the optimizer was built; write them in place"
                )
            g = p.tensor.grad
            if g is not grad:
                if g is None:
                    raise ValueError(f"parameter {p.name!r} has no gradient; "
                                     f"call backward first")
                np.copyto(grad, g)
                p.tensor.grad = grad
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        work1, work2 = self._work
        for lo in range(0, self.values.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            gb, mb, vb, pb = (self.grads[block], self.m[block],
                              self.v[block], self.values[block])
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
            if name in arrays:
                raise ValueError(f"{path}: entry {name!r} appears twice")
            data = read(math.prod(shape) * 8)
            values = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: entry {name!r} holds a non-finite "
                                 f"value")
            arrays[name] = values
        trailing = size - fh.tell()
        if trailing:
            raise ValueError(f"{path}: {trailing} bytes after the last "
                             f"entry")
    return arrays
