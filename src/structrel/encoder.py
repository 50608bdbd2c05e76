"""Structured self-attention encoder.

Each block is standard post-norm multi-head attention plus a feed-forward
network, with one addition: before the softmax, every query-key score
whose token pair has a dependency receives a learned scalar bias chosen
by that dependency type.  Two bias parameterizations are supported, a
bilinear (biaffine) form ``q A_s k^T + b_s`` and a decomposed linear form
``q K_s + Q_s k + b_s`` whose three terms can be toggled independently.

The attention of a layer, all heads together, is one graph node
(:func:`structured_attention`).  Its forward stacks the heads'
projections and runs over (H, n, d_h) arrays with numpy's batched ``@``,
in which every head's product keeps the shape it has on its own:
:func:`project_qkv`, then :func:`structured_scores`, then :func:`attend`,
each once per layer.  The node's value is the heads side by side, (n, d);
the output projection and the feed-forward network stay ordinary graph
operations.  Its backward is written out by hand in the same layout, as
FlashAttention does without the tiling (Dao et al., arXiv 2205.14135):
the value, softmax and score gradients, then the bias terms' gradients,
summed per query or key token and type with ``np.add.reduceat`` over the
cells grouped once per structure (:attr:`StructureMatrix.row_groups`,
:attr:`~StructureMatrix.col_groups`); every head's slices of the stacked
gradients then go to the parameters they came from.  Each head's forward
products are those of the head computed alone, so the outputs are
bit-equal to a per-head graph; gradients agree to rounding.

The bias is computed only where there is structure.  Every non-NA cell
gathers its query row, key row and type slot from the five types'
parameters laid side by side, for all heads at once, and the cell biases
are added into the scores at those cells (the gather of Shaw et al.,
arXiv 1803.02155).  NA cells carry no parameters and are never computed,
so a model whose structure is all NA computes the same function as the
unstructured baseline.

Parameters are owned per layer and head (and the bias ones per
dependency type); they are never shared and are stored one array each,
so names and checkpoints do not depend on the stacking.  Every function
here reads the model's :class:`~structrel.config.ModelConfig`: the stack
shape, the four ``bias_*`` term toggles and the structured-layer range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .autodiff import (
    ParameterStore,
    Tensor,
    add,
    layer_norm,
    matmul,
    relu,
    xavier_uniform,
)
from .structure import (
    STRUCTURED_TYPES,
    CellGroups,
    DependencyType,
    StructureMatrix,
)

if TYPE_CHECKING:
    from .config import ModelConfig

N_TYPES = len(STRUCTURED_TYPES)
PROJECTIONS = ("wq", "wk", "wv")


@dataclass(frozen=True)
class BiasRecord:
    """Mean attentive bias over one document's cells of one dependency
    type, for one layer and head."""

    layer: int
    head: int
    dependency: DependencyType
    mean_bias: float
    count: int

    def __post_init__(self):
        if self.dependency == DependencyType.NA:
            raise ValueError("NA cells are never recorded")
        if self.count <= 0:
            raise ValueError("a bias record requires at least one cell")


_DEP_NAMES = {dep: dep.name.lower() for dep in DependencyType}


def dep_name(dep: DependencyType) -> str:
    """The lower-case name of a dependency type, as parameter names,
    exclusion lists and reports spell it."""
    return _DEP_NAMES[dep]


def bias_param_prefix(layer: int, head: int, dep: DependencyType) -> str:
    if dep == DependencyType.NA:
        raise ValueError("NA carries no bias parameters")
    return f"layer{layer}.head{head}.bias.{dep_name(dep)}"


def _bias_layers(cfg: ModelConfig) -> frozenset[int]:
    """The blocks that receive structural bias: the structured-layer range,
    or none when every bias term is off (as mode ``none`` forces)."""
    if cfg.bias_core or cfg.bias_query or cfg.bias_key or cfg.bias_prior:
        return cfg.resolve_structured_layers()
    return frozenset()


def init_encoder_params(store: ParameterStore, rng: np.random.Generator,
                        cfg: ModelConfig) -> None:
    """Create all encoder parameters.

    Projections are Xavier-uniform; bias-transformation parameters start at
    zero so an untrained structured model is exactly the baseline.
    """
    d, dh = cfg.d_model, cfg.d_model // cfg.heads
    structured = _bias_layers(cfg)
    for l in range(cfg.layers):
        for h in range(cfg.heads):
            for name in PROJECTIONS:
                store.create(
                    f"layer{l}.head{h}.{name}",
                    xavier_uniform(rng, d, dh, (d, dh)),
                )
            if l in structured:
                for dep in STRUCTURED_TYPES:
                    prefix = bias_param_prefix(l, h, dep)
                    if cfg.bias_core:
                        store.create(f"{prefix}.A", np.zeros((dh, dh)))
                    if cfg.bias_query:
                        store.create(f"{prefix}.qvec", np.zeros((dh, 1)))
                    if cfg.bias_key:
                        store.create(f"{prefix}.kvec", np.zeros((dh, 1)))
                    if cfg.bias_prior:
                        store.create(f"{prefix}.b", np.zeros(()))
        store.create(f"layer{l}.wo", xavier_uniform(rng, d, d, (d, d)))
        store.create(f"layer{l}.ln1.gain", np.ones(d))
        store.create(f"layer{l}.ln1.bias", np.zeros(d))
        store.create(f"layer{l}.ffn.w1", xavier_uniform(rng, d, d * cfg.ffn_mult,
                                                        (d, d * cfg.ffn_mult)))
        store.create(f"layer{l}.ffn.b1", np.zeros(d * cfg.ffn_mult))
        store.create(f"layer{l}.ffn.w2", xavier_uniform(rng, d * cfg.ffn_mult, d,
                                                        (d * cfg.ffn_mult, d)))
        store.create(f"layer{l}.ffn.b2", np.zeros(d))
        store.create(f"layer{l}.ln2.gain", np.ones(d))
        store.create(f"layer{l}.ln2.bias", np.zeros(d))


def projection_params(store: ParameterStore, layer: int,
                      heads: int) -> list[Tensor]:
    """A layer's projections in stacking order: every head's ``wq``, then
    every head's ``wk``, then every head's ``wv``."""
    return [store[f"layer{layer}.head{h}.{name}"].tensor
            for name in PROJECTIONS for h in range(heads)]


def project_qkv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Queries, keys and values of every head, no biases.

    ``w`` stacks the (d, d_h) projections as :func:`projection_params`
    orders them, (3H, d, d_h); the result is (3H, n, d_h), one
    (n, d) @ (d, d_h) product per slice.
    """
    return np.matmul(x, w)


def _stack_types(store: ParameterStore, layer: int, heads: int,
                 suffix: str) -> tuple[list[Tensor], np.ndarray]:
    """The five types' ``suffix`` parameters of every head of a layer.

    Returns the parameters head-major and type-minor, and their values
    side by side per head: (H, d_h, 5w) for (d_h, w) matrices, with type
    ``s`` in columns ``s*w`` to ``(s+1)*w``, or (H, 5) for scalars.
    """
    params = [store[f"{bias_param_prefix(layer, h, dep)}.{suffix}"].tensor
              for h in range(heads) for dep in STRUCTURED_TYPES]
    values = np.stack([p.values for p in params])
    if values.ndim == 1:
        return params, values.reshape(heads, N_TYPES)
    _, dh, w = values.shape
    return params, (values.reshape(heads, N_TYPES, dh, w)
                    .transpose(0, 2, 1, 3).reshape(heads, dh, N_TYPES * w))


def _unstack_types(params: Sequence[Tensor], grad: np.ndarray) -> None:
    """Hand each parameter its slice of a gradient laid out as
    :func:`_stack_types` lays out the values."""
    if grad.ndim == 3:
        heads, dh, width = grad.shape
        w = width // N_TYPES
        grad = grad.reshape(heads, dh, N_TYPES, w).transpose(0, 2, 1, 3)
    for p, g in zip(params, grad.reshape(len(params), *params[0].shape)):
        p._accumulate(g)


def _segment_sum(values: np.ndarray, groups: CellGroups,
                 n_slots: int) -> np.ndarray:
    """Sum ``values`` (H, c, w), whose cells are in ``groups.order``, over
    each slot's run: (H, n_slots, w), zero at slots without cells.

    A run's cells keep their order, as a scatter-add in cell order would
    take them.
    """
    heads, _, w = values.shape
    out = np.zeros((heads, n_slots, w))
    out[:, groups.slots] = np.add.reduceat(values, groups.starts, axis=1)
    return out


@dataclass
class CellBias:
    """One layer's attentive bias at the structured cells, for all heads.

    ``values[h, c]`` is head ``h``'s bias at cell ``c`` of
    ``structure.cells``.  ``terms`` maps each enabled term's parameter
    suffix (``A``, ``qvec``, ``kvec``, ``b``) to its parameters and
    stacked values, as :func:`_stack_types` returns them.  ``k_cells`` holds
    the biaffine core's key rows, (H, c, d_h), cells in
    ``structure.row_groups.order``; :meth:`backward` overwrites them with
    their gradient terms.
    """

    values: np.ndarray
    structure: StructureMatrix
    terms: dict[str, tuple[list[Tensor], np.ndarray]]
    k_cells: Optional[np.ndarray] = None

    @property
    def params(self) -> list[Tensor]:
        return [p for params, _ in self.terms.values() for p in params]

    def backward(self, grad: np.ndarray, q: np.ndarray, k: np.ndarray,
                 dq: np.ndarray, dk: np.ndarray) -> None:
        """Given ``grad`` (H, c) at the cell biases, add the query and key
        gradients into ``dq`` and ``dk`` (H, n, d_h) and accumulate the
        parameters' gradients.

        Each side's gradient is a segment sum over the cells grouped by
        that side's token and type, ``token * 5 + type``: for the core
        ``dq_i += sum_s (sum_{j} g_ijs k_j) A_s^T`` and
        ``dk_j += sum_s (sum_{i} g_ijs q_i) A_s``.
        """
        rows, _, types = self.structure.cells
        heads, n, dh = q.shape
        n_slots = n * N_TYPES
        by_row, by_col = self.structure.row_groups, self.structure.col_groups
        g_row = np.take(grad, by_row.order, axis=1)[:, :, None]
        g_col = np.take(grad, by_col.order, axis=1)[:, :, None]
        if "A" in self.terms:
            params, a_cat = self.terms["A"]
            self.k_cells *= g_row
            d_qa = _segment_sum(self.k_cells, by_row, n_slots)
            d_qa = d_qa.reshape(heads, n, N_TYPES * dh)
            q_cells = np.take(q, rows[by_col.order], axis=1)
            q_cells *= g_col
            d_kq = _segment_sum(q_cells, by_col,
                                n_slots).reshape(heads, n, N_TYPES * dh)
            a_rows = (a_cat.reshape(heads, dh, N_TYPES, dh)
                      .transpose(0, 2, 1, 3).reshape(heads, N_TYPES * dh, dh))
            dq += np.matmul(d_qa, a_cat.transpose(0, 2, 1))
            dk += np.matmul(d_kq, a_rows)
            _unstack_types(params, np.matmul(q.transpose(0, 2, 1), d_qa))
        for suffix, groups, g, side, d_side in (
                ("qvec", by_row, g_row, q, dq), ("kvec", by_col, g_col, k, dk)):
            if suffix in self.terms:
                params, vec_cat = self.terms[suffix]
                d_t = _segment_sum(g, groups, n_slots)
                d_t = d_t.reshape(heads, n, N_TYPES)
                d_side += np.matmul(d_t, vec_cat.transpose(0, 2, 1))
                _unstack_types(params,
                               np.matmul(side.transpose(0, 2, 1), d_t))
        if "b" in self.terms:
            params, _ = self.terms["b"]
            slot = np.arange(heads)[:, None] * N_TYPES + types
            _unstack_types(params, np.bincount(slot.ravel(),
                                               weights=grad.ravel(),
                                               minlength=heads * N_TYPES))


def type_bias(store: ParameterStore, q: np.ndarray, k: np.ndarray,
              layer: int, structure: StructureMatrix,
              cfg: ModelConfig) -> CellBias:
    """The attentive bias of every head of one layer at the structure's
    cells.

    ``q`` and ``k`` are (H, n, d_h).  The cells are
    :attr:`StructureMatrix.cells`, ``(rows, cols, types)``; entry ``[h, c]``
    of the returned values is head ``h``'s bias of type
    ``STRUCTURED_TYPES[types[c]]`` between query ``rows[c]`` and key
    ``cols[c]``.  Each head's five types' parameters lie side by side, so
    each term is one gather:

    * biaffine core ``q_i A_s k_j``: row ``i*5 + s`` of ``q A_cat``
      reshaped to (5n, d_h), dotted with ``k_j``;
    * query-conditioned ``q_i K_s``: cell ``(i, s)`` of ``q qvec_cat``;
    * key-conditioned ``Q_s k_j``: cell ``(j, s)`` of ``k kvec_cat``;
    * prior ``b_s``: slot ``s`` of ``b_cat``.

    Only the terms whose ``bias_*`` toggle is on are computed, and they
    are summed in that order.  Nothing is computed for NA cells.
    """
    rows, cols, types = structure.cells
    heads, n, dh = q.shape
    terms: dict[str, tuple[list[Tensor], np.ndarray]] = {}
    parts: list[np.ndarray] = []
    k_cells = None
    if cfg.bias_core:
        # gathered in row-group order, which the gradient sums over
        order = structure.row_groups.order
        terms["A"] = _stack_types(store, layer, heads, "A")
        qa = np.matmul(q, terms["A"][1]).reshape(heads, n * N_TYPES, dh)
        k_cells = np.take(k, cols[order], axis=1)
        qa_cells = np.take(qa, (rows * N_TYPES + types)[order], axis=1)
        core = np.empty((heads, rows.size))
        core[:, order] = (qa_cells * k_cells).sum(axis=-1)
        parts.append(core)
    for suffix, side, token, on in (("qvec", q, rows, cfg.bias_query),
                                    ("kvec", k, cols, cfg.bias_key)):
        if on:
            terms[suffix] = _stack_types(store, layer, heads, suffix)
            table = np.matmul(side, terms[suffix][1])
            parts.append(np.take(table.reshape(heads, n * N_TYPES),
                                 token * N_TYPES + types, axis=1))
    if cfg.bias_prior:
        terms["b"] = _stack_types(store, layer, heads, "b")
        parts.append(np.take(terms["b"][1], types, axis=1))
    if not parts:
        raise ValueError(
            f"mode {cfg.mode!r} with no term enabled produces no bias"
        )
    values = parts[0]
    for part in parts[1:]:
        values = values + part
    return CellBias(values, structure, terms, k_cells)


class BiasRecorder:
    """Accumulates per-(layer, head, dependency) mean biases per document."""

    def __init__(self):
        self.records: list[BiasRecord] = []

    def add(self, layer: int, head: int, types: np.ndarray,
            bias: np.ndarray) -> None:
        """Record one mean per dependency type present among the cells;
        ``types`` and ``bias`` are one layer and head's cell types and
        biases, as :func:`type_bias` pairs them."""
        counts = np.bincount(types, minlength=N_TYPES)
        sums = np.bincount(types, weights=bias, minlength=N_TYPES)
        for s, dep in enumerate(STRUCTURED_TYPES):
            if counts[s]:
                self.records.append(
                    BiasRecord(
                        layer=layer,
                        head=head,
                        dependency=dep,
                        mean_bias=float(sums[s] / counts[s]),
                        count=int(counts[s]),
                    )
                )


def structured_scores(store: ParameterStore, q: np.ndarray, k: np.ndarray,
                      structure: StructureMatrix, layer: int,
                      cfg: ModelConfig,
                      recorder: Optional[BiasRecorder] = None,
                      ) -> tuple[np.ndarray, Optional[CellBias]]:
    """Every head's attention scores with structural bias,
    ``(q k^T + bias) / sqrt(d_h)``, as (H, n, n); and the bias.

    The bias is computed by :func:`type_bias` only at the structure's
    non-NA cells and added into the scores there; NA cells receive
    nothing, and a structure without cells, or a layer outside
    :func:`_bias_layers`, leaves the raw scores untouched and returns no
    bias.
    """
    heads, n, dh = q.shape
    if structure.n != n:
        raise ValueError(
            f"structure matrix is {structure.n}x{structure.n} but the "
            f"document has {n} tokens"
        )
    scores = np.matmul(q, k.transpose(0, 2, 1))
    bias = None
    if layer in _bias_layers(cfg):
        rows, cols, types = structure.cells
        if rows.size:
            bias = type_bias(store, q, k, layer, structure, cfg)
            if recorder is not None:
                for h in range(heads):
                    recorder.add(layer, h, types, bias.values[h])
            scores.reshape(heads, n * n)[:, rows * n + cols] += bias.values
    scores *= 1.0 / math.sqrt(dh)
    return scores, bias


def attend(scores: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over keys, in place, then aggregate values.

    Returns the attention weights, which are ``scores`` overwritten, and
    the heads' outputs ``weights @ v``.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores, np.matmul(scores, v)


def structured_attention(store: ParameterStore, x: Tensor,
                         structure: StructureMatrix, layer: int,
                         cfg: ModelConfig,
                         recorder: Optional[BiasRecorder] = None) -> Tensor:
    """All heads of one layer's structured self-attention as one graph
    node: the heads' outputs side by side, (n, d).

    The node's parents are ``x``, the layer's projections and, when the
    layer is biased and the structure has cells, its bias parameters.  Its
    backward reuses the attention weights' and the gathered keys' storage,
    so it runs once per forward, as one ``Tensor.backward`` runs it.
    """
    heads = cfg.heads
    w_params = projection_params(store, layer, heads)
    w = np.stack([p.values for p in w_params])
    qkv = project_qkv(x.values, w)
    q, k, v = qkv[:heads], qkv[heads:2 * heads], qkv[2 * heads:]
    scores, bias = structured_scores(store, q, k, structure, layer, cfg,
                                     recorder=recorder)
    probs, out = attend(scores, v)
    n, dh = x.shape[0], w.shape[-1]
    factor = 1.0 / math.sqrt(dh)
    parents = (x, *w_params, *(bias.params if bias is not None else ()))
    spent = False

    def _backward(grad):
        nonlocal spent
        if spent:
            raise RuntimeError("the attention's saved arrays are spent; "
                               "build the graph again to run backward again")
        spent = True
        g = grad.reshape(n, heads, dh).transpose(1, 0, 2)
        d_qkv = np.empty_like(qkv)
        dq, dk, dv = (d_qkv[:heads], d_qkv[heads:2 * heads],
                      d_qkv[2 * heads:])
        np.matmul(probs.transpose(0, 2, 1), g, out=dv)
        d_scores = np.matmul(g, v.transpose(0, 2, 1))
        # softmax backward, P * dP - P * sum(P * dP), then the 1/sqrt(d_h)
        # scale; the weights are spent, so they hold P * sum(P * dP)
        d_scores *= probs
        np.multiply(probs, d_scores.sum(axis=-1, keepdims=True), out=probs)
        d_scores -= probs
        d_scores *= factor
        np.matmul(d_scores, k, out=dq)
        np.matmul(d_scores.transpose(0, 2, 1), q, out=dk)
        if bias is not None:
            rows, cols, _ = structure.cells
            bias.backward(np.take(d_scores.reshape(heads, n * n),
                                  rows * n + cols, axis=1), q, k, dq, dk)
        for p, dw in zip(w_params, np.matmul(x.values.T, d_qkv)):
            p._accumulate(dw)
        # every slice's dq_g @ w_g^T, summed as one (n, 3H*d_h) product
        x._accumulate(d_qkv.transpose(1, 0, 2).reshape(n, -1)
                      @ w.transpose(0, 2, 1).reshape(-1, w.shape[1]))

    return Tensor(out.transpose(1, 0, 2).reshape(n, heads * dh), parents,
                  _backward)


def encoder_forward(store: ParameterStore, x: Tensor,
                    structure: StructureMatrix, cfg: ModelConfig,
                    recorder: Optional[BiasRecorder] = None) -> Tensor:
    """Run the full block stack.

    Layers outside ``cfg``'s structured range attend without bias.  Each
    block is post-norm: ``LN(x + MHA(x))`` then ``LN(x + FFN(x))``.
    """
    for l in range(cfg.layers):
        heads = structured_attention(store, x, structure, l, cfg,
                                     recorder=recorder)
        merged = matmul(heads, store[f"layer{l}.wo"].tensor)
        x = layer_norm(add(x, merged), store[f"layer{l}.ln1.gain"].tensor,
                       store[f"layer{l}.ln1.bias"].tensor)
        hidden = relu(add(matmul(x, store[f"layer{l}.ffn.w1"].tensor),
                          store[f"layer{l}.ffn.b1"].tensor))
        ffn = add(matmul(hidden, store[f"layer{l}.ffn.w2"].tensor),
                  store[f"layer{l}.ffn.b2"].tensor)
        x = layer_norm(add(x, ffn), store[f"layer{l}.ln2.gain"].tensor,
                       store[f"layer{l}.ln2.bias"].tensor)
    return x


def aggregate_bias_records(
    records: Sequence[BiasRecord],
) -> dict[tuple[int, DependencyType], tuple[float, int]]:
    """Cell-count weighted mean bias per (layer, dependency), pooled over
    heads and documents."""
    sums: dict[tuple[int, DependencyType], float] = {}
    counts: dict[tuple[int, DependencyType], int] = {}
    for rec in records:
        key = (rec.layer, rec.dependency)
        sums[key] = sums.get(key, 0.0) + rec.mean_bias * rec.count
        counts[key] = counts.get(key, 0) + rec.count
    return {key: (sums[key] / counts[key], counts[key]) for key in sums}


def export_bias_heatmap(records: Sequence[BiasRecord], n_layers: int) -> str:
    """Render the layer-by-dependency mean-bias grid as tab-separated text.

    Every layer emits one row per dependency type including NA, which is
    structurally zero with no samples.
    """
    if not records:
        raise ValueError("no bias records to export")
    grid = aggregate_bias_records(records)
    lines = ["layer\tdependency\tmean_bias\tcount"]
    for l in range(n_layers):
        for dep in DependencyType:
            if dep == DependencyType.NA:
                mean, count = 0.0, 0
            else:
                mean, count = grid.get((l, dep), (0.0, 0))
            lines.append(f"{l}\t{dep_name(dep)}\t{mean:.10g}\t{count}")
    return "\n".join(lines) + "\n"
