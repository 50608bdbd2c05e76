"""Structured self-attention encoder.

Each block is standard post-norm multi-head attention plus a feed-forward
network, with one addition: before the softmax, every query-key score
whose token pair has a dependency receives a learned scalar bias chosen
by that dependency type.  Two bias parameterizations are supported, a
bilinear (biaffine) form ``q A_s k^T + b_s`` and a decomposed linear form
``q K_s + Q_s k + b_s`` whose three terms can be toggled independently.

The attention of a layer, all heads together, is one graph node
(:func:`structured_attention`).  Its forward runs over (H, n, d_h) arrays
with numpy's batched ``@``, in which every head's product keeps the shape
it has on its own: :func:`project_qkv`, then :func:`structured_scores`,
then :func:`attend`, each once per layer.  The node's value is the heads
side by side, (n, d); the output projection and the feed-forward network
stay ordinary graph operations.  Its backward is written out by hand in
the same layout, as FlashAttention does without the tiling (Dao et al.,
arXiv 2205.14135): the value, softmax and score gradients, then the bias
terms' gradients, summed per query or key token and type with
``np.add.reduceat`` over the cells grouped once per structure
(:attr:`StructureMatrix.row_groups`, :attr:`~StructureMatrix.col_groups`).
Each head's forward products are those of the head computed alone, so
the outputs are bit-equal to a per-head graph; gradients agree to
rounding.

Temporaries that die inside the forward or the backward call (the
biaffine core's ``q A`` table and gathered rows, the score and
projection gradients, the gathered query rows, the segment sums) are
:func:`~structrel.autodiff.scratch` arrays, reused from document to
document instead of faulted in afresh.  Nothing saved for the backward
is scratch: another graph's forward may run before it.  The buffers are
process-wide, so the encoder is single-threaded.  Their gathers use
``np.take(..., mode="clip")``, which writes into ``out`` directly where
``mode="raise"`` would take a buffer of its own; the indices come from a
structure whose size is checked against the document's first.

The bias is computed only where there is structure.  Every non-NA cell
gathers its query row, key row and type slot from the five types'
parameters laid side by side, for all heads at once, and the cell biases
are added into the scores at those cells (the gather of Shaw et al.,
arXiv 1803.02155).  NA cells carry no parameters and are never computed,
so a model whose structure is all NA computes the same function as the
unstructured baseline.

A forward given a :class:`BiasRecorder` adds every biased layer's cell
biases, all heads at once, into one running sum and count per layer and
dependency type; :func:`export_bias_heatmap` renders their ratios, the
mean bias by layer and type.  Nothing is kept per document or head.

Each layer stores its attention parameters in the layout the node
computes with (:func:`init_encoder_params`): one (3H, d, d_h) array of
every head's query, key and value projections, and per enabled bias term
one array holding every head's five types side by side.  The forward
reads these arrays as they are and the backward accumulates into them
whole; nothing is stacked or split per step.  Parameters are never
shared between layers.  Every function here reads the model's
:class:`~structrel.config.ModelConfig`: the stack shape, the four
``bias_*`` term toggles and the structured-layer range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .autodiff import (
    ParameterStore,
    Tensor,
    add,
    layer_norm,
    matmul,
    relu,
    scratch,
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


def dep_name(dep: DependencyType) -> str:
    """The lower-case name of a dependency type, as exclusion lists and
    reports spell it."""
    return dep.name.lower()


def _bias_terms(cfg: ModelConfig) -> list[str]:
    """The parameter suffixes of the bias terms ``cfg`` turns on, in the
    order :func:`type_bias` sums them."""
    return [suffix for suffix, on in (("A", cfg.bias_core),
                                      ("qvec", cfg.bias_query),
                                      ("kvec", cfg.bias_key),
                                      ("b", cfg.bias_prior)) if on]


def _bias_layers(cfg: ModelConfig) -> frozenset[int]:
    """The blocks that receive structural bias: the structured-layer range,
    or none when every bias term is off (as mode ``none`` forces)."""
    if _bias_terms(cfg):
        return cfg.resolve_structured_layers()
    return frozenset()


def init_encoder_params(store: ParameterStore, rng: np.random.Generator,
                        cfg: ModelConfig) -> None:
    """Create all encoder parameters.

    Layer ``l``'s projections are ``layer{l}.wqkv``, (3H, d, d_h): every
    head's query projection, then every head's key projection, then every
    head's value projection.  They are Xavier-uniform, drawn head by head
    in (query, key, value) order.  A structured layer has one array per
    enabled bias term, each head's five types side by side in
    ``STRUCTURED_TYPES`` order: ``layer{l}.bias.A`` (H, d_h, 5 d_h), type
    ``s`` in columns ``s*d_h`` to ``(s+1)*d_h``; ``.qvec`` and ``.kvec``
    (H, d_h, 5); ``.b`` (H, 5).  They start at zero, so an untrained
    structured model is exactly the baseline.
    """
    d, heads = cfg.d_model, cfg.heads
    dh = d // heads
    shapes = {"A": (heads, dh, N_TYPES * dh), "qvec": (heads, dh, N_TYPES),
              "kvec": (heads, dh, N_TYPES), "b": (heads, N_TYPES)}
    structured = _bias_layers(cfg)
    for l in range(cfg.layers):
        w = xavier_uniform(rng, d, dh, (heads, 3, d, dh))
        store.create(f"layer{l}.wqkv",
                     w.transpose(1, 0, 2, 3).reshape(3 * heads, d, dh))
        if l in structured:
            for suffix in _bias_terms(cfg):
                store.create(f"layer{l}.bias.{suffix}",
                             np.zeros(shapes[suffix]))
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


def project_qkv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Queries, keys and values of every head, no biases.

    ``w`` is a layer's ``wqkv``, (3H, d, d_h); the result is (3H, n, d_h),
    one (n, d) @ (d, d_h) product per slice.
    """
    return np.matmul(x, w)


def _segment_sum(values: np.ndarray, groups: CellGroups,
                 n_slots: int) -> np.ndarray:
    """Sum ``values`` (H, c, w), whose cells are in ``groups.order``, over
    each slot's run: (H, n_slots, w), zero at slots without cells.

    A run's cells keep their order, as a scatter-add in cell order would
    take them.
    """
    heads, _, w = values.shape
    out = np.zeros((heads, n_slots, w))
    out[:, groups.slots] = np.add.reduceat(
        values, groups.starts, axis=1,
        out=scratch("attn.reduceat", (heads, groups.starts.size, w)))
    return out


@dataclass
class CellBias:
    """One layer's attentive bias at the structured cells, for all heads.

    ``values[h, c]`` is head ``h``'s bias at cell ``c`` of
    ``structure.cells``.  ``terms`` maps each enabled term's parameter
    suffix (``A``, ``qvec``, ``kvec``, ``b``) to the layer's parameter of
    that term, laid out as :func:`init_encoder_params` lays it out.
    ``k_cells`` holds the biaffine core's key rows, (H, c, d_h), cells in
    ``structure.row_groups.order``; :meth:`backward` overwrites them with
    their gradient terms.
    """

    values: np.ndarray
    structure: StructureMatrix
    terms: dict[str, Tensor]
    k_cells: Optional[np.ndarray] = None

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
            a = self.terms["A"]
            a_cat = a.values
            self.k_cells *= g_row
            d_qa = _segment_sum(self.k_cells, by_row, n_slots)
            d_qa = d_qa.reshape(heads, n, N_TYPES * dh)
            q_cells = np.take(q, rows[by_col.order], axis=1, mode="clip",
                              out=scratch("attn.cells", self.k_cells.shape))
            q_cells *= g_col
            d_kq = _segment_sum(q_cells, by_col,
                                n_slots).reshape(heads, n, N_TYPES * dh)
            a_rows = (a_cat.reshape(heads, dh, N_TYPES, dh)
                      .transpose(0, 2, 1, 3).reshape(heads, N_TYPES * dh, dh))
            dq += np.matmul(d_qa, a_cat.transpose(0, 2, 1))
            dk += np.matmul(d_kq, a_rows)
            a._accumulate(np.matmul(q.transpose(0, 2, 1), d_qa))
        for suffix, groups, g, side, d_side in (
                ("qvec", by_row, g_row, q, dq), ("kvec", by_col, g_col, k, dk)):
            if suffix in self.terms:
                vec = self.terms[suffix]
                d_t = _segment_sum(g, groups, n_slots)
                d_t = d_t.reshape(heads, n, N_TYPES)
                d_side += np.matmul(d_t, vec.values.transpose(0, 2, 1))
                vec._accumulate(np.matmul(side.transpose(0, 2, 1), d_t))
        if "b" in self.terms:
            slot = np.arange(heads)[:, None] * N_TYPES + types
            self.terms["b"]._accumulate(
                np.bincount(slot.ravel(), weights=grad.ravel(),
                            minlength=heads * N_TYPES).reshape(heads, N_TYPES))


def type_bias(store: ParameterStore, q: np.ndarray, k: np.ndarray,
              layer: int, structure: StructureMatrix,
              cfg: ModelConfig) -> CellBias:
    """The attentive bias of every head of one layer at the structure's
    cells.

    ``q`` and ``k`` are (H, n, d_h).  The cells are
    :attr:`StructureMatrix.cells`, ``(rows, cols, types)``; entry ``[h, c]``
    of the returned values is head ``h``'s bias of type
    ``STRUCTURED_TYPES[types[c]]`` between query ``rows[c]`` and key
    ``cols[c]``.  Each term's parameter holds every head's five types side
    by side (``A_cat`` and so on, see :func:`init_encoder_params`), so each
    term is one gather:

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
    terms = {suffix: store[f"layer{layer}.bias.{suffix}"].tensor
             for suffix in _bias_terms(cfg)}
    parts: list[np.ndarray] = []
    k_cells = None
    if "A" in terms:
        # gathered in row-group order, which the gradient sums over
        order = structure.row_groups.order
        qa = np.matmul(q, terms["A"].values,
                       out=scratch("attn.qa", (heads, n, N_TYPES * dh)))
        qa = qa.reshape(heads, n * N_TYPES, dh)
        k_cells = np.take(k, cols[order], axis=1)
        qa_cells = np.take(qa, (rows * N_TYPES + types)[order], axis=1,
                           mode="clip", out=scratch("attn.cells",
                                                    k_cells.shape))
        qa_cells *= k_cells
        core = np.empty((heads, rows.size))
        core[:, order] = qa_cells.sum(axis=-1)
        parts.append(core)
    for suffix, side, token in (("qvec", q, rows), ("kvec", k, cols)):
        if suffix in terms:
            table = np.matmul(side, terms[suffix].values)
            parts.append(np.take(table.reshape(heads, n * N_TYPES),
                                 token * N_TYPES + types, axis=1))
    if "b" in terms:
        parts.append(np.take(terms["b"].values, types, axis=1))
    if not parts:
        raise ValueError(
            f"mode {cfg.mode!r} with no term enabled produces no bias"
        )
    values = parts[0]
    for part in parts[1:]:
        values = values + part
    return CellBias(values, structure, terms, k_cells)


class BiasRecorder:
    """Layer ``l``'s biases at the cells of type ``STRUCTURED_TYPES[s]``,
    pooled over heads and documents: their sum ``sums[l, s]`` and their
    number ``counts[l, s]``, one per (head, cell)."""

    def __init__(self, layers: int):
        self.sums = np.zeros((layers, N_TYPES))
        self.counts = np.zeros((layers, N_TYPES), dtype=np.int64)

    def add(self, layer: int, types: np.ndarray, bias: np.ndarray) -> None:
        """Add one layer's cell biases, (H, c), whose cells have the type
        indices ``types``, (c,), as :func:`type_bias` pairs them."""
        self.counts[layer] += len(bias) * np.bincount(types, minlength=N_TYPES)
        self.sums[layer] += np.bincount(types, weights=bias.sum(axis=0),
                                        minlength=N_TYPES)


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
                recorder.add(layer, types, bias.values)
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

    The node's parents are ``x``, the layer's ``wqkv`` and, when the layer
    is biased and the structure has cells, its bias parameters.  Its
    backward reuses the attention weights' and the gathered keys' storage,
    so it runs once per forward, as one ``Tensor.backward`` runs it.
    """
    heads = cfg.heads
    w_param = store[f"layer{layer}.wqkv"].tensor
    w = w_param.values
    qkv = project_qkv(x.values, w)
    q, k, v = qkv[:heads], qkv[heads:2 * heads], qkv[2 * heads:]
    scores, bias = structured_scores(store, q, k, structure, layer, cfg,
                                     recorder=recorder)
    probs, out = attend(scores, v)
    n, dh = x.shape[0], w.shape[-1]
    factor = 1.0 / math.sqrt(dh)
    parents = (x, w_param,
               *(bias.terms.values() if bias is not None else ()))
    spent = False

    def _backward(grad):
        nonlocal spent
        if spent:
            raise RuntimeError("the attention's saved arrays are spent; "
                               "build the graph again to run backward again")
        spent = True
        g = grad.reshape(n, heads, dh).transpose(1, 0, 2)
        d_qkv = scratch("attn.d_qkv", qkv.shape)
        dq, dk, dv = (d_qkv[:heads], d_qkv[heads:2 * heads],
                      d_qkv[2 * heads:])
        np.matmul(probs.transpose(0, 2, 1), g, out=dv)
        d_scores = np.matmul(g, v.transpose(0, 2, 1),
                             out=scratch("attn.d_scores", probs.shape))
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
        w_param._accumulate(np.matmul(x.values.T, d_qkv))
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


def export_bias_heatmap(recorder: BiasRecorder) -> str:
    """Render the layer-by-dependency mean-bias grid as tab-separated text.

    Every layer emits one row per dependency type including NA, which is
    structurally zero with no samples.
    """
    if not recorder.counts.any():
        raise ValueError("no bias records to export")
    lines = ["layer\tdependency\tmean_bias\tcount"]
    for l, (sums, counts) in enumerate(zip(recorder.sums, recorder.counts)):
        lines.append(f"{l}\t{dep_name(DependencyType.NA)}\t0\t0")
        for s, dep in enumerate(STRUCTURED_TYPES):
            mean = sums[s] / counts[s] if counts[s] else 0.0
            lines.append(f"{l}\t{dep_name(dep)}\t{mean:.10g}\t{counts[s]}")
    return "\n".join(lines) + "\n"
