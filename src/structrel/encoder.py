"""Structured self-attention encoder.

Each block is standard post-norm multi-head attention plus a feed-forward
network, with one addition: before the softmax, every query-key score
whose token pair has a dependency receives a learned scalar bias chosen
by that dependency type.  Two bias parameterizations are supported, a
bilinear (biaffine) form ``q A_s k^T + b_s`` and a decomposed linear form
``q K_s + Q_s k + b_s`` whose three terms can be toggled independently.

The encoder runs a pack of documents at once (:class:`PackedStructure`):
their tokens are stacked as the rows of one (Σn, d) array, and no token
attends to another document's.  A block is two graph nodes.  The
attention of a layer, all heads and documents together, is one
(:func:`structured_attention`).  Its forward projects every row with
one batched product, :func:`project_qkv`, into (H, Σn, d_h) arrays;
then, for each document's segment of rows, :func:`structured_scores`
and :func:`attend` run over that document's (H, n, d_h) slices, with
numpy's batched ``@``, in which every head's product keeps the shape it
has on its own.  The node's value is the heads side by side, (Σn, d).
Its backward is written out by hand in the same layout, as
FlashAttention does without the tiling (Dao et al., arXiv 2205.14135):
per segment the value, softmax and score gradients, then the bias
terms' gradients; then one product each for the projections' and the
input's gradients over all rows.  Each head's and document's products
are those of the head computed alone, so the outputs agree with a
per-head, per-document graph to rounding.  The rest of the block, the
output projection, both residual layer norms and the feed-forward
network, works row by row and is the other node (:func:`block_tail`),
its backward written out by hand as well.

The encoder's output feeds entity pooling, which reads only each
entity's mention tokens, the structure's read tokens
(:attr:`StructureMatrix.read`, stacked as
:attr:`PackedStructure.read_rows`).  Every block but the last computes
every row, as the next block's keys and values need them all.  The last
computes only the read rows, m of a document's n tokens: their queries
(H, m, d_h) against every row's keys and values, as Funnel-Transformer
pools only the queries (Dai et al., arXiv 2006.03236), the bias at the
cells of those queries (:attr:`StructureMatrix.read_cells`), and their
tails; its output, and the encoder's, is (Σm, d).  A product over two
rows or more of its operand computes each row as the product over every
row does, so the read rows, and the logits made from them, are
bit-equal to an encoder whose last block computes every row.  (numpy
computes a one-row product by gemv, which rounds otherwise; a document
with a pair has two read rows or more, and only the biaffine grid of one
whose read rows use a single query slot, which takes several excluded
types, meets that case.)  The gradients agree to rounding, as sums that
added the other rows' exact zeros now run without them.

The bias is computed only where there is structure; NA cells carry no
parameters and are never computed, so a model whose structure is all NA
computes the same function as the unstructured baseline.  Each term's
parameters hold the five types side by side, for all heads.  The
biaffine core runs on a dense grid of the query slots that have cells,
a query token and a type each (:attr:`StructureMatrix.slots`): the used
slots' rows of ``q A`` times ``k^T``, forward, and two products with the
grid of cell gradients, backward.  The linear terms and the prior are
gathered per cell (as Shaw et al., arXiv 1803.02155, gather relative
positions) and their gradients summed per slot by ``np.bincount``.  The
cell biases are added into the scores at their cells.

A forward given a :class:`BiasRecorder` adds every biased layer's cell
biases, all heads at once, into one running sum and count per layer and
dependency type; :func:`export_bias_heatmap` renders their ratios, the
mean bias by layer and type.  Nothing is kept per document or head.
The recorder takes every cell, so with one the last block, too,
computes every row.

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

from .autodiff import ParameterStore, Tensor, xavier_uniform
from .structure import (
    STRUCTURED_TYPES,
    DependencyType,
    PackedStructure,
    ReadCells,
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


def unbiased_setting(cfg: ModelConfig) -> Optional[str]:
    """The setting, as ``key = value``, by which no layer of ``cfg`` puts
    a structural bias on any cell; None when some layer can."""
    if cfg.mode == "none":
        return "mode = none"
    if not _bias_terms(cfg):
        return f"mode = {cfg.mode} with every bias term false"
    if not cfg.resolve_structured_layers():
        return f"structured_layers = {cfg.structured_layers}"
    if cfg.excluded_dependency_set() == frozenset(STRUCTURED_TYPES):
        return f"excluded_deps = {cfg.excluded_deps}"
    return None


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


def project_qkv(x: np.ndarray, w: np.ndarray,
                rows: Optional[np.ndarray] = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Every head's queries of the rows ``rows`` of ``x``, every row when
    None, (H, m, d_h); and every head's keys, then values, of every row,
    (2H, n, d_h); no biases.

    ``w`` is a layer's ``wqkv``, (3H, d, d_h); each slice is one (rows,
    d) @ (d, d_h) product.
    """
    heads = w.shape[0] // 3
    queries = x if rows is None else x[rows]
    return np.matmul(queries, w[:heads]), np.matmul(x, w[heads:])


@dataclass
class CellBias:
    """One layer's attentive bias at the structured cells, for all heads.

    ``structure`` holds the cells of m queries against n keys: a
    :class:`StructureMatrix` (m = n) or its
    :attr:`~StructureMatrix.read_cells`.  ``values[h, c]`` is head
    ``h``'s bias at cell ``c`` of ``structure.cells``.  ``terms`` maps
    each enabled term's parameter suffix (``A``, ``qvec``, ``kvec``,
    ``b``) to the layer's parameter of that term, laid out as
    :func:`init_encoder_params` lays it out.
    ``qa_used`` holds the biaffine core's ``q_i A_s`` rows at the used
    query slots of ``structure.slots``, (H, R, d_h).
    """

    values: np.ndarray
    structure: StructureMatrix | ReadCells
    terms: dict[str, Tensor]
    qa_used: Optional[np.ndarray] = None

    def backward(self, grad: np.ndarray, q: np.ndarray, k: np.ndarray,
                 dq: np.ndarray, dk: np.ndarray) -> None:
        """Given ``grad`` (H, c) at the cell biases, add the query and key
        gradients into ``dq`` (H, m, d_h) and ``dk`` (H, n, d_h) and
        accumulate the parameters' gradients.

        The core's gradient is scattered onto the slot grid, ``G`` (H, R,
        n), zero where there is no cell; then ``dk += G^T (q A)_used``,
        the used slots' rows of ``d(q A)`` are ``G k``, and ``dq`` and
        ``dA`` follow from ``d(q A)`` as from any product.  The other
        terms sum the gradient per slot ``token * 5 + type`` with one
        ``np.bincount`` each.
        """
        rows, cols, types = self.structure.cells
        heads, m, dh = q.shape
        n = k.shape[1]
        if "A" in self.terms:
            a = self.terms["A"]
            slots = self.structure.slots
            g_grid = np.zeros((heads, slots.used.size, n), grad.dtype)
            g_grid.reshape(heads, -1)[:, slots.flat] = grad
            dk += np.matmul(g_grid.transpose(0, 2, 1), self.qa_used)
            d_qa = np.zeros((heads, m * N_TYPES, dh), q.dtype)
            d_qa[:, slots.used] = np.matmul(g_grid, k)
            d_qa = d_qa.reshape(heads, m, N_TYPES * dh)
            dq += np.matmul(d_qa, a.values.transpose(0, 2, 1))
            a._accumulate(np.matmul(q.transpose(0, 2, 1), d_qa))
        head = np.arange(heads)[:, None]
        for suffix, token, side, d_side in (("qvec", rows, q, dq),
                                            ("kvec", cols, k, dk)):
            if suffix in self.terms:
                vec = self.terms[suffix]
                size = side.shape[1]
                slot = head * (size * N_TYPES) + token * N_TYPES + types
                d_t = np.bincount(slot.ravel(), weights=grad.ravel(),
                                  minlength=heads * size * N_TYPES)
                d_t = d_t.astype(grad.dtype).reshape(heads, size, N_TYPES)
                d_side += np.matmul(d_t, vec.values.transpose(0, 2, 1))
                vec._accumulate(np.matmul(side.transpose(0, 2, 1), d_t))
        if "b" in self.terms:
            d_b = np.bincount((head * N_TYPES + types).ravel(),
                              weights=grad.ravel(),
                              minlength=heads * N_TYPES)
            self.terms["b"]._accumulate(
                d_b.astype(grad.dtype).reshape(heads, N_TYPES))


def type_bias(store: ParameterStore, q: np.ndarray, k: np.ndarray,
              layer: int, structure: StructureMatrix | ReadCells,
              cfg: ModelConfig) -> CellBias:
    """The attentive bias of every head of one layer at the structure's
    cells.

    ``q`` is (H, m, d_h) and ``k`` (H, n, d_h), the queries and keys of
    ``structure``'s cells, ``(rows, cols, types)``: a
    :class:`StructureMatrix`'s (m = n) or its
    :attr:`~StructureMatrix.read_cells`' (m read tokens); entry ``[h, c]``
    of the returned values is head ``h``'s bias of type
    ``STRUCTURED_TYPES[types[c]]`` between query ``rows[c]`` and key
    ``cols[c]``.  Each term's parameter holds every head's five types side
    by side (``A_cat`` and so on, see :func:`init_encoder_params`):

    * biaffine core ``q_i A_s k_j``: row ``i*5 + s`` of ``q A_cat``
      reshaped to (5m, d_h) is the query slot ``(i, s)``; the used slots'
      rows times ``k^T`` make the (H, R, n) grid of the structure's
      ``slots``, and each cell is read off it;
    * query-conditioned ``q_i K_s``: cell ``(i, s)`` of ``q qvec_cat``;
    * key-conditioned ``Q_s k_j``: cell ``(j, s)`` of ``k kvec_cat``;
    * prior ``b_s``: slot ``s`` of ``b_cat``.

    Only the terms whose ``bias_*`` toggle is on are computed, and they
    are summed in that order; some term is on, as it is in every layer
    of :func:`_bias_layers`.  Nothing is computed for NA cells.
    """
    rows, cols, types = structure.cells
    heads, m, dh = q.shape
    terms = {suffix: store[f"layer{layer}.bias.{suffix}"].tensor
             for suffix in _bias_terms(cfg)}
    parts: list[np.ndarray] = []
    qa_used = None
    if "A" in terms:
        slots = structure.slots
        qa = np.matmul(q, terms["A"].values)
        qa_used = np.take(qa.reshape(heads, m * N_TYPES, dh), slots.used,
                          axis=1)
        grid = np.matmul(qa_used, k.transpose(0, 2, 1))
        parts.append(np.take(grid.reshape(heads, -1), slots.flat, axis=1))
    for suffix, side, token in (("qvec", q, rows), ("kvec", k, cols)):
        if suffix in terms:
            table = np.matmul(side, terms[suffix].values)
            parts.append(np.take(table.reshape(heads, -1),
                                 token * N_TYPES + types, axis=1))
    if "b" in terms:
        parts.append(np.take(terms["b"].values, types, axis=1))
    values = parts[0]
    for part in parts[1:]:
        values = values + part
    return CellBias(values, structure, terms, qa_used)


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
                      structure: StructureMatrix | ReadCells, layer: int,
                      cfg: ModelConfig,
                      recorder: Optional[BiasRecorder] = None,
                      ) -> tuple[np.ndarray, Optional[CellBias]]:
    """Every head's attention scores with structural bias,
    ``(q k^T + bias) / sqrt(d_h)``, as (H, m, n) for m queries ``q`` and
    n keys ``k``; and the bias.

    ``structure`` holds the cells of those queries and keys: a
    :class:`StructureMatrix` when every token is a query, its
    :attr:`~StructureMatrix.read_cells` when the read tokens are.  The
    bias is computed by :func:`type_bias` only at its non-NA cells and
    added into the scores there; NA cells receive nothing, and a
    structure without cells, or a layer outside :func:`_bias_layers`,
    leaves the raw scores untouched and returns no bias.
    """
    heads, m, dh = q.shape
    n = k.shape[1]
    if (structure.queries, structure.n) != (m, n):
        raise ValueError(
            f"structure has {structure.queries} queries by {structure.n} "
            f"keys but the document has {m} query and {n} key tokens"
        )
    scores = np.matmul(q, k.transpose(0, 2, 1))
    bias = None
    if layer in _bias_layers(cfg):
        rows, cols, types = structure.cells
        if rows.size:
            bias = type_bias(store, q, k, layer, structure, cfg)
            if recorder is not None:
                recorder.add(layer, types, bias.values)
            scores.reshape(heads, m * n)[:, rows * n + cols] += bias.values
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
                         structure: PackedStructure, layer: int,
                         cfg: ModelConfig,
                         recorder: Optional[BiasRecorder] = None,
                         read: bool = False) -> Tensor:
    """All heads of one layer's structured self-attention over a pack's
    documents as one graph node: the heads' outputs side by side, (Σn,
    d), or with ``read`` those of the rows ``structure.read_rows`` alone,
    (Σm, d).

    ``x`` holds the documents' tokens stacked as rows, ``structure``
    their structures and row bounds.  The projections run once over all
    rows, the queries only over the read rows when ``read``; the scores,
    the softmax and the bias run per document, each document's queries
    against its own keys, so no token attends to another document, and
    a document without queries computes nothing.  With ``read`` the
    bias is taken at each document's
    :attr:`~structrel.structure.StructureMatrix.read_cells`.  Keys and
    values always come from every row.  The node's parents are ``x``,
    the layer's ``wqkv`` and, when the layer is biased and some document
    has cells, its bias parameters.  Its backward reuses the attention
    weights' storage, so it runs once per forward, as one
    ``Tensor.backward`` runs it.
    """
    if structure.n != x.shape[0]:
        raise ValueError(f"the structures cover {structure.n} rows but the "
                         f"pack has {x.shape[0]} tokens")
    heads = cfg.heads
    w_param = store[f"layer{layer}.wqkv"].tensor
    w = w_param.values
    rows = structure.read_rows if read else None
    q_all, kv = project_qkv(x.values, w, rows)
    k_all, v_all = kv[:heads], kv[heads:]
    q_bounds = structure.read_bounds if read else structure.bounds
    m, n, dh = q_all.shape[1], x.shape[0], w.shape[-1]
    out = np.empty((m, heads * dh), dtype=q_all.dtype)
    # (q_lo, q_hi, lo, hi, matrix, weights, bias) per document with
    # tokens; a document without queries has no weights
    segments = []
    terms: dict[str, Tensor] = {}
    for (lo, hi, matrix), q_lo, q_hi in zip(structure.segments(),
                                            q_bounds[:-1].tolist(),
                                            q_bounds[1:].tolist()):
        if lo == hi:
            continue
        if q_lo == q_hi:
            segments.append((q_lo, q_hi, lo, hi, matrix, None, None))
            continue
        if read:
            matrix = matrix.read_cells
        scores, bias = structured_scores(store, q_all[:, q_lo:q_hi],
                                         k_all[:, lo:hi], matrix, layer,
                                         cfg, recorder=recorder)
        probs, heads_out = attend(scores, v_all[:, lo:hi])
        out[q_lo:q_hi] = heads_out.transpose(1, 0, 2).reshape(q_hi - q_lo,
                                                              -1)
        segments.append((q_lo, q_hi, lo, hi, matrix, probs, bias))
        if bias is not None:
            terms = bias.terms
    factor = 1.0 / math.sqrt(dh)
    spent = False

    def _backward(grad):
        nonlocal spent
        if spent:
            raise RuntimeError("the attention's saved arrays are spent; "
                               "build the graph again to run backward again")
        spent = True
        g_all = grad.reshape(m, heads, dh).transpose(1, 0, 2)
        # every row is written by the one segment that holds it; with
        # every row a query, the queries' gradients share one array with
        # the keys' and values', so the input's is one product
        if rows is None:
            d_qkv = np.empty((3 * heads, n, dh), q_all.dtype)
            d_q, d_kv = d_qkv[:heads], d_qkv[heads:]
        else:
            d_q = np.empty(q_all.shape, q_all.dtype)
            d_kv = np.empty(kv.shape, kv.dtype)
        dk_all, dv_all = d_kv[:heads], d_kv[heads:]
        for q_lo, q_hi, lo, hi, matrix, probs, bias in segments:
            if probs is None:
                d_kv[:, lo:hi] = 0.0
                continue
            g, q, k, v = (g_all[:, q_lo:q_hi], q_all[:, q_lo:q_hi],
                          k_all[:, lo:hi], v_all[:, lo:hi])
            dq, dk = d_q[:, q_lo:q_hi], dk_all[:, lo:hi]
            np.matmul(probs.transpose(0, 2, 1), g, out=dv_all[:, lo:hi])
            d_scores = np.matmul(g, v.transpose(0, 2, 1))
            # softmax backward, P * dP - P * sum(P * dP), then the
            # 1/sqrt(d_h) scale; the weights are spent, so they hold
            # P * sum(P * dP)
            d_scores *= probs
            np.multiply(probs, d_scores.sum(axis=-1, keepdims=True),
                        out=probs)
            d_scores -= probs
            d_scores *= factor
            np.matmul(d_scores, k, out=dq)
            np.matmul(d_scores.transpose(0, 2, 1), q, out=dk)
            if bias is not None:
                cell_rows, cell_cols, _ = matrix.cells
                bias.backward(np.take(d_scores.reshape(heads, -1),
                                      cell_rows * (hi - lo) + cell_cols,
                                      axis=1),
                              q, k, dq, dk)
        xv = x.values
        queries = xv if rows is None else xv[rows]
        dw = np.empty(w.shape, w.dtype)
        np.matmul(queries.T, d_q, out=dw[:heads])
        np.matmul(xv.T, d_kv, out=dw[heads:])
        w_param._accumulate(dw)
        # every slice's d_g @ w_g^T, summed as one product per row set
        w_t = w.transpose(0, 2, 1).reshape(-1, w.shape[1])
        if rows is None:
            dx = d_qkv.transpose(1, 0, 2).reshape(n, 3 * heads * dh) @ w_t
        else:
            q_cols = heads * dh
            dx = (d_kv.transpose(1, 0, 2).reshape(n, 2 * q_cols)
                  @ w_t[q_cols:])
            dx[rows] += (d_q.transpose(1, 0, 2).reshape(m, q_cols)
                         @ w_t[:q_cols])
        x._accumulate(dx)

    return Tensor(out, (x, w_param, *terms.values()), _backward)


#: The parameters of a layer's block tail, after ``layer{l}.``, in the
#: order of :func:`block_tail`'s parents.
TAIL_PARAMS = ("wo", "ln1.gain", "ln1.bias", "ffn.w1", "ffn.b1", "ffn.w2",
               "ffn.b2", "ln2.gain", "ln2.bias")


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, by the two ufunc calls that
    ``np.mean`` makes, without its Python-level overhead."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total,
                          casting="unsafe")


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float = 1e-5):
    """Normalize the last axis to zero mean and unit variance, then apply
    an elementwise affine; the output, the normalized ``xhat`` and the
    inverse deviations."""
    mu = _mean_last(x)
    xhat = x - mu
    inv = 1.0 / np.sqrt(_mean_last(xhat ** 2) + eps)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _layer_norm_backward(grad: np.ndarray, gain: np.ndarray,
                         xhat: np.ndarray, inv: np.ndarray):
    """The gradients of :func:`_layer_norm`'s input, gain and bias, for
    the output gradient ``grad``."""
    dxhat = grad * gain
    dx = dxhat - _mean_last(dxhat)
    dxhat *= xhat
    dx -= xhat * _mean_last(dxhat)
    dx *= inv
    return dx, (grad * xhat).sum(axis=0), grad.sum(axis=0)


def block_tail(store: ParameterStore, x: Tensor, heads: Tensor,
               layer: int, rows: Optional[np.ndarray] = None) -> Tensor:
    """Everything of one post-norm block after the attention, as one
    graph node: ``LN2(x1 + W2 relu(W1 x1 + b1) + b2)`` with ``x1 =
    LN1(x[rows] + heads wo)``, (m, d), where ``rows`` are distinct rows
    of ``x``, every row when None.

    ``x`` is the block's input and ``heads`` its attention node's output
    for those rows; they and the layer's nine :data:`TAIL_PARAMS` are the
    node's parents.  Its backward runs the chain of the two layer norms,
    the feed-forward network and the output projection by hand, each
    step the backward of the graph op it replaced, so a float64 tail
    agrees with that graph to rounding; ``x``'s other rows get a zero
    gradient.
    """
    params = [store[f"layer{layer}.{name}"].tensor for name in TAIL_PARAMS]
    wo, g1, c1, w1, b1, w2, b2, g2, c2 = (p.values for p in params)
    residual = x.values if rows is None else x.values[rows]
    x1, xhat1, inv1 = _layer_norm(residual + heads.values @ wo, g1, c1)
    hidden = x1 @ w1
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    ffn = hidden @ w2
    ffn += b2
    out, xhat2, inv2 = _layer_norm(x1 + ffn, g2, c2)

    def _backward(grad):
        dr2, dg2, dc2 = _layer_norm_backward(grad, g2, xhat2, inv2)
        dw2 = hidden.T @ dr2
        # the ReLU's gradient is zero where its input was not positive,
        # which is where its output is not
        dpre = dr2 @ w2.T
        dpre *= hidden > 0.0
        dx1 = dpre @ w1.T
        dx1 += dr2
        dr1, dg1, dc1 = _layer_norm_backward(dx1, g1, xhat1, inv1)
        grads = (heads.values.T @ dr1, dg1, dc1, x1.T @ dpre,
                 dpre.sum(axis=0), dw2, dr2.sum(axis=0), dg2, dc2)
        for param, g in zip(params, grads):
            param._accumulate(g)
        heads._accumulate(dr1 @ wo.T)
        if rows is None:
            x._accumulate(dr1)
        else:
            x._accumulate(_scatter_rows(dr1, rows, x.shape))

    return Tensor(out, (x, heads, *params), _backward)


def _scatter_rows(values: np.ndarray, rows: np.ndarray,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of ``shape`` with ``values`` at the distinct rows ``rows``."""
    out = np.zeros(shape, values.dtype)
    out[rows] = values
    return out


def select_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """The distinct rows ``rows`` of ``x`` as a graph node; the other
    rows get a zero gradient."""
    def _backward(grad):
        x._accumulate(_scatter_rows(grad, rows, x.shape))

    return Tensor(x.values[rows], (x,), _backward)


def encoder_forward(store: ParameterStore, x: Tensor,
                    structure: PackedStructure, cfg: ModelConfig,
                    recorder: Optional[BiasRecorder] = None) -> Tensor:
    """Run the full block stack over a pack's stacked token rows ``x``
    and return the hidden states of the rows that entity pooling reads,
    ``structure.read_rows``, (Σm, d).

    Each block is two graph nodes, the attention
    (:func:`structured_attention`) and the tail (:func:`block_tail`),
    and post-norm: ``LN(x + MHA(x))`` then ``LN(x + FFN(x))``.  Layers
    outside ``cfg``'s structured range attend without bias.  Every block
    but the last computes every row, as the next block's keys and values
    need them; the last computes only the read rows: their queries
    against every row's keys and values, and their tails.  A recorder
    asks for the bias of every cell, so with one the last block, too,
    computes every row; then, and in a stack without blocks, the read
    rows are taken from the output (:func:`select_rows`).
    """
    rows = structure.read_rows
    last = cfg.layers - 1 if recorder is None else -1
    for l in range(cfg.layers):
        read = l == last
        heads = structured_attention(store, x, structure, l, cfg,
                                     recorder=recorder, read=read)
        x = block_tail(store, x, heads, l, rows if read else None)
    if last < 0:
        x = select_rows(x, rows)
    return x


def export_bias_heatmap(recorder: BiasRecorder) -> str:
    """Render the layer-by-dependency mean-bias grid as tab-separated text.

    Every layer emits one row per dependency type including NA, which is
    structurally zero with no samples.
    """
    if not recorder.counts.any():
        raise ValueError("no document has a structured cell in a biased "
                         "layer; no bias records to export")
    lines = ["layer\tdependency\tmean_bias\tcount"]
    for l, (sums, counts) in enumerate(zip(recorder.sums, recorder.counts)):
        lines.append(f"{l}\t{dep_name(DependencyType.NA)}\t0\t0")
        for s, dep in enumerate(STRUCTURED_TYPES):
            mean = sums[s] / counts[s] if counts[s] else 0.0
            lines.append(f"{l}\t{dep_name(dep)}\t{mean:.10g}\t{counts[s]}")
    return "\n".join(lines) + "\n"
