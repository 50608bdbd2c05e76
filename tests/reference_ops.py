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

:func:`reference_encode_document` is the encoder of one document at a
time that ``batching.encode_documents`` replaced, with the structure
built by boolean masks as ``structure.build_structure_matrix`` built it
before its decision table.

:func:`full_rows_encoder` and :func:`full_rows_logits` are the forward
as it stood before the encoder's last block computed only the rows that
entity pooling reads: every block over every row, and
:func:`full_rows_pool_blocks` pooling each document's rows.
"""
import itertools

import numpy as np

from structrel.autodiff import ShapeError, Tensor, _as_array, sigmoid
from structrel.batching import (
    N_DISTANCE_BUCKETS,
    Pack,
    distance_bucket,
    encode_documents,
    pack_spans,
    truncate_document,
)
from structrel.corpus import validate_document
from structrel.encoder import (
    BiasRecorder,
    block_tail,
    export_bias_heatmap,
    structured_attention,
)
from structrel.structure import (
    STRUCTURED_TYPES,
    DependencyType,
    StructureMatrix,
)


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


# ---- the encoder of one document at a time ------------------------------


def reference_structure_matrix(doc) -> StructureMatrix:
    """The dependency grid of a document, by boolean masks over the
    token pairs."""
    validate_document(doc)
    sent = np.repeat(np.arange(len(doc.sentences)),
                     [len(s) for s in doc.sentences])
    n = doc.token_count()
    ent = np.full(n, -1, dtype=np.int64)
    for e_idx, entity in enumerate(doc.entities):
        for mention in entity.mentions:
            lo, hi = doc.global_span(mention)
            ent[lo:hi] = e_idx
    in_mention = ent >= 0

    same_sent = sent[:, None] == sent[None, :]
    both = in_mention[:, None] & in_mention[None, :]
    one = in_mention[:, None] ^ in_mention[None, :]
    same_ent = (ent[:, None] == ent[None, :]) & both

    codes = np.full((n, n), DependencyType.NA, dtype=np.int8)
    codes[both & same_ent & same_sent] = DependencyType.INTRA_COREF
    codes[both & same_ent & ~same_sent] = DependencyType.INTER_COREF
    codes[both & ~same_ent & same_sent] = DependencyType.INTRA_RELATE
    codes[both & ~same_ent & ~same_sent] = DependencyType.INTER_RELATE
    codes[one & same_sent] = DependencyType.INTRA_NE
    return StructureMatrix(doc.doc_id, codes)


def reference_ablation(m: StructureMatrix, excluded) -> StructureMatrix:
    """Every cell of an excluded type replaced with NA."""
    excluded = set(excluded)
    if DependencyType.NA in excluded:
        raise ValueError("NA cannot be excluded; it is the absence of structure")
    for dep in excluded:
        if dep not in STRUCTURED_TYPES:
            raise ValueError(f"unknown dependency type in exclusion set: {dep!r}")
    if not excluded:
        return StructureMatrix(m.doc_id, m.codes.copy())
    mask = np.isin(m.codes, [int(d) for d in excluded])
    codes = np.where(mask, np.int8(DependencyType.NA), m.codes)
    return StructureMatrix(m.doc_id, codes)


def reference_pair_layout(first_starts) -> dict:
    """The fields of one document's ``PairLayout``: pairs, rows, buckets
    and cells."""
    starts = np.asarray(first_starts, dtype=np.int64)
    n = starts.size
    subjects, objects = np.nonzero(~np.eye(n, dtype=bool))
    subject_buckets = distance_bucket(starts[subjects] - starts[objects])
    used = np.zeros(N_DISTANCE_BUCKETS, dtype=bool)
    used[subject_buckets] = True
    used |= used[::-1]
    buckets = np.flatnonzero(used)
    row_of = n - 1 + np.cumsum(used)
    cells = np.empty((2, 4, subjects.size), dtype=np.int64)
    cells[0, :2] = subjects
    cells[0, 2:] = row_of[subject_buckets]
    cells[1, ::2] = objects
    cells[1, 1::2] = row_of[::-1][subject_buckets]
    return dict(pairs=list(zip(subjects.tolist(), objects.tolist())),
                rows=n + buckets.size, buckets=buckets, cells=cells)


def reference_encode_document(doc, vocab, etype_to_index, coref_cap: int,
                              max_len: int, excluded=frozenset()) -> dict:
    """The fields of ``batching.EncodedDocument`` for one document, each
    computed on its own; ``pair_layout`` is
    :func:`reference_pair_layout`'s dict."""
    doc, ordinals = truncate_document(doc, max_len)
    n = doc.token_count()
    word_idx = np.array([vocab.index(tok) for tok in doc.tokens()],
                        dtype=np.int64)
    etype_idx = np.zeros(n, dtype=np.int64)
    coref_idx = np.zeros(n, dtype=np.int64)
    entity_tokens = []
    first_starts = []
    for e_ord, entity in enumerate(doc.entities):
        if e_ord + 1 > coref_cap:
            raise ValueError(
                f"doc {doc.doc_id!r}: entity ordinal {e_ord} exceeds the "
                f"coreference table capacity {coref_cap}"
            )
        if entity.etype not in etype_to_index:
            raise ValueError(
                f"doc {doc.doc_id!r}: unknown entity type {entity.etype!r}"
            )
        tokens = [t for m in entity.mentions
                  for t in range(*doc.global_span(m))]
        entity_tokens.append(tuple(tokens))
        starts = [doc.global_span(m)[0] for m in entity.mentions]
        first_starts.append(min(starts))
        for t in tokens:
            etype_idx[t] = 1 + etype_to_index[entity.etype]
            coref_idx[t] = 1 + e_ord
    structure = reference_structure_matrix(doc)
    if excluded:
        structure = reference_ablation(structure, excluded)
    read = sorted(itertools.chain.from_iterable(entity_tokens))
    structure = StructureMatrix(doc.doc_id, structure.codes,
                                np.array(read, dtype=np.int64))
    counts = [len(tokens) for tokens in entity_tokens]
    pool = np.zeros((len(entity_tokens), n))
    rows = np.repeat(np.arange(len(entity_tokens)), counts)
    cols = list(itertools.chain.from_iterable(entity_tokens))
    pool[rows, cols] = np.repeat(1.0 / np.asarray(counts, float), counts)
    return dict(doc=doc, word_idx=word_idx, etype_idx=etype_idx,
                coref_idx=coref_idx, structure=structure,
                first_starts=np.array(first_starts, dtype=np.int64),
                entity_ordinals=ordinals, pool_weights=pool,
                pair_layout=reference_pair_layout(first_starts))


# ---- the forward over every row -------------------------------------------


def full_rows_pool_blocks(hidden: Tensor, pack: Pack) -> Tensor:
    """``model.pool_blocks`` over every row's hidden state ``hidden``
    (Σn, d): each document's pooling weights times its rows."""
    h = hidden.values
    blocks = [(slice(e_lo, e_lo + enc.n_entities), slice(t_lo, t_lo + enc.n),
               enc.pool_weights.astype(h.dtype, copy=False))
              for enc, e_lo, t_lo in zip(pack.docs, pack.entity_bounds,
                                         pack.token_bounds)]
    pooled = np.empty((int(pack.entity_bounds[-1]), h.shape[1]), h.dtype)
    for e_rows, t_rows, weights in blocks:
        np.matmul(weights, h[t_rows], out=pooled[e_rows])

    def _backward(grad):
        dh = np.empty_like(h)
        for e_rows, t_rows, weights in blocks:
            np.matmul(weights.T, grad[e_rows], out=dh[t_rows])
        hidden._accumulate(dh)

    return Tensor(pooled, (hidden,), _backward)


def full_rows_encoder(model, pack: Pack, recorder=None) -> Tensor:
    """The embeddings and every block of ``model`` over every row of
    ``pack``, (Σn, d)."""
    x = model.embed_inputs(pack)
    for layer in range(model.cfg.layers):
        heads = structured_attention(model.store, x, pack.structure, layer,
                                     model.cfg, recorder)
        x = block_tail(model.store, x, heads, layer)
    return x


def full_rows_logits(model, pack: Pack) -> Tensor:
    """The logits of a pack that has a pair, from every row."""
    entities = full_rows_pool_blocks(full_rows_encoder(model, pack), pack)
    return model.score_relations(entities, pack.layouts)


def full_rows_bias_heatmap(model, docs) -> str:
    """``harness.collect_bias_heatmap`` with every pack's encoder run over
    every row."""
    cfg = model.cfg
    recorder = BiasRecorder(cfg.layers)
    lengths = [min(doc.token_count(), cfg.max_len) for doc in docs]
    for lo, hi in pack_spans(lengths, cfg.max_len):
        encodings = encode_documents(docs[lo:hi], model.vocab,
                                     model.etype_to_index, cfg.coref_cap,
                                     cfg.max_len,
                                     cfg.excluded_dependency_set())
        full_rows_encoder(model, Pack(tuple(encodings)), recorder)
    return export_bias_heatmap(recorder)
