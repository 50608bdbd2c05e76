"""Relation extraction model: feature embedding, entity pooling, and the
pairwise bilinear classifier on top of the structured encoder.

Input embeddings sum word, learned absolute position, entity-type, and
coreference-ordinal tables, one graph node (:func:`embedding_sum`).
Entity representations are the mean of all their mention tokens.  Every
ordered entity pair (subject != object) gets its two vectors augmented
with a signed-distance bucket embedding and is scored against every
relation with an independent bilinear form.  The forms' values are
logits: training takes their summed sigmoid cross entropy as one node
(:func:`sigmoid_cross_entropy`), and only prediction turns them into
probabilities, with :func:`~structrel.autodiff.sigmoid`.

The model runs a :class:`~structrel.batching.Pack` of documents as one
graph, their tokens stacked as rows (Σn, d), their entities (ΣN, d)
and their pairs (ΣP, M), each in document order; a single document is a
pack of one.  The encoder hands on the hidden states of the rows that
pooling reads, the documents' mention tokens (Σm, d), as its last block
computes only those (:func:`~structrel.encoder.encoder_forward`).  A
pack's forward is seven nodes with a two-layer encoder, whatever its
number of documents: the embeddings, each layer's attention and tail,
the pooling and the head; training adds the loss.  A pack without pairs
stops after the embeddings.  The attention, the pooling and the head
loop over the documents inside their nodes, the pooling as a
block-diagonal product whose zero blocks are never built.

The head is one graph node, :func:`pair_scores`, for every pair and
relation of the pack.  It runs each document's products on their own:
stacking them across documents would need gathers, and four documents'
products in one ran no faster than four.  For one document its inputs
are the pooled entities X (N, d), the distance table D (19, d_dist) and
the forms' weights ``head.rel.W`` (d_e, M*d_e), d_e = d + d_dist,
relation r in columns ``r*d_e`` to ``(r+1)*d_e``.  It builds no pair's
features.  A pair's subject side ``[X[s], D[b_s]]`` is
the sum of two rows of one table, ``[X[s], 0]`` and ``[0, D[b_s]]``,
and its object side likewise, so by linearity its score is a sum of four
products of table rows.  The table has the N entity rows and one row for
each of the u buckets the document uses
(:class:`~structrel.batching.PairLayout`).  With
``W_top = W[:d]`` and ``W_bottom = W[d:]``:

* ``A = [X @ W_top; D_u @ W_bottom]``, (N+u, M, d_e): every table row's
  ``row @ W_r`` for every relation, (N*d + u*d_dist)*M*d_e multiply-adds;
* ``Q[j, i, r]``, (N+u, N+u, M): table row j's nonzero half against
  ``A[i, r]``, X against ``A[..., :d]`` and ``D_u`` against
  ``A[..., d:]``, (N+u)*M*(N*d + u*d_dist) multiply-adds;
* the score of pair (s, o) and relation r: Q summed over the pair's four
  (object row j, subject row i) cells.

At wide-decomp's shape (N = 8, M = 96, d = 32, d_dist = 8, u about 10)
that is some 2M multiply-adds, where the per-pair products ``e_s @ W``
of every relation took P*M*d_e**2 = 8.6M over the P = N(N-1) = 56
pairs.  No array grows with P*M*d_e, so nothing is chunked.  The
forward keeps ``A`` for the backward, which runs the same steps in
reverse: the upstream gradient summed over the pairs that meet each
grid cell is ``dQ`` (a cell met by one pair takes its row as it is, the
others are summed with ``np.add.reduceat``, by the layout's
:attr:`~structrel.batching.PairLayout.sums`); ``dQ`` and the kept ``A``
give ``dA`` and the object sides' part of ``dX`` and ``dD``, and ``dA``
gives ``dW`` and the subject sides' part.

Pairs are subject-major, (0, 1), (0, 2), ..., (1, 0), ...  The node
reads its cells from the layout and would score any order; the order is
kept because it is the order of the logits' rows, of the targets of
:meth:`RelationExtractor.compute_loss` and of the facts that
:meth:`RelationExtractor.predict` returns.

A model computes in ``COMPUTE_DTYPE``, float32, the dtype of its
parameter store; every float array made here takes the dtype of its
operands, the loss's gradient too.  Only the probabilities of
:meth:`RelationExtractor.predict` are float64.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    Adam,
    ParameterStore,
    ShapeError,
    Tensor,
    sigmoid,
    xavier_uniform,
)
from .batching import (
    N_DISTANCE_BUCKETS,
    Pack,
    PairLayout,
    pair_row,
)
from .config import ModelConfig
from .corpus import Vocabulary
from .encoder import BiasRecorder, encoder_forward, init_encoder_params

#: The dtype of every model's parameters, and so of its whole forward and
#: backward: single precision, as SSAN trains in.
COMPUTE_DTYPE = np.dtype(np.float32)


def pair_scores(entities: Tensor, dist: Tensor, w: Tensor,
                layouts: Sequence[PairLayout]) -> Tensor:
    """Every relation's bilinear form ``e_s W_r e_o`` over the pairs of
    every document of a pack, as one graph node: (ΣP, M), the documents'
    pairs in order, relation r's form in columns ``r*d_e`` to
    ``(r+1)*d_e`` of ``w`` (d_e, M*d_e).  ``layouts`` holds one
    :class:`PairLayout` per document, whose entities are the next
    ``layout.entities`` rows of ``entities`` (ΣN, d); ``e_s`` is the
    subject's row joined to its distance bucket's row of ``dist`` (19,
    d_dist), and ``e_o`` the object's.  Each document is computed by the
    factoring of the module docstring on its own, and the backward adds
    each document's ``dW`` into ``w``'s gradient in document order.
    """
    x_all, table, wv = entities.values, dist.values, w.values
    d = x_all.shape[1]
    d_e = d + table.shape[1]
    if wv.shape[0] != d_e or wv.shape[1] % d_e:
        raise ShapeError(f"pair_scores: weights of shape {wv.shape} for "
                         f"pair features of width {d_e}")
    m = wv.shape[1] // d_e
    w_top, w_bottom = wv[:d], wv[d:]
    scores = np.empty((sum(len(l.pairs) for l in layouts), m), x_all.dtype)
    # (entity rows, pair rows, layout, bucket rows, A) per document that
    # has pairs
    saved = []
    e_lo = p_lo = 0
    for layout in layouts:
        n, p = layout.entities, len(layout.pairs)
        if p:
            x, rows = x_all[e_lo:e_lo + n], layout.rows
            buckets = table[layout.buckets]
            # A as (rows, M*d_e), kept for the backward; a_flat[:, :d]
            # and a_flat[:, d:] are the entity and bucket halves of every
            # row and relation
            a = np.empty((rows, m * d_e), x.dtype)
            np.matmul(x, w_top, out=a[:n])
            np.matmul(buckets, w_bottom, out=a[n:])
            a_flat = a.reshape(rows * m, d_e)
            # Q[j, i, r] as (rows, rows*M): row j's nonzero half against
            # A[i, r]
            q = np.empty((rows, rows * m), x.dtype)
            np.matmul(x, a_flat[:, :d].T, out=q[:n])
            np.matmul(buckets, a_flat[:, d:].T, out=q[n:])
            subject_rows, object_rows = layout.cells
            cells = np.take(q.reshape(rows * rows, m),
                            object_rows * rows + subject_rows, axis=0)
            np.add.reduce(cells, axis=0, out=scores[p_lo:p_lo + p])
            saved.append((slice(e_lo, e_lo + n), slice(p_lo, p_lo + p),
                          layout, buckets, a))
        e_lo += n
        p_lo += p

    def _backward(grad):
        dx_all = np.zeros_like(x_all)
        dtable = np.zeros_like(table)
        dw = np.empty_like(wv)  # one document's at a time
        for e_rows, p_rows, layout, buckets, a in saved:
            x, g = x_all[e_rows], grad[p_rows]
            n, rows = layout.entities, layout.rows
            sums = layout.sums
            dq = np.zeros((rows, rows, m), x.dtype)
            i, j, pair = sums.single
            dq[j, i] = g[pair]
            if sums.multi_starts.size:
                i, j = sums.multi
                dq[j, i] = np.add.reduceat(g[sums.multi_pairs],
                                           sums.multi_starts, axis=0)
            dq = dq.reshape(rows, rows * m)
            a_flat = a.reshape(rows * m, d_e)
            da = np.empty_like(a)
            da_flat = da.reshape(rows * m, d_e)
            np.matmul(dq[:n].T, x, out=da_flat[:, :d])
            np.matmul(dq[n:].T, buckets, out=da_flat[:, d:])
            dx = dq[:n] @ a_flat[:, :d]
            dx += da[:n] @ w_top.T
            dx_all[e_rows] = dx
            db = dq[n:] @ a_flat[:, d:]
            db += da[n:] @ w_bottom.T
            dtable[layout.buckets] += db
            np.matmul(x.T, da[:n], out=dw[:d])
            np.matmul(buckets.T, da[n:], out=dw[d:])
            w._accumulate(dw)
        entities._accumulate(dx_all)
        dist._accumulate(dtable)

    return Tensor(scores, (entities, dist, w), _backward)


def pool_blocks(hidden: Tensor, pack: Pack) -> Tensor:
    """Every entity's mean over its mention tokens, for every document of
    a pack, as one graph node: (ΣN, d), from ``hidden`` (Σm, d), the
    hidden states of the pack's read rows, ``pack.structure.read_rows``.

    The read rows are set among zero rows, (Σn, d), and pooled by the
    product of the pack's block-diagonal pooling matrix with them.  Block
    i is document i's
    :attr:`~structrel.batching.EncodedDocument.pool_weights`, (N_i, n_i),
    against the document's rows; the zero blocks are neither built nor
    multiplied, so work and memory grow with Σ N_i n_i rather than
    ΣN Σn.  The unread rows' weights are zero, so each product is the
    one over every row, term for term, and the pooled entities are
    bit-equal to those of an encoder that computed every row.  A product
    over the read columns alone would sum in another order where the
    BLAS kernel splits its sums by the output width (OpenBLAS 0.3.31 on
    x86-64: float32 at widths 4, 8 and 24, measured).
    """
    h = hidden.values
    rows = pack.structure.read_rows
    full = np.zeros((pack.n, h.shape[1]), h.dtype)
    full[rows] = h
    blocks = [(slice(e_lo, e_lo + enc.n_entities), slice(t_lo, t_lo + enc.n),
               enc.pool_weights.astype(h.dtype, copy=False))
              for enc, e_lo, t_lo in zip(pack.docs, pack.entity_bounds,
                                         pack.token_bounds)]
    pooled = np.empty((int(pack.entity_bounds[-1]), h.shape[1]), h.dtype)
    for e_rows, t_rows, weights in blocks:
        np.matmul(weights, full[t_rows], out=pooled[e_rows])

    def _backward(grad):
        dh = np.empty_like(full)  # every row lies in one block
        for e_rows, t_rows, weights in blocks:
            np.matmul(weights.T, grad[e_rows], out=dh[t_rows])
        hidden._accumulate(dh[rows])

    return Tensor(pooled, (hidden,), _backward)


def embedding_sum(tables: Sequence[Tensor],
                  rows: Sequence[np.ndarray]) -> Tensor:
    """The sum of one row of each table per token, as one graph node:
    ``tables[0][rows[0]] + tables[1][rows[1]] + ...``, added in that
    order; ``rows`` holds one index array per table, one row per token.
    The backward adds each token's gradient into its row of every table,
    once per occurrence of a repeated row."""
    x = tables[0].values[rows[0]]
    for table, idx in zip(tables[1:], rows[1:]):
        x = x + table.values[idx]

    def _backward(grad):
        for table, idx in zip(tables, rows):
            table._accumulate_rows(idx, grad)

    return Tensor(x, tuple(tables), _backward)


def sigmoid_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """The sigmoid cross entropy of ``logits`` against 0/1 ``targets`` of
    the same shape, summed, as one scalar graph node.

    Each element is ``max(z, 0) - z y + log1p(exp(-|z|))``, finite for
    any finite ``z``.  The gradient, ``sigmoid(z) - y``, is computed in
    the logits' dtype from ``exp(-|z|)``, which cannot overflow.
    """
    z = logits.values
    if targets.shape != z.shape:
        raise ShapeError(f"sigmoid_cross_entropy: target shape "
                         f"{targets.shape} does not match {z.shape}")
    terms = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))

    def _backward(grad):
        dz = sigmoid(z, z.dtype)
        dz -= targets
        dz *= grad
        logits._accumulate(dz)

    return Tensor(terms.sum(), (logits,), _backward)


@dataclass(frozen=True)
class PredictedFact:
    doc_id: str
    h: int
    t: int
    r: str
    probability: float


@dataclass
class DocumentResult:
    """One document's share of a pack's forward, for prediction."""

    doc_id: str
    pairs: list[tuple[int, int]]
    logits: Optional[np.ndarray]  # (P, M), None when < 2 entities
    ordinals: tuple[int, ...]  # each entity's ordinal before truncation


@dataclass
class ForwardResult:
    """A pack's forward: its graph's logits and the encoder's hidden
    states of the rows that entity pooling reads.  A pack without pairs
    has neither; its encoder did not run."""

    pack: Pack
    logits: Optional[Tensor]  # (ΣP, M), None when no document has a pair
    hidden: Optional[Tensor]  # (Σm, d) rows pack.structure.read_rows

    def documents(self) -> list[DocumentResult]:
        """Every document's pairs and logits, in pack order; the logits
        are rows of the pack's, as they are when this is called."""
        pack = self.pack
        out = []
        for enc, layout, lo, hi in zip(pack.docs, pack.layouts,
                                       pack.pair_bounds[:-1].tolist(),
                                       pack.pair_bounds[1:].tolist()):
            logits = self.logits.values[lo:hi] if hi > lo else None
            out.append(DocumentResult(enc.doc.doc_id, layout.pairs, logits,
                                      enc.entity_ordinals))
        return out


class RelationExtractor:
    """Owns all parameters and wires embeddings, encoder, and head."""

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary,
                 etype_labels: Sequence[str], schema: Sequence[str]):
        if len(set(schema)) != len(schema):
            raise ValueError("relation schema contains duplicate names")
        if not schema:
            raise ValueError("relation schema is empty")
        self.cfg = cfg
        self.vocab = vocab
        self.etype_labels = list(etype_labels)
        self.etype_to_index = {t: i for i, t in enumerate(self.etype_labels)}
        self.schema = list(schema)
        self.rel_to_index = {r: i for i, r in enumerate(self.schema)}
        self.store = ParameterStore(COMPUTE_DTYPE)
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d_model
        self.store.create("embed.word",
                          xavier_uniform(rng, len(vocab), d, (len(vocab), d)))
        self.store.create("embed.pos",
                          xavier_uniform(rng, cfg.max_len, d, (cfg.max_len, d)))
        n_types = len(self.etype_labels) + 1
        self.store.create("embed.etype",
                          xavier_uniform(rng, n_types, d, (n_types, d)))
        n_coref = cfg.coref_cap + 1
        self.store.create("embed.coref",
                          xavier_uniform(rng, n_coref, d, (n_coref, d)))
        init_encoder_params(self.store, rng, cfg)
        self.store.create(
            "head.dist",
            xavier_uniform(rng, N_DISTANCE_BUCKETS, cfg.d_dist,
                           (N_DISTANCE_BUCKETS, cfg.d_dist)),
        )
        # relation r's (d_e, d_e) form in columns r*d_e to (r+1)*d_e,
        # drawn in relation order as one form per relation would be
        d_e, m = d + cfg.d_dist, len(self.schema)
        w = xavier_uniform(rng, d_e, d_e, (m, d_e, d_e))
        self.store.create("head.rel.W",
                          w.transpose(1, 0, 2).reshape(d_e, m * d_e))

    # ---- forward pieces -------------------------------------------------

    def embed_inputs(self, pack: Pack) -> Tensor:
        """Sum of word, position, entity-type, and coreference embeddings
        of every token of the pack, as one graph node whose parents are
        the four tables; (Σn, d)."""
        for enc in pack.docs:
            if enc.n > self.cfg.max_len:
                raise ValueError(
                    f"doc {enc.doc.doc_id!r} has {enc.n} tokens, max_len is "
                    f"{self.cfg.max_len}; truncate first"
                )
        return embedding_sum(
            [self.store[f"embed.{name}"].tensor
             for name in ("word", "pos", "etype", "coref")],
            pack.rows)

    def pool_entities(self, hidden: Tensor, pack: Pack) -> Tensor:
        """Average each entity's mention tokens, one node over the pack's
        read rows (:func:`pool_blocks`); (ΣN, d_model)."""
        return pool_blocks(hidden, pack)

    def pair_features(self, pack: Pack) -> tuple[PairLayout, ...]:
        """Every document's ordered entity pairs, subject-major, with
        their distance buckets, as laid out when they were encoded."""
        return pack.layouts

    def score_relations(self, entities: Tensor,
                        pairs: Sequence[PairLayout]) -> Tensor:
        """The logits of every pair and relation, each relation's bilinear
        form over the pair's entities and distance buckets; (ΣP, M)."""
        return pair_scores(entities, self.store["head.dist"].tensor,
                           self.store["head.rel.W"].tensor, pairs)

    def forward(self, pack: Pack,
                recorder: Optional[BiasRecorder] = None) -> ForwardResult:
        """The pack's graph, from the embeddings to the logits.  A pack
        without pairs stops after the embeddings, which refuse an
        over-length document, as nothing reads its encoder's output; a
        recorder, which takes the bias of every document's cells, still
        runs its encoder."""
        x = self.embed_inputs(pack)
        if not pack.n_pairs:
            if recorder is not None:
                encoder_forward(self.store, x, pack.structure, self.cfg,
                                recorder=recorder)
            return ForwardResult(pack, None, None)
        hidden = encoder_forward(self.store, x, pack.structure, self.cfg,
                                 recorder=recorder)
        entities = self.pool_entities(hidden, pack)
        logits = self.score_relations(entities, self.pair_features(pack))
        return ForwardResult(pack, logits, hidden)

    # ---- training and prediction ----------------------------------------

    def compute_loss(self, result: ForwardResult) -> Tensor:
        """Summed sigmoid cross entropy of the logits over every ordered
        pair and every relation of every document of the pack; a pack
        without pairs has the loss 0, a leaf."""
        if result.logits is None:
            return Tensor(np.zeros((), self.store.dtype))
        targets = np.zeros(result.logits.shape,
                           dtype=result.logits.values.dtype)
        pack = result.pack
        for enc, offset in zip(pack.docs, pack.pair_bounds.tolist()):
            if enc.n_entities < 2:
                continue
            for fact in enc.doc.facts:
                if fact.r not in self.rel_to_index:
                    raise ValueError(
                        f"doc {enc.doc.doc_id!r}: relation {fact.r!r} is not "
                        f"in the schema"
                    )
                row = pair_row(fact.h, fact.t, enc.n_entities)
                if row is None:
                    raise ValueError(
                        f"doc {enc.doc.doc_id!r}: fact ({fact.h}, {fact.t}, "
                        f"{fact.r!r}) is no pair of its {enc.n_entities} "
                        f"entities"
                    )
                targets[offset + row, self.rel_to_index[fact.r]] = 1.0
        return sigmoid_cross_entropy(result.logits, targets)

    def predict(self, result: DocumentResult,
                threshold: float) -> list[PredictedFact]:
        """Every (pair, relation) of one document whose probability
        reaches the threshold; the comparison is inclusive."""
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        if result.logits is None:
            return []
        values = sigmoid(result.logits)
        rows, cols = np.nonzero(values >= threshold)  # pair-major order
        return [
            PredictedFact(result.doc_id, *result.pairs[i], self.schema[j],
                          float(values[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    def make_optimizer(self) -> Adam:
        return Adam(
            self.store,
            lr=self.cfg.lr,
            betas=(self.cfg.beta1, self.cfg.beta2),
            eps=self.cfg.adam_eps,
        )

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return self.store.state_arrays()

    def load_parameter_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.store.load_state_arrays(arrays)
