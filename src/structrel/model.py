"""Relation extraction model: feature embedding, entity pooling, and the
pairwise bilinear classifier on top of the structured encoder.

Input embeddings sum word, learned absolute position, entity-type, and
coreference-ordinal tables.  Entity representations are the mean of all
their mention tokens.  Every ordered entity pair (subject != object) gets
its two vectors augmented with a signed-distance bucket embedding and is
scored against every relation with an independent bilinear form followed
by a sigmoid.

The bilinear forms of all relations are one graph node
(:func:`bilinear_scores`), so a document's graph has as many nodes
whatever the size of the schema, and their weights are one parameter,
``head.rel.W`` (d_e, M*d_e), relation ``r`` in columns ``r*d_e`` to
``(r+1)*d_e``.  The node walks the relations in chunks: a chunk's columns
of ``W``, a view, give ``t = e_s @ W`` for k relations in one product,
and a batched row product with ``e_o`` gives their k columns of scores.
The backward computes ``t`` again rather than keeping it, and handles
one chunk at a time: ``e_o``'s gradient from ``t``, ``e_s``'s from the
upstream gradient spread over ``e_o``, and ``W``'s added straight into
the chunk's columns of the one gradient.

A chunk's ``t`` and spread gradient are :func:`~structrel.autodiff.scratch`
arrays: they die inside the call, so one buffer each serves every chunk
of every document.  Taken from the C allocator, arrays of 1-2 MB per
document on a 96-relation schema come from fresh pages and go back to
the system when freed, so every training document would fault them in
again.  ``HEAD_CHUNK_BYTES`` sizes the chunks for speed alone: on a
96-relation schema 64 KiB chunks trained and evaluated slower than
256 KiB ones, and larger chunks gained nothing steady but resident
memory.
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
    add,
    binary_cross_entropy,
    concat,
    constant,
    matmul,
    scratch,
    sigmoid,
    sum_all,
    take_rows,
    xavier_uniform,
)
from .batching import EncodedDocument
from .config import ModelConfig
from .corpus import Vocabulary
from .encoder import BiasRecorder, encoder_forward, init_encoder_params

#: Symmetric distance-bucket boundaries; index 9 is distance zero, positive
#: distances grow to the right, negative mirror to the left.
DISTANCE_BOUNDARIES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
N_DISTANCE_BUCKETS = 2 * len(DISTANCE_BOUNDARIES) + 1

#: Bound on each temporary array of one chunk of the relation head, in
#: bytes; see the module docstring.
HEAD_CHUNK_BYTES = 256 * 1024


_BOUNDARIES = np.asarray(DISTANCE_BOUNDARIES)


def distance_bucket(distance):
    """Bucket signed token distances (an int or an integer array),
    symmetric around zero."""
    d = np.asarray(distance)
    level = np.searchsorted(_BOUNDARIES, np.abs(d), side="right")
    return len(DISTANCE_BOUNDARIES) + np.sign(d) * level


def head_chunk(rows: int, d_e: int) -> int:
    """Relations per chunk of :func:`bilinear_scores`: as many as keep
    each chunk's (rows, k*d_e) and (d_e, k*d_e) arrays within
    ``HEAD_CHUNK_BYTES``, and at least one."""
    per_relation = 8 * max(rows, d_e) * d_e  # float64
    return max(1, HEAD_CHUNK_BYTES // per_relation)


def bilinear_scores(e_s: Tensor, e_o: Tensor, w: Tensor) -> Tensor:
    """Every relation's bilinear form ``e_s W_r e_o`` over the pairs, as
    one graph node: (P, M), column r from columns ``r*d_e`` to
    ``(r+1)*d_e`` of ``w`` (d_e, M*d_e).

    The relations run in chunks of :func:`head_chunk`; the forward keeps
    no chunk array, and the backward computes each chunk's ``e_s @ W``
    again.
    """
    a, b, wv = e_s.values, e_o.values, w.values
    rows, d_e = a.shape
    if wv.shape[0] != d_e or wv.shape[1] % d_e:
        raise ShapeError(f"bilinear_scores: weights of shape {wv.shape} for "
                         f"pair features of width {d_e}")
    n_rel = wv.shape[1] // d_e
    k = head_chunk(rows, d_e)
    chunks = [(lo, min(lo + k, n_rel)) for lo in range(0, n_rel, k)]

    def products(lo, hi):
        """The chunk's columns of ``w``, a view, and ``e_s @ W`` as
        (P, hi - lo, d_e), in scratch."""
        cols = wv[:, lo * d_e:hi * d_e]
        t = np.matmul(a, cols, out=scratch("head.t", (rows, cols.shape[1])))
        return cols, t.reshape(rows, hi - lo, d_e)

    scores = np.empty((rows, n_rel))
    for lo, hi in chunks:
        _, t = products(lo, hi)
        scores[:, lo:hi] = (t @ b[:, :, None])[..., 0]

    def _backward(grad):
        da = np.zeros_like(a)
        db = np.zeros_like(b)
        if w.grad is None:
            w.grad = np.zeros_like(wv)
        for lo, hi in chunks:
            cols, t = products(lo, hi)
            g = grad[:, lo:hi]
            db += (g[:, None, :] @ t)[:, 0, :]
            gb = scratch("head.gb", (rows, hi - lo, d_e))
            np.multiply(g[:, :, None], b[:, None, :], out=gb)
            gb = gb.reshape(rows, -1)
            da += gb @ cols.T
            w.grad[:, lo * d_e:hi * d_e] += a.T @ gb
        e_s._accumulate(da)
        e_o._accumulate(db)

    return Tensor(scores, (e_s, e_o, w), _backward)


@dataclass(frozen=True)
class PredictedFact:
    doc_id: str
    h: int
    t: int
    r: str
    probability: float


@dataclass
class ForwardResult:
    doc_id: str
    pairs: list[tuple[int, int]]
    probabilities: Optional[Tensor]  # (P, M), None when < 2 entities
    hidden: Tensor


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
        self.store = ParameterStore()
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

    def embed_inputs(self, enc: EncodedDocument) -> Tensor:
        """Sum of word, position, entity-type, and coreference embeddings."""
        n = enc.n
        if n > self.cfg.max_len:
            raise ValueError(
                f"doc {enc.doc.doc_id!r} has {n} tokens, max_len is "
                f"{self.cfg.max_len}; truncate first"
            )
        x = take_rows(self.store["embed.word"].tensor, enc.word_idx)
        x = add(x, take_rows(self.store["embed.pos"].tensor, np.arange(n)))
        x = add(x, take_rows(self.store["embed.etype"].tensor, enc.etype_idx))
        x = add(x, take_rows(self.store["embed.coref"].tensor, enc.coref_idx))
        return x

    def pool_entities(self, hidden: Tensor, enc: EncodedDocument) -> Tensor:
        """Average each entity's mention tokens; (N, d_model)."""
        n, N = enc.n, enc.n_entities
        pool = np.zeros((N, n))
        for e, tokens in enumerate(enc.entity_tokens):
            pool[e, list(tokens)] = 1.0 / len(tokens)
        return matmul(constant(pool), hidden)

    def pair_features(self, entities: Tensor, enc: EncodedDocument,
                      ) -> tuple[Tensor, Tensor, list[tuple[int, int]]]:
        """Augment both sides of every ordered pair with its signed
        distance-bucket embedding."""
        # Subject-major order: (0, 1), (0, 2), ..., (1, 0), (1, 2), ...
        subj, obj = np.nonzero(~np.eye(enc.n_entities, dtype=bool))
        pairs = list(zip(subj.tolist(), obj.tolist()))
        starts = np.asarray(enc.first_starts, dtype=np.int64)
        gap = starts[subj] - starts[obj]
        subj_buckets = distance_bucket(gap)
        obj_buckets = distance_bucket(-gap)
        dist = self.store["head.dist"].tensor
        e_s = concat([take_rows(entities, subj), take_rows(dist, subj_buckets)],
                     axis=1)
        e_o = concat([take_rows(entities, obj), take_rows(dist, obj_buckets)],
                     axis=1)
        return e_s, e_o, pairs

    def score_relations(self, e_s: Tensor, e_o: Tensor) -> Tensor:
        """Sigmoid of the bilinear form per relation; (P, M)."""
        return sigmoid(bilinear_scores(e_s, e_o,
                                       self.store["head.rel.W"].tensor))

    def forward(self, enc: EncodedDocument,
                recorder: Optional[BiasRecorder] = None) -> ForwardResult:
        x = self.embed_inputs(enc)
        hidden = encoder_forward(self.store, x, enc.structure, self.cfg,
                                 recorder=recorder)
        if enc.n_entities < 2:
            return ForwardResult(enc.doc.doc_id, [], None, hidden)
        entities = self.pool_entities(hidden, enc)
        e_s, e_o, pairs = self.pair_features(entities, enc)
        probs = self.score_relations(e_s, e_o)
        return ForwardResult(enc.doc.doc_id, pairs, probs, hidden)

    # ---- training and prediction ----------------------------------------

    def compute_loss(self, result: ForwardResult, enc: EncodedDocument) -> Tensor:
        """Summed binary cross entropy over every ordered pair and every
        relation of one document."""
        if result.probabilities is None:
            return constant(0.0)
        targets = np.zeros((len(result.pairs), len(self.schema)))
        row_of = {pair: i for i, pair in enumerate(result.pairs)}
        for fact in enc.doc.facts:
            if fact.r not in self.rel_to_index:
                raise ValueError(
                    f"doc {enc.doc.doc_id!r}: relation {fact.r!r} is not in "
                    f"the schema"
                )
            targets[row_of[(fact.h, fact.t)], self.rel_to_index[fact.r]] = 1.0
        return sum_all(binary_cross_entropy(result.probabilities, targets))

    def predict(self, result: ForwardResult,
                threshold: float) -> list[PredictedFact]:
        """Every (pair, relation) whose probability reaches the threshold;
        the comparison is inclusive."""
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        if result.probabilities is None:
            return []
        values = result.probabilities.values
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
