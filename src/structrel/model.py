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
whatever the size of the schema.  The node walks the relations in
chunks: a chunk's weights side by side, (d_e, k*d_e), give
``t = e_s @ W`` for k relations in one product, and a batched row
product with ``e_o`` gives their k columns of scores.  The backward
computes ``t`` again rather than keeping it, and handles one chunk at a
time: ``e_o``'s gradient from ``t``, ``e_s``'s and the weights' from the
upstream gradient spread over ``e_o``.

Chunks are sized so that no temporary of a chunk exceeds
``HEAD_CHUNK_BYTES`` (64 KiB), unless one relation's alone does.  That is
what makes the node pay: the whole head at once needs several arrays of
1-2 MB per document on a 96-relation schema, which the C allocator
serves from fresh pages and hands back to the system when they are
freed, so every training document faulted them in again (minor page
faults per benchmark run rose five- to tenfold) and training ran about a
fifth slower than in chunks.  Arrays of 64 KiB are reused from the
process heap.

For the same reason each relation keeps its own (d_e, d_e) parameter,
where the encoder stores each layer's attention parameters stacked.  The
head stored as one (d_e, M*d_e) array computes bit-identical results,
but on a 96-relation schema that array is 1.2 MB, and Adam's update and
``zero_grad`` make full-size temporaries of it on every step: minor page
faults per 8 s wide-decomp benchmark run doubled (106k to 227k), and
training speed gained nothing steady.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    Adam,
    ParameterStore,
    Tensor,
    add,
    binary_cross_entropy,
    concat,
    constant,
    matmul,
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
HEAD_CHUNK_BYTES = 64 * 1024


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


def bilinear_scores(e_s: Tensor, e_o: Tensor,
                    weights: Sequence[Tensor]) -> Tensor:
    """Every relation's bilinear form ``e_s W_r e_o`` over the pairs, as
    one graph node: (P, M), column r from ``weights[r]``.

    The relations run in chunks of :func:`head_chunk`; the forward keeps
    no chunk array, and the backward computes each chunk's ``e_s @ W``
    again.
    """
    a, b = e_s.values, e_o.values
    rows, d_e = a.shape
    k = head_chunk(rows, d_e)
    chunks = [(lo, weights[lo:lo + k]) for lo in range(0, len(weights), k)]

    def products(chunk):
        """The chunk's weights side by side and ``e_s @ W``, (P, k, d_e)."""
        w = np.concatenate([p.values for p in chunk], axis=1)
        return w, (a @ w).reshape(rows, len(chunk), d_e)

    scores = np.empty((rows, len(weights)))
    for lo, chunk in chunks:
        _, t = products(chunk)
        scores[:, lo:lo + len(chunk)] = (t @ b[:, :, None])[..., 0]

    def _backward(grad):
        da = np.zeros_like(a)
        db = np.zeros_like(b)
        for lo, chunk in chunks:
            w, t = products(chunk)
            g = grad[:, lo:lo + len(chunk)]
            db += (g[:, None, :] @ t)[:, 0, :]
            gb = (g[:, :, None] * b[:, None, :]).reshape(rows, -1)
            da += gb @ w.T
            dw = a.T @ gb
            for j, p in enumerate(chunk):
                p._accumulate(dw[:, j * d_e:(j + 1) * d_e])
        e_s._accumulate(da)
        e_o._accumulate(db)

    return Tensor(scores, (e_s, e_o, *weights), _backward)


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
        d_e = d + cfg.d_dist
        for r in self.schema:
            self.store.create(f"head.rel.{r}.W",
                              xavier_uniform(rng, d_e, d_e, (d_e, d_e)))

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
        weights = [self.store[f"head.rel.{r}.W"].tensor for r in self.schema]
        return sigmoid(bilinear_scores(e_s, e_o, weights))

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
