"""Document encoding and batching.

A document is cut to the model's ``max_len`` and turned into index
arrays (word, entity-type, coreference ordinal; position is implicit)
plus its structure matrix.  Training encodes each document once and
batches are seeded chunks of those encodings; inference encodes the
documents in order as it runs them.  What the model derives from an
encoding alone, the entity-pooling weights and the layout of the entity
pairs, is computed on first use and kept with it, so training's epochs
compute it once per document.

The model runs packs (:class:`Pack`), not single documents: consecutive
encodings whose tokens are stacked as the rows of one graph
(:func:`pack_documents`).  Training packs each batch, inference the
documents in corpus order.  Every part of the model but the attention
works row by row, so a pack pays each numpy call once for all its
documents.  The attention runs per document, and its weights, one (n, n)
grid per head and document, bound a pack's size: a pack's documents
hold at most ``PACK_BUDGET * max_len**2`` cells between them.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corpus import Document, Entity, Mention, RelationFact, Vocabulary
from .structure import (
    DependencyType,
    PackedStructure,
    StructureMatrix,
    apply_ablation,
    build_structure_matrix,
)

#: Symmetric distance-bucket boundaries; index 9 is distance zero, positive
#: distances grow to the right, negative mirror to the left.
DISTANCE_BOUNDARIES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
N_DISTANCE_BUCKETS = 2 * len(DISTANCE_BOUNDARIES) + 1

_BOUNDARIES = np.asarray(DISTANCE_BOUNDARIES)
_BOUNDARIES.flags.writeable = False


def distance_bucket(distance):
    """Bucket signed token distances (an int or an integer array),
    symmetric around zero."""
    d = np.asarray(distance)
    level = np.searchsorted(_BOUNDARIES, np.abs(d), side="right")
    return len(DISTANCE_BOUNDARIES) + np.sign(d) * level


class TruncationWarning(UserWarning):
    pass


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def pair_row(h: int, t: int, n: int) -> Optional[int]:
    """The row of the pair (h, t) among the subject-major pairs of ``n``
    entities, as :class:`PairLayout` orders them; None when h equals t or
    either lies outside ``range(n)``."""
    if h == t or not (0 <= h < n and 0 <= t < n):
        return None
    return h * (n - 1) + t - (t > h)


@dataclass(frozen=True)
class CellSums:
    """How to sum one value per pair into the cells of a
    :class:`PairLayout`'s grid, in pair order within each cell.

    A cell that one pair meets takes that pair's value: ``single``
    (3, k) holds such cells' subject rows, object rows and pairs.  The
    other cells sum their pairs' values: ``multi`` (2, k') holds their
    subject and object rows, ``multi_pairs`` their pairs, cell after
    cell, and ``multi_starts`` where each cell's run of pairs begins, as
    ``np.add.reduceat`` takes it.  Every array is read-only.
    """

    single: np.ndarray
    multi: np.ndarray
    multi_pairs: np.ndarray
    multi_starts: np.ndarray


@dataclass(frozen=True)
class PairLayout:
    """The ordered entity pairs of a document and the indices the
    relation head gathers and scatters them by.

    Pairs are subject-major, (0, 1), (0, 2), ..., (1, 0), (1, 2), ...,
    P = N(N-1) of them (:func:`pair_row` gives a pair's row).  A pair's
    subject takes the distance bucket of ``start[s] - start[o]``, its
    object that of the negation.

    The head's table has ``rows`` rows: the N entities, then one row for
    each distinct bucket of either side, ``buckets``, ascending.  A
    pair's side is the sum of its entity's row and its bucket's, so a
    pair meets four (subject row, object row) cells of a (rows, rows)
    grid; ``cells`` (2, 4, P) holds their subject rows and object rows,
    in the order (s, o), (s, b_o), (b_s, o), (b_s, b_o).  Every array is
    read-only.
    """

    pairs: list[tuple[int, int]]
    rows: int
    buckets: np.ndarray
    cells: np.ndarray

    @property
    def entities(self) -> int:
        """N, the entities whose pairs these are."""
        return self.rows - self.buckets.size

    @classmethod
    def of(cls, first_starts: Sequence[int]) -> PairLayout:
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
        _read_only(buckets, cells)
        return cls(list(zip(subjects.tolist(), objects.tolist())),
                   n + buckets.size, buckets, cells)

    @cached_property
    def sums(self) -> CellSums:
        """The plan of the backward's sum into the grid; computed on
        first use, as inference needs none."""
        rows, p = self.rows, len(self.pairs)
        keys = (self.cells[0] * rows + self.cells[1]).ravel()
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        run_starts = np.flatnonzero(first)
        counts = np.diff(np.concatenate([run_starts, [keys.size]]))
        pair = order % p
        once = counts == 1
        single = np.empty((3, np.count_nonzero(once)), dtype=np.int64)
        single[0], single[1] = np.divmod(ordered[run_starts[once]], rows)
        single[2] = pair[run_starts[once]]
        multi = np.array(np.divmod(ordered[run_starts[~once]], rows))
        multi_pairs = pair[np.repeat(~once, counts)]
        multi_starts = np.cumsum(counts[~once]) - counts[~once]
        _read_only(single, multi, multi_pairs, multi_starts)
        return CellSums(single, multi, multi_pairs, multi_starts)


@dataclass(frozen=True)
class EncodedDocument:
    doc: Document             # the document as encoded, after truncation
    word_idx: np.ndarray      # (n,) vocabulary indices
    etype_idx: np.ndarray     # (n,) 0 = non-entity, else 1 + type ordinal
    coref_idx: np.ndarray     # (n,) 0 = non-entity, else 1 + entity ordinal
    structure: StructureMatrix
    entity_tokens: tuple[tuple[int, ...], ...]
    first_starts: tuple[int, ...]  # earliest mention start per entity
    entity_ordinals: tuple[int, ...]  # each entity's ordinal before truncation

    @property
    def n(self) -> int:
        return len(self.word_idx)

    @property
    def n_entities(self) -> int:
        return len(self.entity_tokens)

    @cached_property
    def pool_weights(self) -> np.ndarray:
        """(N, n), float64: row ``e`` holds ``1 / k`` at each of entity
        ``e``'s k mention tokens, so that ``pool_weights @ hidden`` is the
        mean of every entity's tokens."""
        counts = [len(tokens) for tokens in self.entity_tokens]
        pool = np.zeros((self.n_entities, self.n))
        rows = np.repeat(np.arange(self.n_entities), counts)
        cols = list(itertools.chain.from_iterable(self.entity_tokens))
        pool[rows, cols] = np.repeat(1.0 / np.asarray(counts, float), counts)
        _read_only(pool)
        return pool

    @cached_property
    def pair_layout(self) -> PairLayout:
        """The ordered entity pairs of the encoded document."""
        return PairLayout.of(self.first_starts)


def encode_document(doc: Document, vocab: Vocabulary,
                    etype_to_index: dict[str, int], coref_cap: int,
                    max_len: int,
                    excluded: frozenset[DependencyType] = frozenset(),
                    ) -> EncodedDocument:
    """Truncate a document to ``max_len`` tokens and encode what is left."""
    doc, ordinals = truncate_document(doc, max_len)
    n = doc.token_count()
    word_idx = np.array([vocab.index(tok) for tok in doc.tokens()], dtype=np.int64)
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
        tokens = doc.mention_tokens(e_ord)
        entity_tokens.append(tuple(tokens))
        starts = [doc.global_span(m)[0] for m in entity.mentions]
        first_starts.append(min(starts))
        for t in tokens:
            etype_idx[t] = 1 + etype_to_index[entity.etype]
            coref_idx[t] = 1 + e_ord
    structure = build_structure_matrix(doc)
    if excluded:
        structure = apply_ablation(structure, excluded)
    return EncodedDocument(
        doc=doc,
        word_idx=word_idx,
        etype_idx=etype_idx,
        coref_idx=coref_idx,
        structure=structure,
        entity_tokens=tuple(entity_tokens),
        first_starts=tuple(first_starts),
        entity_ordinals=ordinals,
    )


def truncate_document(doc: Document,
                      max_len: int) -> tuple[Document, tuple[int, ...]]:
    """Cut a document to its first ``max_len`` tokens; return it and the
    original ordinals of the entities it keeps.

    Mentions that cross or fall beyond the cut are dropped, entities left
    with no mention disappear, and facts touching a removed entity are
    dropped; every loss is warned.
    """
    if doc.token_count() <= max_len:
        return doc, tuple(range(len(doc.entities)))
    sentences: list[tuple[str, ...]] = []
    budget = max_len
    for sent in doc.sentences:
        if budget <= 0:
            break
        kept = sent[:budget]
        sentences.append(tuple(kept))
        budget -= len(kept)
    remap: dict[int, int] = {}
    entities: list[Entity] = []
    for e_ord, entity in enumerate(doc.entities):
        kept = kept_mentions(doc, entity, max_len)
        for m in entity.mentions:
            if m not in kept:
                lo, hi = doc.global_span(m)
                warnings.warn(
                    f"doc {doc.doc_id!r}: dropping mention {m.name!r} at "
                    f"[{lo}, {hi}) beyond the {max_len}-token cut",
                    TruncationWarning,
                )
        if kept:
            remap[e_ord] = len(entities)
            entities.append(Entity(entity.etype, kept))
        else:
            warnings.warn(
                f"doc {doc.doc_id!r}: entity {e_ord} lost all mentions to "
                f"truncation",
                TruncationWarning,
            )
    facts: list[RelationFact] = []
    for fact in doc.facts:
        if fact.h in remap and fact.t in remap:
            facts.append(RelationFact(remap[fact.h], remap[fact.t], fact.r))
        else:
            warnings.warn(
                f"doc {doc.doc_id!r}: dropping fact ({fact.h}, {fact.t}, "
                f"{fact.r!r}); an endpoint was truncated away",
                TruncationWarning,
            )
    return (Document(doc.doc_id, tuple(sentences), tuple(entities),
                     tuple(facts)),
            tuple(remap))


def kept_mentions(doc: Document, entity: Entity,
                  max_len: int) -> tuple[Mention, ...]:
    """The mentions of ``entity`` that a cut of ``doc`` to ``max_len``
    tokens keeps: those that end within the cut."""
    return tuple(m for m in entity.mentions
                 if doc.global_span(m)[1] <= max_len)


def make_batches(encodings: Sequence[EncodedDocument], batch_size: int,
                 seed: int) -> list[tuple[EncodedDocument, ...]]:
    """Seeded shuffle of already encoded documents, cut into chunks of
    ``batch_size``; the last chunk may be shorter."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.random.default_rng(seed).permutation(len(encodings))
    return [tuple(encodings[i] for i in order[lo:lo + batch_size])
            for lo in range(0, len(order), batch_size)]


#: A pack's documents hold at most this many ``max_len`` documents'
#: attention cells: the sum of their squared lengths is at most
#: ``PACK_BUDGET * max_len**2``.
PACK_BUDGET = 2


@dataclass(frozen=True)
class Pack:
    """Encoded documents run as one graph, their tokens stacked as rows
    in document order.

    Document ``i``'s tokens are rows ``token_bounds[i]`` to
    ``token_bounds[i + 1]``, its entities rows ``entity_bounds[i]`` to
    ``entity_bounds[i + 1]`` of the pooled entities, and its pairs rows
    ``pair_bounds[i]`` to ``pair_bounds[i + 1]`` of the logits.  Each
    is computed on first use; a training pack lives for one step.
    """

    docs: tuple[EncodedDocument, ...]

    @property
    def token_bounds(self) -> np.ndarray:
        return self.structure.bounds

    @cached_property
    def entity_bounds(self) -> np.ndarray:
        return _bounds([enc.n_entities for enc in self.docs])

    @cached_property
    def pair_bounds(self) -> np.ndarray:
        return _bounds([len(layout.pairs) for layout in self.layouts])

    @property
    def n(self) -> int:
        """Σn, the pack's tokens."""
        return int(self.token_bounds[-1])

    @property
    def n_pairs(self) -> int:
        return int(self.pair_bounds[-1])

    @cached_property
    def layouts(self) -> tuple[PairLayout, ...]:
        """Every document's pair layout, in document order."""
        return tuple(enc.pair_layout for enc in self.docs)

    @cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        """The stacked word, position, entity-type and coreference
        indices of every token, (Σn,) each; positions restart at 0 with
        every document."""
        bounds = self.token_bounds
        positions = (np.arange(self.n)
                     - np.repeat(bounds[:-1], np.diff(bounds)))
        return (np.concatenate([enc.word_idx for enc in self.docs]),
                positions,
                np.concatenate([enc.etype_idx for enc in self.docs]),
                np.concatenate([enc.coref_idx for enc in self.docs]))

    @cached_property
    def structure(self) -> PackedStructure:
        return PackedStructure.of(enc.structure for enc in self.docs)


def _bounds(sizes: Sequence[int]) -> np.ndarray:
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    _read_only(bounds)
    return bounds


def pack_documents(encodings: Iterable[EncodedDocument],
                   max_len: int) -> Iterator[Pack]:
    """Consecutive encodings, in order, as packs: a document joins the
    open pack while the pack's documents' squared lengths sum to at most
    ``PACK_BUDGET * max_len**2``, and opens the next pack otherwise.  A
    document cut to ``max_len`` always fits an empty pack.  Encodings
    are read one ahead of the pack yielded."""
    budget = PACK_BUDGET * max_len ** 2
    docs: list[EncodedDocument] = []
    cells = 0
    for enc in encodings:
        cost = enc.n ** 2
        if docs and cells + cost > budget:
            yield Pack(tuple(docs))
            docs, cells = [], 0
        docs.append(enc)
        cells += cost
    if docs:
        yield Pack(tuple(docs))
