"""Document encoding and batching.

A document is cut to the model's ``max_len`` and turned into index
arrays (word, entity-type, coreference ordinal; position is implicit),
its structure matrix, its entity-pooling weights and the layout of its
entity pairs.  Documents are encoded in groups
(:func:`encode_documents`): each is cut, checked and read on its own,
and the numpy work runs once per group, whose encodings hold read-only
views into shared arrays.  Training encodes all its documents in one
group, once, and batches are seeded chunks of those encodings; inference
encodes each pack's documents as one group as it runs them.

The model runs packs (:class:`Pack`), not single documents: consecutive
encodings whose tokens are stacked as the rows of one graph
(:func:`pack_spans`).  Training packs each batch, inference the
documents in corpus order, by their lengths after the cut.  Every part
of the model but the attention works row by row, so a pack pays each
numpy call once for all its documents.  The attention runs per
document, and its weights, one (n, n) grid per head and document, bound
a pack's size: a pack's documents hold at most ``PACK_BUDGET *
max_len**2`` cells between them.  Its rows are bound too, to
``PACK_ROWS * max_len``, so that many short documents do not make one
large graph.

Each encoding's structure also names the rows that entity pooling reads,
the document's mention tokens, ascending
(:attr:`~structrel.structure.StructureMatrix.read`), and a pack stacks
them (:attr:`~structrel.structure.PackedStructure.read_rows`): the
encoder's last block computes only those rows.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corpus import (
    Document,
    Entity,
    Mention,
    RelationFact,
    Vocabulary,
    validate_document,
)
from .structure import (
    DependencyType,
    PackedStructure,
    StructureMatrix,
    dependency_codes,
    dependency_table,
)
# Nothing here builds one document's structure any more; the benchmark's
# tracer (benchmark/spans.py) still wraps the name in this module.
from .structure import build_structure_matrix  # noqa: F401

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
    read-only.  :func:`pair_layouts` builds them.
    """

    pairs: list[tuple[int, int]]
    rows: int
    buckets: np.ndarray
    cells: np.ndarray

    @property
    def entities(self) -> int:
        """N, the entities whose pairs these are."""
        return self.rows - self.buckets.size

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


def pair_layouts(first_starts: np.ndarray,
                 entity_counts: Sequence[int]) -> list[PairLayout]:
    """The :class:`PairLayout` of each of several documents, built
    together: document i's entities are the next ``entity_counts[i]`` of
    ``first_starts``, each entity's earliest mention start.  One
    :func:`distance_bucket` call takes every pair's subject bucket, and a
    (documents, buckets) grid marks the buckets each document uses.  The
    layouts' arrays are read-only views into shared arrays."""
    counts = np.asarray(entity_counts, dtype=np.int64)
    pair_bounds = _bounds(counts * (counts - 1))
    doc = np.repeat(np.arange(counts.size), np.diff(pair_bounds))
    local = np.arange(pair_bounds[-1]) - pair_bounds[doc]
    subjects, rest = np.divmod(local, (counts - 1)[doc])
    objects = rest + (rest >= subjects)
    first = _bounds(counts)[doc]
    subject_buckets = distance_bucket(first_starts[first + subjects]
                                      - first_starts[first + objects])
    used = np.zeros((counts.size, N_DISTANCE_BUCKETS), dtype=bool)
    used[doc, subject_buckets] = True
    used |= used[:, ::-1]
    row_of = (counts - 1)[:, None] + np.cumsum(used, axis=1)
    cells = np.empty((2, 4, doc.size), dtype=np.int64)
    cells[0, :2] = subjects
    cells[0, 2:] = row_of[doc, subject_buckets]
    cells[1, ::2] = objects
    cells[1, 1::2] = row_of[doc, N_DISTANCE_BUCKETS - 1 - subject_buckets]
    buckets = np.nonzero(used)[1]
    bucket_bounds = _bounds(np.count_nonzero(used, axis=1))
    _read_only(buckets, cells)
    pairs = list(zip(subjects.tolist(), objects.tolist()))
    return [PairLayout(pairs[p_lo:p_hi], n + b_hi - b_lo,
                       buckets[b_lo:b_hi], cells[:, :, p_lo:p_hi])
            for n, p_lo, p_hi, b_lo, b_hi in zip(
                counts.tolist(), pair_bounds[:-1].tolist(),
                pair_bounds[1:].tolist(), bucket_bounds[:-1].tolist(),
                bucket_bounds[1:].tolist())]


@dataclass(frozen=True)
class EncodedDocument:
    """A document as the model reads it.  Its arrays are read-only views
    into arrays shared by the documents encoded with it
    (:func:`encode_documents`)."""

    doc: Document             # the document as encoded, after truncation
    word_idx: np.ndarray      # (n,) vocabulary indices
    etype_idx: np.ndarray     # (n,) 0 = non-entity, else 1 + type ordinal
    coref_idx: np.ndarray     # (n,) 0 = non-entity, else 1 + entity ordinal
    structure: StructureMatrix
    first_starts: np.ndarray  # (N,) earliest mention start per entity
    entity_ordinals: tuple[int, ...]  # each entity's ordinal before truncation
    # (N, n), float64: row ``e`` holds ``1 / k`` at each of entity ``e``'s
    # k mention tokens, so that ``pool_weights @ hidden`` is the mean of
    # every entity's tokens
    pool_weights: np.ndarray
    pair_layout: PairLayout   # the ordered pairs of the entities

    @property
    def n(self) -> int:
        return len(self.word_idx)

    @property
    def n_entities(self) -> int:
        return len(self.first_starts)


def encode_document(doc: Document, vocab: Vocabulary,
                    etype_to_index: dict[str, int], coref_cap: int,
                    max_len: int,
                    excluded: frozenset[DependencyType] = frozenset(),
                    ) -> EncodedDocument:
    """Truncate a document to ``max_len`` tokens and encode what is left:
    :func:`encode_documents` of one document."""
    return encode_documents([doc], vocab, etype_to_index, coref_cap,
                            max_len, excluded)[0]


def encode_documents(docs: Iterable[Document], vocab: Vocabulary,
                     etype_to_index: dict[str, int], coref_cap: int,
                     max_len: int,
                     excluded: frozenset[DependencyType] = frozenset(),
                     ) -> list[EncodedDocument]:
    """Truncate documents to ``max_len`` tokens and encode what is left,
    one :class:`EncodedDocument` per document, in order.

    Each document is cut, checked (the coreference table's capacity,
    the entity types, :func:`~structrel.corpus.validate_document`) and
    read into flat lists on its own, so a bad document raises what it
    would raise alone.  The numpy work then runs once for the group:
    the index arrays, every token's sentence and entity, the entities'
    first starts, the pooling weights in one buffer, the mention tokens
    that pooling reads and the pair layouts (:func:`pair_layouts`).  Only
    the structure is built per document, one lookup in the decision table
    over its tokens (:func:`~structrel.structure.dependency_codes`), with
    the excluded types mapped to NA; it holds the document's read tokens.
    """
    table = dependency_table(excluded)
    lookup, unk = vocab.word_to_index.get, vocab.unk_index
    cut: list[tuple[Document, tuple[int, ...]]] = []
    words: list[int] = []
    token_counts: list[int] = []
    sentence_sizes: list[int] = []
    entity_counts: list[int] = []
    entity_types: list[int] = []     # per entity, 1 + type ordinal
    mention_counts: list[int] = []   # per entity
    mention_entities: list[int] = []  # per mention, its entity in the group
    starts: list[int] = []           # per mention, its span in its document
    ends: list[int] = []
    for doc in docs:
        doc, ordinals = truncate_document(doc, max_len)
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
        validate_document(doc)
        offsets = doc.sentence_offsets
        for entity in doc.entities:
            mention_counts.append(len(entity.mentions))
            for m in entity.mentions:
                base = offsets[m.sent_id]
                starts.append(base + m.start)
                ends.append(base + m.end)
                mention_entities.append(len(entity_types))
            entity_types.append(1 + etype_to_index[entity.etype])
        tokens = [lookup(tok, unk) for sent in doc.sentences for tok in sent]
        words += tokens
        token_counts.append(len(tokens))
        sentence_sizes += map(len, doc.sentences)
        entity_counts.append(len(doc.entities))
        cut.append((doc, ordinals))

    token_bounds = _bounds(token_counts)
    entity_bounds = _bounds(entity_counts)
    word_idx = np.array(words, dtype=np.int64)
    sentence = np.repeat(np.arange(len(sentence_sizes)), sentence_sizes)
    starts = np.array(starts, dtype=np.int64)
    lengths = np.array(ends, dtype=np.int64) - starts
    # every mention token, mention after mention: its entity in the group,
    # that entity's document and ordinal there, and its column there
    of_token = np.repeat(np.arange(lengths.size), lengths)
    token_entity = np.array(mention_entities, dtype=np.int64)[of_token]
    token_doc = np.repeat(np.arange(len(cut)), entity_counts)[token_entity]
    ordinal = token_entity - entity_bounds[token_doc]
    column = (starts[of_token] + np.arange(of_token.size)
              - _bounds(lengths)[of_token])
    row = token_bounds[token_doc] + column
    entity = np.full(word_idx.size, -1, dtype=np.int64)
    entity[row] = token_entity
    etype_idx = np.zeros(word_idx.size, dtype=np.int64)
    etype_idx[row] = np.array(entity_types, dtype=np.int64)[token_entity]
    coref_idx = np.zeros(word_idx.size, dtype=np.int64)
    coref_idx[row] = ordinal + 1
    first_mention = _bounds(mention_counts)[:-1]
    first_starts = np.minimum.reduceat(starts, first_mention)
    token_totals = np.add.reduceat(lengths, first_mention)
    # document i's (N_i, n_i) pooling weights, one block after another
    n = np.array(token_counts, dtype=np.int64)
    pool_bounds = _bounds(np.array(entity_counts, dtype=np.int64) * n)
    pool = np.zeros(int(pool_bounds[-1]))
    pool[pool_bounds[token_doc] + ordinal * n[token_doc] + column] = (
        1.0 / token_totals)[token_entity]
    # every document's mention tokens, ascending: the rows pooling reads
    read = np.flatnonzero(entity >= 0)
    read_bounds = np.searchsorted(read, token_bounds)
    read -= np.repeat(token_bounds[:-1], np.diff(read_bounds))
    _read_only(word_idx, etype_idx, coref_idx, first_starts, pool, read)
    layouts = pair_layouts(first_starts, entity_counts)

    encodings = []
    t_b, e_b, p_b, r_b = (bounds.tolist() for bounds in
                          (token_bounds, entity_bounds, pool_bounds,
                           read_bounds))
    for i, ((doc, ordinals), layout) in enumerate(zip(cut, layouts)):
        tokens = slice(t_b[i], t_b[i + 1])
        codes = dependency_codes(sentence[tokens], entity[tokens], table)
        encodings.append(EncodedDocument(
            doc=doc,
            word_idx=word_idx[tokens],
            etype_idx=etype_idx[tokens],
            coref_idx=coref_idx[tokens],
            structure=StructureMatrix(doc.doc_id, codes,
                                      read[r_b[i]:r_b[i + 1]]),
            first_starts=first_starts[e_b[i]:e_b[i + 1]],
            entity_ordinals=ordinals,
            pool_weights=pool[p_b[i]:p_b[i + 1]].reshape(
                e_b[i + 1] - e_b[i], token_counts[i]),
            pair_layout=layout,
        ))
    return encodings


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

#: A pack's documents hold at most this many ``max_len`` documents'
#: tokens: the sum of their lengths is at most ``PACK_ROWS * max_len``.
#: Short documents reach this bound before the cells' one, and it keeps
#: the rows of a pack's graph and of its encodings' shared arrays to
#: those of eight ``max_len`` documents.
PACK_ROWS = 8


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


def pack_spans(lengths: Iterable[int],
               max_len: int) -> Iterator[tuple[int, int]]:
    """Cut documents of the given token counts, in order, into packs:
    the ``(lo, hi)`` index range of each pack's documents.  A document
    joins the open pack while the pack's documents' squared lengths sum
    to at most ``PACK_BUDGET * max_len**2`` and their lengths to at most
    ``PACK_ROWS * max_len``, and opens the next pack otherwise.  A
    document cut to ``max_len`` always fits an empty pack.  Lengths are
    read one ahead of the range yielded."""
    cell_budget = PACK_BUDGET * max_len ** 2
    row_budget = PACK_ROWS * max_len
    lo = hi = cells = rows = 0
    for n in lengths:
        if hi > lo and (cells + n * n > cell_budget
                        or rows + n > row_budget):
            yield lo, hi
            lo, cells, rows = hi, 0, 0
        cells += n * n
        rows += n
        hi += 1
    if hi > lo:
        yield lo, hi


def pack_documents(encodings: Iterable[EncodedDocument],
                   max_len: int) -> Iterator[Pack]:
    """Encodings, in order, as the packs of :func:`pack_spans` by their
    lengths."""
    encodings = tuple(encodings)
    return (Pack(encodings[lo:hi]) for lo, hi in
            pack_spans([enc.n for enc in encodings], max_len))
