"""Document encoding and batching.

A document is cut to the model's ``max_len`` and turned into index
arrays (word, entity-type, coreference ordinal; position is implicit)
plus its structure matrix.  Training encodes each document once and
batches are seeded chunks of those encodings; inference encodes each
document as it runs it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document, Entity, Mention, RelationFact, Vocabulary
from .structure import (
    DependencyType,
    StructureMatrix,
    apply_ablation,
    build_structure_matrix,
)


class TruncationWarning(UserWarning):
    pass


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
        kept_mentions: list[Mention] = []
        for m in entity.mentions:
            lo, hi = doc.global_span(m)
            if hi <= max_len:
                kept_mentions.append(m)
            else:
                warnings.warn(
                    f"doc {doc.doc_id!r}: dropping mention {m.name!r} at "
                    f"[{lo}, {hi}) beyond the {max_len}-token cut",
                    TruncationWarning,
                )
        if kept_mentions:
            remap[e_ord] = len(entities)
            entities.append(Entity(entity.etype, tuple(kept_mentions)))
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


def make_batches(encodings: Sequence[EncodedDocument], batch_size: int,
                 seed: int) -> list[tuple[EncodedDocument, ...]]:
    """Seeded shuffle of already encoded documents, cut into chunks of
    ``batch_size``; the last chunk may be shorter."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.random.default_rng(seed).permutation(len(encodings))
    return [tuple(encodings[i] for i in order[lo:lo + batch_size])
            for lo in range(0, len(order), batch_size)]
