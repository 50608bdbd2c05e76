"""Synthetic corpus generator for controlled relation extraction.

Every document follows a three-sentence template in one of three variants
that are indistinguishable by surface statistics (always four-plus
entities, five-plus single-token mentions, one entity with two mentions):

* ``bridge``: entity A and entity B share sentence 0, B is mentioned again
  in sentence 1 next to entity C, and a singleton E sits in sentence 2.
  The second B mention is a coreference bridge from A's sentence into C's.
* ``dangling``: the two-mention entity links C's sentence to sentence 2,
  where nothing else lives, so the bridge leads nowhere.
* ``detour``: the two-mention entity links A's sentence to sentence 2,
  while C's neighbour is a fresh singleton.

Gold facts come from a deterministic structural rule: entities with
co-sentential mentions hold ``r0``; entities with no shared sentence that
are connected through a third entity's cross-sentence coreference hold
``r1``.  Only the ``bridge`` variant produces ``r1``, and recovering it
requires following the coreference link.  Mention surface forms are drawn
independently at random (coreferent mentions do not share a word), and
the entity order is shuffled, so neither words nor ordinals leak the
answer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, Entity, Mention, RelationFact

RELATION_CO_OCCUR = "r0"
RELATION_BRIDGE = "r1"
SENTENCE_END = "."
ENTITY_TYPE = "ENT"


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int = 200
    vocab_size: int = 40
    entities_per_doc: int = 4
    sentence_len: tuple[int, int] = (5, 8)
    bridge_fraction: float = 1.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        if self.n_docs < 1:
            raise ValueError("n_docs must be positive")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if self.entities_per_doc < 4:
            raise ValueError("the template needs at least 4 entities per doc")
        lo, hi = self.sentence_len
        if not 3 <= lo <= hi:
            raise ValueError("sentence_len must satisfy 3 <= lo <= hi")
        if not 0.0 <= self.bridge_fraction <= 1.0:
            raise ValueError("bridge_fraction must lie in [0, 1]")
        # 3 sentences, one slot per sentence is the terminator; the rest
        # can host single-token mentions.
        capacity = 3 * (lo - 1)
        if self.entities_per_doc + 1 > capacity:
            raise ValueError(
                f"{self.entities_per_doc} entities do not fit into three "
                f"sentences of minimum length {lo}"
            )


def entity_sentences(doc: Document, entity_index: int) -> frozenset[int]:
    return frozenset(m.sent_id for m in doc.entities[entity_index].mentions)


def _first_start(doc: Document, entity_index: int) -> int:
    return min(doc.global_span(m)[0] for m in doc.entities[entity_index].mentions)


def default_relation_rule(doc: Document) -> tuple[RelationFact, ...]:
    """Facts implied by the document's entity structure.

    ``r0`` joins entities with at least one co-sentential mention pair.
    ``r1`` joins entities with no shared sentence that a third entity
    bridges: the bridge has a mention beside one of them and, in a
    different sentence, a mention beside the other.  Direction follows
    first occurrence order.
    """
    N = len(doc.entities)
    sents = [entity_sentences(doc, i) for i in range(N)]
    starts = [_first_start(doc, i) for i in range(N)]
    facts = []
    for i in range(N):
        for j in range(i + 1, N):
            h, t = (i, j) if starts[i] <= starts[j] else (j, i)
            if sents[i] & sents[j]:
                facts.append(RelationFact(h, t, RELATION_CO_OCCUR))
                continue
            bridged = False
            for g in range(N):
                if g in (i, j):
                    continue
                near_i = sents[g] & sents[i]
                near_j = sents[g] & sents[j]
                if near_i and near_j and near_i != near_j:
                    bridged = True
                    break
            if bridged:
                facts.append(RelationFact(h, t, RELATION_BRIDGE))
    return tuple(facts)


def generate_synthetic(spec: SynthSpec) -> list[Document]:
    """Build a corpus whose gold facts are exactly
    :func:`default_relation_rule` of each document."""
    rng = np.random.default_rng(spec.seed)
    vocab = [f"w{i}" for i in range(spec.vocab_size)]
    docs = []
    variants = ("bridge", "dangling", "detour")
    other = (1.0 - spec.bridge_fraction) / 2.0
    probs = (spec.bridge_fraction, other, other)
    for doc_index in range(spec.n_docs):
        variant = variants[int(rng.choice(3, p=probs))]
        lo, hi = spec.sentence_len
        lengths = [int(rng.integers(lo, hi + 1)) for _ in range(3)]

        # role -> list of (entity role tag, sentence) single-token mentions
        if variant == "bridge":
            mention_plan = [("A", 0), ("B", 0), ("B", 1), ("C", 1), ("E", 2)]
        elif variant == "dangling":
            mention_plan = [("A", 0), ("B", 0), ("E", 1), ("C", 1), ("E", 2)]
        else:  # detour
            mention_plan = [("A", 0), ("B", 0), ("D", 1), ("C", 1), ("B", 2)]
        extra_roles = [f"X{i}" for i in range(spec.entities_per_doc - 4)]
        for role in extra_roles:
            mention_plan.append((role, int(rng.integers(0, 3))))

        # allocate distinct token positions per sentence (last slot is ".")
        free: list[list[int]] = [list(range(lengths[s] - 1)) for s in range(3)]
        needed = [0, 0, 0]
        for _, s in mention_plan:
            needed[s] += 1
        for s in range(3):
            while needed[s] > len(free[s]):
                lengths[s] += 1
                free[s].append(lengths[s] - 2)
        placements: dict[int, list[int]] = {0: [], 1: [], 2: []}
        for s in range(3):
            picks = rng.choice(len(free[s]), size=needed[s], replace=False)
            placements[s] = [free[s][int(p)] for p in picks]

        sentences = []
        for s in range(3):
            words = [vocab[int(w)] for w in rng.integers(0, spec.vocab_size,
                                                         size=lengths[s] - 1)]
            words.append(SENTENCE_END)
            sentences.append(words)

        cursor = {0: 0, 1: 0, 2: 0}
        mentions_by_role: dict[str, list[Mention]] = {}
        for role, s in mention_plan:
            pos = placements[s][cursor[s]]
            cursor[s] += 1
            surface = vocab[int(rng.integers(0, spec.vocab_size))]
            sentences[s][pos] = surface
            mentions_by_role.setdefault(role, []).append(
                Mention(sent_id=s, start=pos, end=pos + 1, name=surface)
            )

        roles = list(mentions_by_role)
        order = rng.permutation(len(roles))
        entities = tuple(
            Entity(ENTITY_TYPE, tuple(mentions_by_role[roles[int(i)]]))
            for i in order
        )
        doc = Document(
            doc_id=f"synth{doc_index:04d}",
            sentences=tuple(tuple(s) for s in sentences),
            entities=entities,
            facts=(),
        )
        docs.append(
            Document(doc.doc_id, doc.sentences, doc.entities,
                     default_relation_rule(doc))
        )
    return docs
