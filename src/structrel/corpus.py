"""Document model and corpus ingestion.

The JSON layout mirrors DocRED: each document is an object with ``title``,
``sents`` (list of token lists), ``vertexSet`` (list of entities, each a
list of mentions with ``name`` / ``sent_id`` / ``pos`` / ``type``), and
``labels`` (list of ``{h, t, r}``).  Files may hold either a JSON array of
documents or one JSON object per line.
"""
from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from typing import Sequence


class CorpusError(ValueError):
    """Raised for malformed corpora; message carries doc id and location."""


@dataclass(frozen=True)
class Mention:
    """A contiguous token span inside one sentence. ``pos`` is half-open."""

    sent_id: int
    start: int
    end: int
    name: str = ""

    def __post_init__(self):
        if self.end <= self.start:
            raise CorpusError(
                f"mention {self.name!r}: span [{self.start}, {self.end}) is empty"
            )


@dataclass(frozen=True)
class Entity:
    """A set of coreferential mentions with one type label."""

    etype: str
    mentions: tuple[Mention, ...]

    def __post_init__(self):
        if not self.mentions:
            raise CorpusError("entity with zero mentions")
        object.__setattr__(self, "mentions", tuple(self.mentions))


@dataclass(frozen=True)
class RelationFact:
    """Directed fact: subject entity ordinal, object ordinal, relation name."""

    h: int
    t: int
    r: str

    def __post_init__(self):
        if self.h == self.t:
            raise CorpusError(f"fact {self.r!r}: subject equals object ({self.h})")


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[tuple[str, ...], ...]
    entities: tuple[Entity, ...]
    facts: tuple[RelationFact, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "sentences", tuple(tuple(s) for s in self.sentences)
        )
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "facts", tuple(self.facts))

    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def tokens(self) -> list[str]:
        return [tok for sent in self.sentences for tok in sent]

    def sentence_offsets(self) -> list[int]:
        offsets = []
        total = 0
        for sent in self.sentences:
            offsets.append(total)
            total += len(sent)
        return offsets

    def global_span(self, mention: Mention) -> tuple[int, int]:
        base = self.sentence_offsets()[mention.sent_id]
        return base + mention.start, base + mention.end

    def mention_tokens(self, entity_index: int) -> list[int]:
        """Global token indices across all mentions of one entity."""
        out = []
        for mention in self.entities[entity_index].mentions:
            lo, hi = self.global_span(mention)
            out.extend(range(lo, hi))
        return out


def read_text(path) -> str:
    """A text file's contents, decoded as UTF-8 with universal newlines
    (``\r\n`` and ``\r`` read as ``\n``), as ``open`` in text mode reads.

    A byte sequence that is not UTF-8 raises a :class:`CorpusError`
    naming the file, the byte and its offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(
            f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} is "
            f"not UTF-8 ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def validate_document(doc: Document) -> None:
    """Check span bounds, mention disjointness, and fact indices."""
    claimed: dict[int, str] = {}
    for entity in doc.entities:
        for mention in entity.mentions:
            if not (0 <= mention.sent_id < len(doc.sentences)):
                raise CorpusError(
                    f"doc {doc.doc_id!r}: mention {mention.name!r} names "
                    f"sentence {mention.sent_id}, document has {len(doc.sentences)}"
                )
            sent_len = len(doc.sentences[mention.sent_id])
            if mention.start < 0 or mention.end > sent_len:
                raise CorpusError(
                    f"doc {doc.doc_id!r}: mention {mention.name!r} span "
                    f"[{mention.start}, {mention.end}) lies outside sentence "
                    f"{mention.sent_id} of length {sent_len}"
                )
            lo, hi = doc.global_span(mention)
            for t in range(lo, hi):
                if t in claimed:
                    raise CorpusError(
                        f"doc {doc.doc_id!r}: mention {mention.name!r} overlaps "
                        f"mention {claimed[t]!r} at token {t}"
                    )
                claimed[t] = mention.name
    for fact in doc.facts:
        for side, idx in (("subject", fact.h), ("object", fact.t)):
            if not (0 <= idx < len(doc.entities)):
                raise CorpusError(
                    f"doc {doc.doc_id!r}: fact {fact.r!r} {side} index {idx} "
                    f"out of range for {len(doc.entities)} entities"
                )


def _reject_line_breaks(where: str, fields) -> None:
    """Reject names that are written one per line (vocabulary, entity
    types, schema, grid header) and would not read back.  ``fields``
    pairs a label, formatted with the name's index, with the names."""
    for label, names in fields:
        joined = "".join(names)
        if "\n" in joined or "\r" in joined:
            i, bad = next((i, n) for i, n in enumerate(names)
                          if "\n" in n or "\r" in n)
            raise CorpusError(
                f"{where}: {label.format(i)} {bad!r} contains a line break")


def _document_from_json(obj: dict, index: int, path) -> Document:
    doc_id = obj.get("title", f"doc{index}")
    where = f"{path}: doc {doc_id!r}"
    if not isinstance(doc_id, str):
        raise CorpusError(f"{where}: field 'title' is not a string")
    try:
        sents = obj["sents"]
        vertex_set = obj["vertexSet"]
    except KeyError as exc:
        raise CorpusError(f"{where}: missing field {exc.args[0]!r}") from exc
    labels = obj.get("labels", [])
    for field, value in (("sents", sents), ("vertexSet", vertex_set),
                         ("labels", labels)):
        if not isinstance(value, list):
            raise CorpusError(f"{where}: field {field!r} is not a list")
    sentences = []
    for s_idx, sent in enumerate(sents):
        if not isinstance(sent, list):
            raise CorpusError(f"{where}: sentence {s_idx} is not a list")
        sentences.append(tuple(str(tok) for tok in sent))
    entities = []
    for e_idx, mentions in enumerate(vertex_set):
        if not isinstance(mentions, list):
            raise CorpusError(f"{where}: entity {e_idx} is not a list")
        if not mentions:
            raise CorpusError(f"{where}: entity with zero mentions")
        for m in mentions:
            if not isinstance(m, dict):
                raise CorpusError(
                    f"{where}: entity {e_idx} has a mention {m!r} that is "
                    f"not an object"
                )
        parsed = []
        etype = mentions[0].get("type", "")
        if not isinstance(etype, str):
            raise CorpusError(
                f"{where}: entity {e_idx} has a type {etype!r} that is not a "
                f"string"
            )
        for m in mentions:
            try:
                start, end = m["pos"]
                parsed.append(
                    Mention(
                        sent_id=int(m["sent_id"]),
                        start=int(start),
                        end=int(end),
                        name=str(m.get("name", "")),
                    )
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CorpusError(f"{where}: malformed mention {m!r}") from exc
        entities.append(Entity(etype=etype, mentions=tuple(parsed)))
    facts = []
    for label in labels:
        try:
            facts.append(
                RelationFact(h=int(label["h"]), t=int(label["t"]), r=str(label["r"]))
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"{where}: malformed label {label!r}") from exc
    _reject_line_breaks(where, (
        ("title", [doc_id]),
        ("token {}", list(chain.from_iterable(sentences))),
        ("type of entity {}", [e.etype for e in entities]),
        ("relation of label {}", [f.r for f in facts]),
    ))
    doc = Document(
        doc_id=doc_id,
        sentences=tuple(sentences),
        entities=tuple(entities),
        facts=tuple(facts),
    )
    return doc


def parse_corpus(path) -> list[Document]:
    """Load and validate a corpus file.

    Accepts a JSON array or one JSON object per line.  Every document is
    validated; errors identify the document and the offending mention or
    label.  Document ids must be unique within the file, because gold and
    predicted facts are keyed by them.
    """
    text = read_text(path)
    stripped = text.lstrip()
    if not stripped:
        return []
    try:
        if stripped.startswith("["):
            raw = json.loads(text)
        else:
            raw = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: malformed JSON: {exc}") from exc
    docs = []
    first_index: dict[str, int] = {}
    for i, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}: document {i} is not a JSON object")
        doc = _document_from_json(obj, i, path)
        try:
            validate_document(doc)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None
        if doc.doc_id in first_index:
            raise CorpusError(
                f"{path}: documents {first_index[doc.doc_id]} and {i} share "
                f"the id {doc.doc_id!r}"
            )
        first_index[doc.doc_id] = i
        docs.append(doc)
    return docs


def document_to_json(doc: Document) -> dict:
    return {
        "title": doc.doc_id,
        "sents": [list(sent) for sent in doc.sentences],
        "vertexSet": [
            [
                {
                    "name": m.name,
                    "sent_id": m.sent_id,
                    "pos": [m.start, m.end],
                    "type": e.etype,
                }
                for m in e.mentions
            ]
            for e in doc.entities
        ],
        "labels": [{"h": f.h, "t": f.t, "r": f.r} for f in doc.facts],
    }


def write_corpus(docs: Sequence[Document], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([document_to_json(d) for d in docs], fh, ensure_ascii=False)
        fh.write("\n")


PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    word_to_index: dict[str, int]
    unk_index: int = 1

    def __len__(self) -> int:
        return len(self.word_to_index)

    def index(self, word: str) -> int:
        return self.word_to_index.get(word, self.unk_index)


def build_vocab(docs: Sequence[Document], min_count: int = 1) -> Vocabulary:
    """Word-to-index map with reserved padding and unknown slots.

    Slot 0 (``<pad>``) is never looked up; it stays reserved so that
    saved vocabularies and checkpoints keep their indices.  Words below
    ``min_count`` fall through to the unknown index.  Index order is first
    occurrence over the corpus, so a fixed corpus yields a fixed
    vocabulary.
    """
    counts: Counter[str] = Counter()
    first_seen: list[str] = []
    seen = set()
    for doc in docs:
        for tok in doc.tokens():
            counts[tok] += 1
            if tok not in seen:
                seen.add(tok)
                first_seen.append(tok)
    mapping = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    for tok in first_seen:
        if counts[tok] >= min_count:
            mapping[tok] = len(mapping)
    return Vocabulary(word_to_index=mapping)


def entity_type_labels(docs: Sequence[Document]) -> list[str]:
    """Sorted closed set of entity type labels present in a corpus."""
    return sorted({e.etype for doc in docs for e in doc.entities})


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    entities_per_doc: float
    mentions_per_doc: float
    mentions_per_sentence: float
    relation_types: int

    def render(self) -> str:
        lines = [
            "metric\tvalue",
            f"documents\t{self.documents}",
            f"entities_per_doc\t{self.entities_per_doc:.4f}",
            f"mentions_per_doc\t{self.mentions_per_doc:.4f}",
            f"mentions_per_sentence\t{self.mentions_per_sentence:.4f}",
            f"relation_types\t{self.relation_types}",
        ]
        return "\n".join(lines) + "\n"


def corpus_stats(docs: Sequence[Document]) -> CorpusStats:
    """Corpus averages; sentences with no mention are excluded from the
    mentions-per-sentence denominator."""
    n_docs = len(docs)
    total_entities = 0
    total_mentions = 0
    mention_bearing_sentences = 0
    relations = set()
    for doc in docs:
        total_entities += len(doc.entities)
        sentences_with = set()
        for e in doc.entities:
            total_mentions += len(e.mentions)
            for m in e.mentions:
                sentences_with.add(m.sent_id)
        mention_bearing_sentences += len(sentences_with)
        relations.update(f.r for f in doc.facts)
    return CorpusStats(
        documents=n_docs,
        entities_per_doc=total_entities / n_docs if n_docs else 0.0,
        mentions_per_doc=total_mentions / n_docs if n_docs else 0.0,
        mentions_per_sentence=(
            total_mentions / mention_bearing_sentences
            if mention_bearing_sentences
            else 0.0
        ),
        relation_types=len(relations),
    )
