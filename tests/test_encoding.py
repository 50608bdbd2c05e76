"""Documents encoded as a group (``batching.encode_documents``) against
the encoder of one document at a time (``reference_ops``), field by field
and bit for bit; the decision table of the structure; the cached
sentence offsets; the row bound of packs."""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from structrel import harness
from structrel.batching import (
    PACK_BUDGET,
    PACK_ROWS,
    EncodedDocument,
    PairLayout,
    TruncationWarning,
    encode_document,
    encode_documents,
    pack_spans,
)
from structrel.corpus import (
    CorpusError,
    Document,
    Entity,
    Mention,
    RelationFact,
    build_vocab,
)
from structrel.structure import (
    DEPENDENCY_TABLE,
    STRUCTURED_TYPES,
    DependencyType,
    build_structure_matrix,
    dependency_table,
)
from structrel.synth import SynthSpec, generate_synthetic

from conftest import random_document
from reference_ops import reference_encode_document, reference_structure_matrix
from test_harness import small_config

D = DependencyType
ETYPES = {"ENT": 0, "PER": 1, "LOC": 2}


def same_array(got: np.ndarray, expect: np.ndarray) -> bool:
    return (got.dtype == expect.dtype and got.shape == expect.shape
            and got.tobytes() == expect.tobytes())


def assert_equals_reference(enc: EncodedDocument, expect: dict) -> None:
    """Every field of ``enc`` bit-equal to the reference encoder's."""
    assert [f.name for f in dataclasses.fields(enc)] == list(expect)
    for name, value in expect.items():
        got = getattr(enc, name)
        if name == "structure":
            assert got.doc_id == value.doc_id
            assert same_array(got.codes, value.codes), name
            assert same_array(got.read, value.read), "read"
            assert not got.read.flags.writeable
        elif name == "pair_layout":
            assert isinstance(got, PairLayout)
            assert got.pairs == value["pairs"]
            assert got.rows == value["rows"]
            assert same_array(got.buckets, value["buckets"]), "buckets"
            assert same_array(got.cells, value["cells"]), "cells"
        elif isinstance(value, np.ndarray):
            assert same_array(got, value), name
            assert not got.flags.writeable, name
        else:
            assert got == value, name


def encode_both(docs, max_len, excluded=frozenset(), coref_cap=64):
    """The group's encodings and the reference's, each with the
    truncation warnings it gave, in order."""
    vocab = build_vocab(docs[::2])  # so that some words are unknown
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always", TruncationWarning)
        got = encode_documents(docs, vocab, ETYPES, coref_cap, max_len,
                               excluded)
    with warnings.catch_warnings(record=True) as expect_warnings:
        warnings.simplefilter("always", TruncationWarning)
        expect = [reference_encode_document(doc, vocab, ETYPES, coref_cap,
                                            max_len, excluded)
                  for doc in docs]
    assert ([str(w.message) for w in got_warnings]
            == [str(w.message) for w in expect_warnings])
    return got, expect


def typed(rng, doc: Document) -> Document:
    """``doc`` with its entities given random types of ``ETYPES``."""
    names = list(ETYPES)
    return dataclasses.replace(doc, entities=tuple(
        dataclasses.replace(e, etype=names[rng.integers(len(names))])
        for e in doc.entities))


EXCLUSIONS = [frozenset(), frozenset({D.INTRA_NE}),
              frozenset({D.INTER_COREF, D.INTRA_RELATE}),
              frozenset(STRUCTURED_TYPES)]


def mention(s, lo, hi):
    return Mention(s, lo, hi, f"m{s}_{lo}")


def hand_made() -> list[Document]:
    """Edge shapes: no tokens, no entity, one entity, multi-token
    mentions, coreference within and across sentences, and (at a cut of
    eight tokens) a mention, an entity and a fact lost to truncation."""
    words = tuple(f"w{i}" for i in range(6))
    return [
        Document("empty", (), (), ()),
        Document("empty-sentence", ((),), (), ()),
        Document("no-entity", (words[:3], words[3:]), (), ()),
        Document("one-entity", (words,),
                 (Entity("PER", (mention(0, 1, 3),)),), ()),
        Document("coref", (words, words[:4]), (
            Entity("PER", (mention(0, 0, 2), mention(0, 3, 4),
                           mention(1, 1, 3))),
            Entity("LOC", (mention(0, 4, 6),)),
            Entity("ENT", (mention(1, 3, 4),)),
        ), (RelationFact(0, 1, "r"), RelationFact(2, 0, "s"))),
        Document("cut", (words, words), (
            Entity("PER", (mention(0, 0, 1), mention(1, 1, 3))),
            Entity("LOC", (mention(1, 3, 5),)),
            Entity("ENT", (mention(0, 2, 4),)),
            Entity("PER", (mention(1, 0, 1), mention(1, 5, 6))),
        ), (RelationFact(0, 1, "r"), RelationFact(1, 2, "r"),
            RelationFact(3, 2, "s"))),
    ]


class TestAgainstTheReference:
    @pytest.mark.parametrize("excluded", EXCLUSIONS,
                             ids=lambda e: ",".join(d.name for d in e))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_and_synthetic_corpora(self, seed, excluded):
        rng = np.random.default_rng(seed)
        docs = [typed(rng, random_document(rng, f"r{i}")) for i in range(40)]
        docs += generate_synthetic(SynthSpec(n_docs=10, seed=seed,
                                             entities_per_doc=5,
                                             sentence_len=(6, 9)))
        rng.shuffle(docs)
        for max_len in (64, 12, 5):
            got, expect = encode_both(docs, max_len, excluded)
            assert len(got) == len(expect) == len(docs)
            for enc, ref in zip(got, expect):
                assert_equals_reference(enc, ref)

    @pytest.mark.parametrize("excluded", EXCLUSIONS[:2],
                             ids=lambda e: ",".join(d.name for d in e))
    def test_hand_made_documents(self, excluded):
        docs = hand_made()
        got, expect = encode_both(docs, 8, excluded)
        for enc, ref in zip(got, expect):
            assert_equals_reference(enc, ref)
        cut = got[-1]
        assert cut.entity_ordinals == (0, 2, 3)
        assert cut.doc.facts == (RelationFact(2, 1, "s"),)
        assert [enc.n for enc in got] == [0, 0, 6, 6, 8, 8]
        # each alone, as the group's first and as its last document
        for doc, ref in zip(docs, expect):
            for group in ([doc], [doc, docs[4]], [docs[4], doc]):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TruncationWarning)
                    encs = encode_documents(group, *self.args(docs),
                                            excluded)
                assert_equals_reference(encs[group.index(doc)], ref)

    @staticmethod
    def args(docs):
        return build_vocab(docs[::2]), ETYPES, 64, 8

    def test_no_documents(self):
        assert encode_documents([], *self.args([])) == []


def bad_documents() -> list[tuple[Document, type, str]]:
    words = tuple(f"w{i}" for i in range(6))
    one = (mention(0, 0, 1),)
    return [
        (Document("crowded", (words,), tuple(
            Entity("ENT", (mention(0, i, i + 1),)) for i in range(3)), ()),
         ValueError, "exceeds the coreference table capacity 2"),
        (Document("alien", (words,), (Entity("ENT", one),
                                      Entity("ALIEN", (mention(0, 2, 3),))),
                  ()),
         ValueError, "unknown entity type 'ALIEN'"),
        (Document("overlap", (words,), (Entity("ENT", (mention(0, 0, 2),)),
                                        Entity("ENT", (mention(0, 1, 3),))),
                  ()),
         CorpusError, "overlaps"),
        (Document("fact", (words,), (Entity("ENT", one),),
                  (RelationFact(0, 4, "r"),)),
         CorpusError, "object index 4 out of range"),
    ]


@pytest.mark.parametrize("bad, error, text", bad_documents(),
                         ids=lambda v: getattr(v, "doc_id", ""))
def test_a_bad_document_raises_its_own_error(bad, error, text):
    good = hand_made()[3:5]
    vocab = build_vocab(good)
    args = (vocab, ETYPES, 2, 64)
    with pytest.raises(error) as alone:
        encode_document(bad, *args)
    with pytest.raises(error) as reference:
        reference_encode_document(bad, *args)
    with pytest.raises(error) as grouped:
        encode_documents([good[0], bad, good[1]], *args)
    assert text in str(alone.value)
    assert str(grouped.value) == str(alone.value) == str(reference.value)


class TestDecisionTable:
    def test_one_read_only_table(self):
        assert DEPENDENCY_TABLE.dtype == np.int8
        assert DEPENDENCY_TABLE.shape == (16,)
        assert not DEPENDENCY_TABLE.flags.writeable
        assert not dependency_table({D.INTRA_NE}).flags.writeable

    def test_excluded_types_map_to_na(self):
        for excluded in EXCLUSIONS:
            table = dependency_table(excluded)
            for key, code in enumerate(DEPENDENCY_TABLE.tolist()):
                expect = D.NA if code in excluded else code
                assert table[key] == expect

    def test_refuses_what_ablation_refuses(self):
        with pytest.raises(ValueError, match="NA cannot be excluded"):
            dependency_table({D.NA})
        with pytest.raises(ValueError, match="unknown dependency type"):
            dependency_table({9})

    def test_build_equals_the_masks(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            doc = random_document(rng, f"m{trial}")
            got = build_structure_matrix(doc)
            assert same_array(got.codes, reference_structure_matrix(doc).codes)


class TestSentenceOffsets:
    def test_cached_outside_the_fields(self, two_sentence_doc):
        doc = two_sentence_doc
        fields = [f.name for f in dataclasses.fields(Document)]
        assert fields == ["doc_id", "sentences", "entities", "facts"]
        twin = Document(doc.doc_id, doc.sentences, doc.entities, doc.facts)
        before = hash(doc)
        assert doc.sentence_offsets == (0, 4)
        assert doc.sentence_offsets is doc.sentence_offsets
        assert hash(doc) == before == hash(twin)
        assert doc == twin
        assert dataclasses.astuple(doc) == dataclasses.astuple(twin)

    def test_replace_computes_its_own(self, two_sentence_doc):
        doc = two_sentence_doc
        assert doc.sentence_offsets == (0, 4)
        longer = dataclasses.replace(
            doc, sentences=(("A", "b", "c", "d", "e"), doc.sentences[1]))
        assert longer.sentence_offsets == (0, 5)
        assert longer.global_span(doc.entities[0].mentions[1]) == (5, 6)
        assert doc.global_span(doc.entities[0].mentions[1]) == (4, 5)
        assert dataclasses.replace(doc) == doc

    def test_empty_document(self):
        assert Document("e", (), (), ()).sentence_offsets == ()
        assert Document("e", ((), ("a",)), (), ()).sentence_offsets == (0, 0)


class TestRowBound:
    def test_short_documents_close_packs_by_rows(self):
        max_len = 64
        spans = list(pack_spans([4] * 2000, max_len))
        per_pack = PACK_ROWS * max_len // 4
        assert per_pack * 16 <= PACK_BUDGET * max_len ** 2  # rows bind
        assert spans == [(lo, min(lo + per_pack, 2000))
                         for lo in range(0, 2000, per_pack)]

    def test_a_max_len_document_fits_either_bound(self):
        assert list(pack_spans([10, 10, 10], 10)) == [(0, 2), (2, 3)]
        assert list(pack_spans([0] * 5, 1)) == [(0, 5)]

    def test_inference_heap_on_short_documents(self):
        # Four-token documents of two entities: bounded by cells alone,
        # packs held 512 of them, and inference peaked at 6.0 MiB of heap
        # against 1.2 MiB with one document a pack; 128 a pack peak at
        # 2.4 MiB.
        words = ("a", "b", "c", "d")
        docs = [Document(f"d{i}", (words,),
                         (Entity("ENT", (mention(0, 0, 1),)),
                          Entity("ENT", (mention(0, 2, 3),))), ())
                for i in range(1000)]
        model = harness.build_model(small_config(max_len=64), docs[:1],
                                    schema=["r"])
        sizes = []
        forward = model.forward

        def counted(pack, recorder=None):
            sizes.append(len(pack.docs))
            return forward(pack, recorder)

        model.forward = counted
        tracemalloc.start()
        try:
            for _ in harness._forward_docs(model, docs):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(sizes) == PACK_ROWS * 64 // 4
        assert peak < 4 * 2 ** 20, peak
