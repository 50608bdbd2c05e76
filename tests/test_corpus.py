import json
import re

import numpy as np
import pytest

from structrel.batching import (
    TruncationWarning,
    encode_document,
    make_batches,
    truncate_document,
)
from structrel.corpus import (
    CorpusError,
    Document,
    Entity,
    Mention,
    RelationFact,
    build_vocab,
    corpus_stats,
    document_to_json,
    entity_type_labels,
    parse_corpus,
    write_corpus,
)
from structrel.synth import (
    SENTENCE_END,
    SynthSpec,
    default_relation_rule,
    generate_synthetic,
)

from conftest import random_document

MINIMAL_DOC = {
    "title": "mini",
    "sents": [["Ada", "wrote", "programs"], ["Ada", "loved", "math"]],
    "vertexSet": [
        [
            {"name": "Ada", "sent_id": 0, "pos": [0, 1], "type": "PER"},
            {"name": "Ada", "sent_id": 1, "pos": [0, 1], "type": "PER"},
        ]
    ],
    "labels": [],
}


class TestParse:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([MINIMAL_DOC]))
        docs = parse_corpus(path)
        assert len(docs) == 1
        doc = docs[0]
        assert len(doc.entities) == 1
        assert len(doc.entities[0].mentions) == 2
        assert doc.token_count() == 6
        # global offsets: second sentence starts at 3
        assert doc.global_span(doc.entities[0].mentions[1]) == (3, 4)
        assert doc.facts == ()

    def test_json_lines_layout(self, tmp_path):
        path = tmp_path / "c.jsonl"
        second = dict(MINIMAL_DOC, title="mini2")
        path.write_text(json.dumps(MINIMAL_DOC) + "\n" + json.dumps(second))
        assert len(parse_corpus(path)) == 2

    def test_duplicate_doc_id_names_file_and_both_indices(self, tmp_path):
        path = tmp_path / "dup.json"
        other = dict(MINIMAL_DOC, title="other")
        path.write_text(json.dumps([MINIMAL_DOC, other, MINIMAL_DOC]))
        with pytest.raises(CorpusError,
                           match=r"dup\.json: documents 0 and 2 share the id 'mini'"):
            parse_corpus(path)

    @pytest.mark.parametrize("field, value, message", [
        ("sents", 5, "field 'sents' is not a list"),
        ("sents", ["Ada wrote"], "sentence 0 is not a list"),
        ("vertexSet", {"a": 1}, "field 'vertexSet' is not a list"),
        ("vertexSet", [5], "entity 0 is not a list"),
        ("vertexSet", [[1]], "entity 0 has a mention 1 that is not an object"),
        ("labels", "none", "field 'labels' is not a list"),
        ("title", 5, "field 'title' is not a string"),
        ("vertexSet", [[{"name": "Ada", "sent_id": 0, "pos": [0, 1],
                         "type": 5}],
                       [{"name": "math", "sent_id": 1, "pos": [2, 3],
                         "type": "Y"}]],
         "entity 0 has a type 5 that is not a string"),
    ])
    def test_wrong_json_type_names_file_and_doc(self, tmp_path, field, value,
                                                message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps([dict(MINIMAL_DOC, **{field: value})]))
        doc = value if field == "title" else "'mini'"
        with pytest.raises(CorpusError,
                           match=rf"typed\.json: doc {doc}: {message}"):
            parse_corpus(path)

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    @pytest.mark.parametrize("field", ["title", "token", "type", "relation"])
    def test_line_break_in_a_name_names_file_doc_and_field(self, tmp_path,
                                                           field, brk):
        # Tokens, entity types, relation names and document ids are
        # written one per line (vocabulary, types, schema, grid header).
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["vertexSet"].append(
            [{"name": "math", "sent_id": 1, "pos": [2, 3], "type": "FIELD"}])
        doc["labels"] = [{"h": 0, "t": 1, "r": "likes"}]
        bad = f"a{brk}b"
        if field == "title":
            doc["title"] = bad
            where = f"doc {bad!r}: title"
        elif field == "token":
            doc["sents"][1][1] = bad
            where = "doc 'mini': token 4"
        elif field == "type":
            doc["vertexSet"][1][0]["type"] = bad
            where = "doc 'mini': type of entity 1"
        else:
            doc["labels"][0]["r"] = bad
            where = "doc 'mini': relation of label 0"
        path = tmp_path / "lines.json"
        path.write_text(json.dumps([doc]))
        message = f"lines.json: {where} {bad!r} contains a line break"
        with pytest.raises(CorpusError, match=re.escape(message)):
            parse_corpus(path)

    def test_empty_span_rejected_with_location(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_DOC))
        bad["vertexSet"][0][0]["pos"] = [3, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        with pytest.raises(CorpusError, match="Ada"):
            parse_corpus(path)

    def test_out_of_range_span_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_DOC))
        bad["vertexSet"][0][0]["pos"] = [0, 9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        with pytest.raises(CorpusError, match="mini"):
            parse_corpus(path)

    def test_negative_span_start_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_DOC))
        bad["vertexSet"][0][0]["pos"] = [-1, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        with pytest.raises(CorpusError, match=r"'mini'.*'Ada'.*\[-1, 1\)"):
            parse_corpus(path)

    def test_non_utf8_byte_names_file_and_offset(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'[{"title": "a\xffb"}]')
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}: byte 0xff at offset 13 is not UTF-8")):
            parse_corpus(path)

    def test_span_error_names_file(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_DOC))
        bad["vertexSet"][0][0]["sent_id"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}: doc 'mini': mention 'Ada' names sentence 7")):
            parse_corpus(path)

    def test_non_object_entry_names_file_and_index(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([MINIMAL_DOC, 3]))
        with pytest.raises(CorpusError, match=r"mixed\.json: document 1 "):
            parse_corpus(path)

    def test_overlapping_mentions_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_DOC))
        bad["vertexSet"].append(
            [{"name": "Ada2", "sent_id": 0, "pos": [0, 2], "type": "PER"}]
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        with pytest.raises(CorpusError, match="overlaps"):
            parse_corpus(path)

    def test_unknown_relation_rejected_under_schema(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_DOC))
        bad["vertexSet"].append(
            [{"name": "math", "sent_id": 1, "pos": [2, 3], "type": "SUBJ"}]
        )
        bad["labels"] = [{"h": 0, "t": 1, "r": "mystery"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        with pytest.raises(CorpusError, match="mystery"):
            parse_corpus(path, schema=["loves"])
        # without a schema the label is accepted
        assert parse_corpus(path)[0].facts[0].r == "mystery"

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{not json")
        with pytest.raises(CorpusError, match="malformed JSON"):
            parse_corpus(path)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(17)
        docs = [random_document(rng, f"doc{i}") for i in range(10)]
        path = tmp_path / "round.json"
        write_corpus(docs, path)
        reparsed = parse_corpus(path)
        assert [document_to_json(d) for d in reparsed] == [
            document_to_json(d) for d in docs
        ]

    def test_global_offsets_match_flat_scan(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            doc = random_document(rng, f"o{trial}")
            flat = doc.tokens()
            for e_idx, entity in enumerate(doc.entities):
                for m in entity.mentions:
                    lo, hi = doc.global_span(m)
                    assert flat[lo:hi] == list(
                        doc.sentences[m.sent_id][m.start:m.end]
                    )


class TestVocab:
    def test_reserved_slots_and_membership(self):
        docs = [Document("v", (("a", "a", "b"),), (), ())]
        vocab = build_vocab(docs, min_count=1)
        assert len(vocab) == 4  # pad, unk, a, b
        assert vocab.index("a") >= 2
        assert vocab.index("b") >= 2

    def test_min_count_cutoff(self):
        docs = [Document("v", (("a", "a", "b"),), (), ())]
        vocab = build_vocab(docs, min_count=2)
        assert vocab.index("a") >= 2
        assert vocab.index("b") == vocab.unk_index

    def test_deterministic_order(self):
        docs = [Document("v", (("z", "y", "x"),), (), ())]
        a = build_vocab(docs).word_to_index
        b = build_vocab(docs).word_to_index
        assert a == b
        assert list(a) == ["<pad>", "<unk>", "z", "y", "x"]


class TestStats:
    def test_single_document_arithmetic(self):
        doc = Document(
            "s",
            (("a", "b"), ("c", "d"), ("e",)),
            (
                Entity("ENT", (Mention(0, 0, 1, "a"), Mention(1, 0, 1, "c"))),
                Entity("ENT", (Mention(0, 1, 2, "b"), Mention(1, 1, 2, "d"))),
            ),
            (),
        )
        stats = corpus_stats([doc])
        assert stats.documents == 1
        assert stats.entities_per_doc == 2
        assert stats.mentions_per_doc == 4
        # two mention-bearing sentences, four mentions
        assert stats.mentions_per_sentence == 2
        assert stats.relation_types == 0

    def test_relation_types_are_distinct_names(self):
        doc = Document(
            "s",
            (("a", "b"),),
            (
                Entity("ENT", (Mention(0, 0, 1, "a"),)),
                Entity("ENT", (Mention(0, 1, 2, "b"),)),
            ),
            (
                RelationFact(0, 1, "r0"),
                RelationFact(1, 0, "r0"),
            ),
        )
        assert corpus_stats([doc, doc]).relation_types == 1


class TestBatching:
    def _encode_args(self, docs):
        vocab = build_vocab(docs)
        etypes = {t: i for i, t in enumerate(entity_type_labels(docs))}
        return vocab, etypes

    def _encode_all(self, docs):
        vocab, etypes = self._encode_args(docs)
        return [encode_document(d, vocab, etypes, 64, 64) for d in docs]

    def test_batch_sizes(self):
        rng = np.random.default_rng(31)
        docs = [random_document(rng, f"b{i}") for i in range(5)]
        batches = make_batches(self._encode_all(docs), batch_size=2, seed=0)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_same_seed_same_order(self):
        rng = np.random.default_rng(37)
        encodings = self._encode_all(
            [random_document(rng, f"b{i}") for i in range(9)]
        )
        first = make_batches(encodings, 3, seed=5)
        second = make_batches(encodings, 3, seed=5)
        ids_a = [e.doc.doc_id for b in first for e in b]
        ids_b = [e.doc.doc_id for b in second for e in b]
        assert ids_a == ids_b
        third = make_batches(encodings, 3, seed=6)
        ids_c = [e.doc.doc_id for b in third for e in b]
        assert ids_a != ids_c  # overwhelmingly likely for 9 docs

    def test_truncation_drops_mention_and_fact_with_warning(self):
        doc = Document(
            "long",
            (tuple(f"t{i}" for i in range(10)),),
            (
                Entity("ENT", (Mention(0, 0, 1, "early"),)),
                Entity("ENT", (Mention(0, 8, 10, "late"),)),
            ),
            (RelationFact(0, 1, "r0"),),
        )
        with pytest.warns(TruncationWarning):
            cut, kept = truncate_document(doc, 8)
        assert cut.token_count() == 8
        assert len(cut.entities) == 1
        assert cut.facts == ()
        assert kept == (0,)

    def test_encoding_truncates_and_keeps_original_ordinals(self):
        doc = Document(
            "long",
            (tuple(f"t{i}" for i in range(10)),),
            (
                Entity("ENT", (Mention(0, 8, 9, "late"),)),
                Entity("ENT", (Mention(0, 0, 1, "early"),)),
                Entity("ENT", (Mention(0, 2, 3, "mid"), Mention(0, 9, 10, "x"))),
            ),
            (RelationFact(1, 2, "r0"), RelationFact(0, 1, "r0")),
        )
        vocab = build_vocab([doc])
        with pytest.warns(TruncationWarning):
            enc = encode_document(doc, vocab, {"ENT": 0}, 8, 8)
        assert enc.n == 8
        assert enc.entity_ordinals == (1, 2)
        assert enc.doc.facts == (RelationFact(0, 1, "r0"),)
        whole = encode_document(doc, vocab, {"ENT": 0}, 8, 10)
        assert whole.n == 10
        assert whole.entity_ordinals == (0, 1, 2)

    def test_truncation_noop_below_limit(self):
        doc = Document("short", (("a", "b"),), (), ())
        cut, kept = truncate_document(doc, 8)
        assert cut is doc
        assert kept == ()
        doc = Document("short", (("a", "b"),),
                       (Entity("ENT", (Mention(0, 1, 2, "b"),)),), ())
        assert truncate_document(doc, 2) == (doc, (0,))

    def test_encode_rejects_overflowing_coref_table(self):
        doc = Document(
            "many",
            (("a", "b"),),
            (
                Entity("ENT", (Mention(0, 0, 1, "a"),)),
                Entity("ENT", (Mention(0, 1, 2, "b"),)),
            ),
            (),
        )
        vocab = build_vocab([doc])
        etypes = {"ENT": 0}
        with pytest.raises(ValueError, match="capacity"):
            encode_document(doc, vocab, etypes, coref_cap=1, max_len=8)


def brute_force_rule(doc):
    """Independent re-derivation of the structural fact rule."""
    sents = [
        {m.sent_id for m in e.mentions} for e in doc.entities
    ]
    starts = [
        min(doc.global_span(m)[0] for m in e.mentions) for e in doc.entities
    ]
    facts = set()
    N = len(doc.entities)
    for i in range(N):
        for j in range(N):
            if i >= j:
                continue
            h, t = (i, j) if starts[i] <= starts[j] else (j, i)
            if sents[i] & sents[j]:
                facts.add((h, t, "r0"))
            else:
                for g in range(N):
                    if g not in (i, j) and sents[g] & sents[i] and sents[g] & sents[j]:
                        facts.add((h, t, "r1"))
                        break
    return facts


class TestSynthetic:
    def test_zero_bridge_fraction_means_zero_bridge_facts(self):
        docs = generate_synthetic(SynthSpec(n_docs=40, bridge_fraction=0.0,
                                            seed=3))
        assert all(f.r != "r1" for d in docs for f in d.facts)

    def test_fixed_seed_reproduces_identical_corpus(self, tmp_path):
        spec = SynthSpec(n_docs=25, seed=8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_corpus(generate_synthetic(spec), a)
        write_corpus(generate_synthetic(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_gold_facts_match_brute_force_rule(self):
        docs = generate_synthetic(SynthSpec(n_docs=60, seed=12,
                                            entities_per_doc=5))
        for doc in docs:
            gold = {(f.h, f.t, f.r) for f in doc.facts}
            assert gold == brute_force_rule(doc), doc.doc_id

    def test_bridge_variant_produces_bridge_facts(self):
        docs = generate_synthetic(SynthSpec(n_docs=60, bridge_fraction=1.0,
                                            seed=4))
        assert all(any(f.r == "r1" for f in d.facts) for d in docs)

    def test_documents_are_valid_and_parse_back(self, tmp_path):
        docs = generate_synthetic(SynthSpec(n_docs=30, seed=5))
        path = tmp_path / "synth.json"
        write_corpus(docs, path)
        reparsed = parse_corpus(path)
        assert len(reparsed) == 30
        assert all(s[-1] == SENTENCE_END for d in reparsed for s in d.sentences)

    def test_structural_oracle_reaches_perfect_f1(self):
        from structrel.metrics import evaluate_facts

        docs = generate_synthetic(SynthSpec(n_docs=50, seed=21))
        predicted = {
            (d.doc_id, f.h, f.t, f.r)
            for d in docs
            for f in default_relation_rule(d)
        }
        gold = {(d.doc_id, f.h, f.t, f.r) for d in docs for f in d.facts}
        report = evaluate_facts(predicted, gold)
        assert report.f1 == 1.0

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(entities_per_doc=3)
        with pytest.raises(ValueError):
            SynthSpec(sentence_len=(2, 2), entities_per_doc=40)
        with pytest.raises(ValueError):
            SynthSpec(vocab_size=1)
