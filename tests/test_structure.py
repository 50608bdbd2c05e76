from collections import Counter

import numpy as np
import pytest

from structrel.corpus import Document, Entity, Mention
from structrel.structure import (
    STRUCTURED_TYPES,
    DependencyType,
    StructureMatrix,
    apply_ablation,
    build_structure_matrix,
    write_grid,
)

from conftest import TWO_SENTENCE_GRID, random_document

D = DependencyType


def test_exactly_six_types_with_fixed_codes():
    assert len(DependencyType) == 6
    assert D.NA == 0
    assert D.INTRA_COREF == 5
    assert set(STRUCTURED_TYPES) == set(DependencyType) - {D.NA}


def classify_dependency(a, b) -> DependencyType:
    """Reference decision table for one token pair.  A token is
    ``(sentence, entity)``, with entity None outside every mention."""
    (sent_a, ent_a), (sent_b, ent_b) = a, b
    same_sentence = sent_a == sent_b
    if ent_a is not None and ent_b is not None:
        if ent_a == ent_b:
            return D.INTRA_COREF if same_sentence else D.INTER_COREF
        return D.INTRA_RELATE if same_sentence else D.INTER_RELATE
    if (ent_a is not None or ent_b is not None) and same_sentence:
        return D.INTRA_NE
    return D.NA


def token_annotations(doc) -> list[tuple[int, object]]:
    """``(sentence, entity)`` per token, read off the document's spans."""
    tokens = [(s, None) for s, sent in enumerate(doc.sentences) for _ in sent]
    for e, entity in enumerate(doc.entities):
        for mention in entity.mentions:
            lo, hi = doc.global_span(mention)
            for t in range(lo, hi):
                tokens[t] = (tokens[t][0], e)
    return tokens


def pair_code(sentences, entities, i, j) -> DependencyType:
    """The grid cell (i, j) of a one-off document."""
    doc = Document("pair", sentences, entities, ())
    return D(build_structure_matrix(doc).codes[i, j])


def ent(*mentions) -> Entity:
    return Entity("ENT", tuple(Mention(s, lo, hi, f"m{s}_{lo}")
                               for s, lo, hi in mentions))


class TestClassify:
    def test_same_mention_tokens_are_intra_coref(self):
        code = pair_code((("Notre", "Dame"),), (ent((0, 0, 2)),), 0, 1)
        assert code == D.INTRA_COREF

    def test_same_entity_across_sentences_is_inter_coref(self):
        code = pair_code((("Alice",), ("x", "She")),
                         (ent((0, 0, 1), (1, 1, 2)),), 0, 2)
        assert code == D.INTER_COREF

    def test_mention_vs_other_sentence_word_is_na(self):
        code = pair_code((("Alice",), ("word",)), (ent((0, 0, 1)),), 0, 1)
        assert code == D.NA

    def test_distinct_entities_same_sentence_is_intra_relate(self):
        code = pair_code((("Alice", "Paris"),),
                         (ent((0, 0, 1)), ent((0, 1, 2))), 0, 1)
        assert code == D.INTRA_RELATE

    def test_mention_vs_same_sentence_word_is_intra_ne(self):
        code = pair_code((("Alice", "word"),), (ent((0, 0, 1)),), 0, 1)
        assert code == D.INTRA_NE

    def test_two_non_entity_tokens_are_na_even_in_same_sentence(self):
        sentences = (("a", "b"), ("c",))
        assert pair_code(sentences, (), 0, 1) == D.NA
        assert pair_code(sentences, (), 0, 2) == D.NA


class TestBuildMatrix:
    def test_two_sentence_fixture_matches_hand_grid(self, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        assert matrix.codes.tolist() == TWO_SENTENCE_GRID

    def test_zero_mention_document_is_all_na(self):
        doc = Document("plain", (("just", "words"), ("more", "words")), (), ())
        matrix = build_structure_matrix(doc)
        assert (matrix.codes == D.NA).all()

    def test_single_mention_beside_plain_token(self):
        doc = Document(
            "tiny",
            (("Rome", "shines"),),
            (Entity("LOC", (Mention(0, 0, 1, "Rome"),)),),
            (),
        )
        matrix = build_structure_matrix(doc)
        assert matrix.codes.tolist() == [
            [D.INTRA_COREF, D.INTRA_NE],
            [D.INTRA_NE, D.NA],
        ]

    def test_matches_classify_loop_on_random_documents(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            doc = random_document(rng, f"rand{trial}")
            matrix = build_structure_matrix(doc)
            anns = token_annotations(doc)
            n = len(anns)
            assert matrix.n == n
            for i in range(n):
                for j in range(n):
                    assert matrix.codes[i, j] == classify_dependency(
                        anns[i], anns[j]
                    ), (trial, i, j)

    def test_symmetric_on_random_documents(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            matrix = build_structure_matrix(random_document(rng, f"s{trial}"))
            assert (matrix.codes == matrix.codes.T).all()

    def test_overlapping_mentions_rejected_by_name(self):
        doc = Document(
            "overlap",
            (("a", "b", "c"),),
            (
                Entity("ENT", (Mention(0, 0, 2, "first"),)),
                Entity("ENT", (Mention(0, 1, 3, "second"),)),
            ),
            (),
        )
        with pytest.raises(ValueError, match="second"):
            build_structure_matrix(doc)

    def test_out_of_range_span_rejected_by_name(self):
        doc = Document(
            "bad-span",
            (("a", "b"),),
            (Entity("ENT", (Mention(0, 1, 4, "runaway"),)),),
            (),
        )
        with pytest.raises(ValueError, match="runaway"):
            build_structure_matrix(doc)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            StructureMatrix("bad", np.zeros((2, 3), dtype=np.int8))


class TestAblation:
    def test_empty_exclusion_is_identity(self, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        out = apply_ablation(matrix, set())
        assert (out.codes == matrix.codes).all()

    def test_excluding_all_types_gives_all_na(self, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        out = apply_ablation(matrix, set(STRUCTURED_TYPES))
        assert (out.codes == D.NA).all()

    def test_excluding_intra_coref_clears_exactly_those_cells(
        self, two_sentence_doc
    ):
        matrix = build_structure_matrix(two_sentence_doc)
        out = apply_ablation(matrix, {D.INTRA_COREF})
        changed = int((out.codes != matrix.codes).sum())
        assert changed == np.count_nonzero(matrix.codes == D.INTRA_COREF)
        assert not np.any(out.codes == D.INTRA_COREF)

    def test_idempotent_and_monotone(self, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        once = apply_ablation(matrix, {D.INTER_COREF})
        twice = apply_ablation(once, {D.INTER_COREF})
        assert (once.codes == twice.codes).all()
        superset = apply_ablation(matrix, {D.INTER_COREF, D.INTRA_NE})
        reintroduced = (superset.codes != D.NA) & (once.codes == D.NA)
        assert not reintroduced.any()

    def test_symmetry_preserved(self, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        out = apply_ablation(matrix, {D.INTRA_RELATE, D.INTER_RELATE})
        assert (out.codes == out.codes.T).all()

    def test_na_exclusion_rejected(self, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        with pytest.raises(ValueError):
            apply_ablation(matrix, {D.NA})


class TestHistogram:
    def test_off_diagonal_counts_are_even(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            matrix = build_structure_matrix(random_document(rng, f"h{trial}"))
            off = matrix.codes[~np.eye(matrix.n, dtype=bool)]
            counts = Counter(off.tolist())
            assert all(v % 2 == 0 for v in counts.values())


class TestGridIO:
    def test_bytes_are_row_major_codes(self, tmp_path, two_sentence_doc):
        matrix = build_structure_matrix(two_sentence_doc)
        path = tmp_path / "doc.grid"
        write_grid(matrix, path)
        blob = path.read_bytes()
        header, _, body = blob.partition(b"\n")
        assert header == b"two-sentence\t8"
        assert list(body) == [c for row in TWO_SENTENCE_GRID for c in row]
