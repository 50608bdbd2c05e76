import dataclasses
import math
import re
import warnings
import zlib

import numpy as np
import pytest

from structrel.autodiff import (
    Tensor,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)
from structrel import harness
from structrel.batching import (
    Pack,
    TruncationWarning,
    pack_documents,
    pair_layouts,
    pair_row,
)
from structrel.config import ModelConfig, load_config, save_config
from structrel.corpus import Document, Entity, Mention, RelationFact
from structrel.encoder import BiasRecorder, export_bias_heatmap
from structrel.harness import (
    DivergenceError,
    _backward_batch,
    _encode,
    _forward_docs,
    _gold_facts,
    build_model,
    collect_bias_heatmap,
    dependency_rows,
    evaluate,
    layer_rows,
    load_run,
    render_ablation_table,
    run_ablation,
    save_run,
    term_rows,
    train,
    tune_threshold,
)
from structrel.metrics import evaluate_facts, f1_score
from structrel.model import PredictedFact, RelationExtractor
from structrel.structure import STRUCTURED_TYPES, DependencyType
from structrel.synth import SynthSpec, generate_synthetic

from conftest import float64, raw_scores
from reference_ops import add, bce_with_logits, constant, mul, sum_all

A = ("docA", 0, 1, "r0")
B = ("docA", 1, 2, "r0")
C = ("docB", 0, 1, "r1")


def small_config(**kwargs) -> ModelConfig:
    defaults = dict(layers=1, heads=2, d_model=16, d_dist=4, max_len=32,
                    coref_cap=16, epochs=2, batch_size=4, lr=1e-3, seed=0,
                    mode="biaffine")
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def toggles(cfg: ModelConfig) -> tuple[bool, bool, bool, bool]:
    return cfg.bias_core, cfg.bias_query, cfg.bias_key, cfg.bias_prior


@pytest.fixture(scope="module")
def tiny_corpus():
    docs = generate_synthetic(SynthSpec(n_docs=12, seed=1))
    return docs[:9], docs[9:]


class TestEvaluateFacts:
    def test_half_recall_case(self):
        report = evaluate_facts({A}, {A, B})
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2.0 / 3.0)
        assert report.ign_f1 == report.f1

    def test_hand_derived_ignore_case(self):
        report = evaluate_facts({A, C}, {A, B}, is_in_train=lambda f: f == A)
        assert report.correct == 1
        assert report.correct_in_train == 1
        assert report.ign_precision == 0.0
        assert report.ign_recall == 0.5
        assert report.ign_f1 == 0.0

    def test_perfect_predictions(self):
        report = evaluate_facts({A, B}, {A, B})
        assert report.f1 == 1.0
        assert report.ign_f1 == 1.0

    def test_empty_gold_flagged(self):
        report = evaluate_facts({A}, set())
        assert report.empty_gold
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_f1_identity_holds_exactly(self):
        rng = np.random.default_rng(0)
        universe = [(f"d{i}", 0, 1, f"r{j}") for i in range(6) for j in range(3)]
        for _ in range(50):
            predicted = {f for f in universe if rng.random() < 0.5}
            gold = {f for f in universe if rng.random() < 0.5}
            report = evaluate_facts(predicted, gold)
            if report.empty_gold:
                continue
            assert report.f1 == f1_score(report.precision, report.recall)
            p, r = report.precision, report.recall
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert report.f1 == expected

    def test_per_relation_breakdown(self):
        report = evaluate_facts({A, C}, {A, B, C})
        assert report.per_relation["r0"].gold == 2
        assert report.per_relation["r0"].correct == 1
        assert report.per_relation["r1"].f1 == 1.0

    @staticmethod
    def rescanned_per_relation(predicted, gold):
        """The per-relation scores as first written: every relation
        rescans both sets."""
        relations = sorted({f[3] for f in predicted} | {f[3] for f in gold})
        out = {}
        for r in relations:
            p_r = {fact for fact in predicted if fact[3] == r}
            g_r = {fact for fact in gold if fact[3] == r}
            c_r = len(p_r & g_r)
            pr = c_r / len(p_r) if p_r else 0.0
            rc = c_r / len(g_r) if g_r else 0.0
            out[r] = (len(g_r), len(p_r), c_r, pr, rc, f1_score(pr, rc))
        return out

    @pytest.mark.parametrize("seed", range(5))
    def test_per_relation_matches_a_rescan(self, seed):
        rng = np.random.default_rng(seed)
        n_rel = int(rng.integers(1, 12))
        universe = [(f"d{d}", h, t, f"r{j}") for d in range(4)
                    for h in range(3) for t in range(3) if h != t
                    for j in range(n_rel)]
        predicted = {f for f in universe if rng.random() < 0.3}
        gold = {f for f in universe if rng.random() < 0.1}
        report = evaluate_facts(predicted, gold)
        got = {r: (s.gold, s.predicted, s.correct, s.precision, s.recall,
                   s.f1) for r, s in report.per_relation.items()}
        assert list(got) == sorted(got)
        assert got == self.rescanned_per_relation(predicted, gold)


class TestTrain:
    def test_zero_learning_rate_changes_nothing(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        cfg = small_config(lr=0.0, epochs=2)
        result = train(cfg, train_docs, dev_docs)
        fresh = RelationExtractor(
            cfg, result.model.vocab, result.model.etype_labels,
            result.model.schema,
        )
        for p in fresh.store:
            assert np.array_equal(
                p.values, result.model.store[p.name].values
            ), p.name
        devs = [e.dev_f1 for e in result.log if e.dev_f1 is not None]
        assert len(set(devs)) == 1

    def test_same_seed_bitwise_identical_checkpoints(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        cfg = small_config(epochs=2)
        a = train(cfg, train_docs, dev_docs)
        b = train(cfg, train_docs, dev_docs)
        assert set(a.best_arrays) == set(b.best_arrays)
        for name in a.best_arrays:
            assert a.best_arrays[name].tobytes() == b.best_arrays[name].tobytes(), name

    def test_loss_decreases_over_epochs(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        result = train(small_config(epochs=6, lr=3e-3), train_docs, dev_docs)
        losses = [e.train_loss for e in result.log]
        assert losses[-1] < losses[0]

    def test_restored_parameters_keep_training(self, tiny_corpus,
                                               monkeypatch):
        # restore_best loads into the arrays the optimizer updates, so a
        # step after it moves the model's parameters
        train_docs, dev_docs = tiny_corpus
        made = []
        make_optimizer = RelationExtractor.make_optimizer

        def kept(self):
            made.append(make_optimizer(self))
            return made[-1]

        monkeypatch.setattr(RelationExtractor, "make_optimizer", kept)
        result = train(small_config(epochs=3), train_docs, dev_docs)
        model, (optimizer,) = result.model, made
        result.restore_best()
        for p in model.store:
            assert np.array_equal(p.values, result.best_arrays[p.name])
            assert np.shares_memory(p.values, optimizer.values), p.name
        optimizer.zero_grad()
        _backward_batch(model, _encode(model, train_docs),
                        step=0, epoch=0)
        optimizer.step()
        moved = [p.name for p in model.store
                 if not np.array_equal(p.values, result.best_arrays[p.name])]
        assert "head.rel.W" in moved and "embed.word" in moved

    def test_divergence_guard_names_the_step(self, tiny_corpus, monkeypatch):
        train_docs, dev_docs = tiny_corpus
        monkeypatch.setattr(
            RelationExtractor, "compute_loss",
            lambda self, result: Tensor(float("nan")),
        )
        with pytest.raises(DivergenceError, match="step 0"):
            train(small_config(), train_docs, dev_docs)


def per_document_backward(model, batch) -> float:
    """The step's gradient as training took it before packing: each
    document's forward, loss and backward of ``loss / B`` on its own, in
    batch order; returns the losses' sum times ``1 / B``."""
    share = 1.0 / len(batch)
    weight = constant(share, model.store.dtype)
    total = 0.0
    for enc in batch:
        loss = model.compute_loss(model.forward(Pack((enc,))))
        mul(loss, weight).backward()
        total += float(loss.values)
    return total * share


def solo_doc() -> Document:
    """A document with one entity, so no pair."""
    return Document("solo", (("a", "b"),),
                    (Entity("ENT", (Mention(0, 0, 1, "a"),)),), ())


def mixed_encodings(model, docs) -> list:
    """``docs`` with a one-entity document and the over-length document
    put after the first, all encoded; the second two share the first
    pack with it under ``small_config``'s max_len."""
    with pytest.warns(TruncationWarning):
        encs = _encode(model, [docs[0], solo_doc(), over_length_doc(),
                               *docs[1:]])
    assert encs[1].n_entities == 1 and encs[2].n == model.cfg.max_len
    packs = list(pack_documents(encs, model.cfg.max_len))
    assert len(packs) > 1 and packs[0].docs[:3] == tuple(encs[:3])
    return encs


class TestPackedBackward:
    @float64
    @pytest.mark.parametrize("mode", ["none", "biaffine", "decomp"])
    def test_equals_the_per_document_backward(self, tiny_corpus, mode):
        model = build_model(small_config(mode=mode), tiny_corpus[0],
                            schema=["r0", "r1"])
        encodings = mixed_encodings(model, tiny_corpus[0][:6])
        optimizer = model.make_optimizer()
        optimizer.zero_grad()
        expect_value = per_document_backward(model, encodings)
        expect = optimizer.grads.copy()
        optimizer.zero_grad()
        value = _backward_batch(model, encodings, step=0, epoch=0)
        assert abs(value - expect_value) <= 1e-12 * abs(expect_value)
        scale = np.abs(expect).max()
        assert scale > 0.0
        assert np.abs(optimizer.grads - expect).max() <= 1e-12 * scale

    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"],
                             indirect=True)
    def test_scaled_backward_is_bit_equal_to_the_scaling_node(
            self, tiny_corpus, compute_dtype, monkeypatch):
        # one document per pack, so only the scaling differs: a backward
        # seeded with 1 / B against the product with a constant 1 / B, for
        # B = 7, which neither dtype holds exactly
        model = build_model(small_config(), tiny_corpus[0],
                            schema=["r0", "r1"])
        encodings = mixed_encodings(model, tiny_corpus[0][:5])
        assert len(encodings) == 7
        optimizer = model.make_optimizer()
        optimizer.zero_grad()
        expect_value = per_document_backward(model, encodings)
        expect = optimizer.grads.copy()
        assert expect.dtype == compute_dtype and expect.any()
        monkeypatch.setattr(harness, "pack_documents", lambda encs, max_len:
                            (Pack((enc,)) for enc in encs))
        optimizer.zero_grad()
        value = _backward_batch(model, encodings, step=0, epoch=0)
        assert value == expect_value
        assert optimizer.grads.tobytes() == expect.tobytes()

    def test_divergence_stops_before_the_next_pack(self, tiny_corpus,
                                                   monkeypatch):
        docs = tiny_corpus[0] + tiny_corpus[1]
        model = build_model(small_config(), docs)
        encodings = _encode(model, docs)
        assert len(list(pack_documents(encodings, model.cfg.max_len))) > 2
        seen = []

        def loss_of(self, result):
            seen.append(result.pack)
            return Tensor(float("inf") if len(seen) == 2 else 1.0)

        monkeypatch.setattr(RelationExtractor, "compute_loss", loss_of)
        model.make_optimizer().zero_grad()
        with pytest.raises(DivergenceError,
                           match=r"non-finite loss at step 7 \(epoch 3\)"):
            _backward_batch(model, encodings, step=7, epoch=3)
        assert len(seen) == 2


class TestPackedInference:
    """Inference in packs gives the logits, predictions and bias records
    of one-document packs, to rounding."""

    @staticmethod
    def run(model, docs, monkeypatch):
        sizes = []
        forward = RelationExtractor.forward

        def counted(self, pack, recorder=None):
            sizes.append(len(pack.docs))
            return forward(self, pack, recorder)

        monkeypatch.setattr(RelationExtractor, "forward", counted)
        recorder = BiasRecorder(model.cfg.layers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            results = list(_forward_docs(model, docs, recorder))
        monkeypatch.setattr(RelationExtractor, "forward", forward)
        return sizes, results, recorder

    @float64
    @pytest.mark.parametrize("mode", ["biaffine", "decomp"])
    def test_equals_one_document_packs(self, tiny_corpus, mode,
                                       monkeypatch):
        model = train(small_config(mode=mode), tiny_corpus[0],
                      schema=["r0", "r1"]).model
        docs = [tiny_corpus[1][0], solo_doc(), over_length_doc(),
                *tiny_corpus[1][1:], *tiny_corpus[0]]
        sizes, packed, packed_recorder = self.run(model, docs, monkeypatch)
        assert sizes[0] >= 3 and len(sizes) < len(docs)
        monkeypatch.setattr(harness, "pack_spans",
                            lambda lengths, max_len:
                            ((i, i + 1) for i in range(len(lengths))))
        sizes, alone, alone_recorder = self.run(model, docs, monkeypatch)
        assert sizes == [1] * len(docs)

        assert [(r.doc_id, r.pairs, r.ordinals) for r in packed] == [
            (r.doc_id, r.pairs, r.ordinals) for r in alone]
        assert [r.logits is None for r in packed] == [
            r.logits is None for r in alone]
        got = np.concatenate([r.logits for r in packed if r.pairs])
        expect = np.concatenate([r.logits for r in alone if r.pairs])
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        # a threshold half way between two probabilities far apart
        probs = np.unique(sigmoid(expect))
        gap = np.argmax(np.diff(probs[probs.size // 4:-probs.size // 4]))
        theta = float(probs[probs.size // 4 + gap:][:2].mean())
        predicted = [[(f.doc_id, f.h, f.t, f.r) for f in model.predict(r, theta)]
                     for r in packed]
        assert predicted == [
            [(f.doc_id, f.h, f.t, f.r) for f in model.predict(r, theta)]
            for r in alone]
        assert any(predicted) and not all(predicted)
        assert np.array_equal(packed_recorder.counts, alone_recorder.counts)
        assert packed_recorder.counts.any()
        np.testing.assert_allclose(packed_recorder.sums, alone_recorder.sums,
                                   rtol=1e-12, atol=0.0)


class TestDocumentWithoutTokens:
    """A document without tokens (``"sents": [[]]`` parses) adds no row
    to its pack: it trains, evaluates and records nothing, where a
    softmax over no keys used to fail with numpy's zero-size
    reduction error."""

    EMPTY = (Document("empty", ((),), (), ()), Document("none", (), (), ()))

    def test_training_and_inference_pass_it_by(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        trained = train(small_config(epochs=2), [*self.EMPTY, *train_docs])
        assert all(math.isfinite(e.train_loss) for e in trained.log)
        model = trained.model
        docs = [dev_docs[0], *self.EMPTY, *dev_docs[1:]]
        report, predictions = evaluate(model, docs, threshold=0.3)
        expect_report, expect = evaluate(model, dev_docs, threshold=0.3)
        assert report == expect_report and predictions == expect
        results = list(_forward_docs(model, self.EMPTY))
        assert [(r.doc_id, r.pairs, r.logits) for r in results] == [
            ("empty", [], None), ("none", [], None)]
        assert tune_threshold(model, list(self.EMPTY)) == model.cfg.threshold


class TestEvaluateModel:
    def test_ign_equals_plain_without_train_overlap(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        result = train(small_config(epochs=1), train_docs, dev_docs)
        report, _ = evaluate(result.model, dev_docs, train_docs=())
        assert report.ign_f1 == report.f1
        assert report.ign_precision == report.precision

    def test_predictions_and_gold_share_fact_space(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        result = train(small_config(epochs=1), train_docs, dev_docs)
        report, predictions = evaluate(result.model, dev_docs)
        for p in predictions:
            assert 0.0 <= p.probability <= 1.0
        assert report.gold == sum(len(d.facts) for d in dev_docs)


    def test_repeated_doc_id_rejected(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        model = build_model(small_config(), train_docs, schema=["r0", "r1"])
        twice = [dev_docs[0], dev_docs[1], dev_docs[0]]
        with pytest.raises(ValueError, match=r"'synth0009' occurs more than once"):
            evaluate(model, twice)
        with pytest.raises(ValueError, match=r"'synth0009' occurs more than once"):
            tune_threshold(model, twice)


class TestTuneThreshold:
    def test_maximizes_over_fixed_grid(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        result = train(small_config(epochs=1), train_docs, dev_docs)
        theta = tune_threshold(result.model, dev_docs)
        tuned, _ = evaluate(result.model, dev_docs, threshold=theta)
        fixed, _ = evaluate(result.model, dev_docs, threshold=0.5)
        assert 0.0 < theta < 1.0
        assert tuned.f1 >= fixed.f1

    def test_perfectly_separated_scores(self, tiny_corpus, monkeypatch):
        train_docs, dev_docs = tiny_corpus
        result = train(small_config(epochs=1), train_docs, dev_docs)
        model = result.model

        # Overwrite forward results: gold cells get 0.9, the rest 0.1.
        def separated(model, enc, result):
            gold = {(f.h, f.t, f.r) for f in enc.doc.facts}
            values = np.full(result.logits.shape, 0.1)
            for i, (s, o) in enumerate(result.pairs):
                for j, r in enumerate(model.schema):
                    if (s, o, r) in gold:
                        values[i, j] = 0.9
            return values

        monkeypatch.setattr(RelationExtractor, "forward",
                            rigged_forward(separated))
        theta = tune_threshold(model, dev_docs)
        assert theta == pytest.approx(0.9)
        report, _ = evaluate(model, dev_docs, threshold=theta)
        assert report.f1 == 1.0


def logits_of(probabilities):
    """The logits whose sigmoid gives ``probabilities`` (to rounding),
    -inf at 0 and inf at 1."""
    p = np.asarray(probabilities, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def rigged_forward(probabilities):
    """A forward whose logits are ``logits_of`` the probabilities that
    ``probabilities(model, enc, result)`` gives, (P, M), for each
    document of the pack that has pairs; ``result`` is the document's
    :class:`DocumentResult`, its pairs numbered within the encoding."""
    original_forward = RelationExtractor.forward

    def rigged(self, pack, recorder=None):
        out = original_forward(self, pack, recorder)
        if out.logits is not None:
            parts = [probabilities(self, enc, result)
                     for enc, result in zip(pack.docs, out.documents())
                     if result.logits is not None]
            out.logits.values = logits_of(np.concatenate(parts))
        return out

    return rigged


def reference_tune_threshold(model, dev_docs):
    """The per-cell sweep that the vectorised one replaced."""
    gold = _gold_facts(dev_docs)
    probs, flags = [], []
    for result in _forward_docs(model, dev_docs):
        if result.logits is None:
            continue
        for (s, o), row in zip(result.pairs, sigmoid(result.logits)):
            for r, p in zip(model.schema, row):
                probs.append(float(p))
                flags.append((result.doc_id, s, o, r) in gold)
    if not any(flags):
        return model.cfg.threshold
    order = np.argsort(probs)[::-1]
    sorted_probs = np.asarray(probs)[order]
    cum_correct = np.cumsum(np.asarray(flags)[order])
    best_theta, best_f1 = model.cfg.threshold, -1.0
    for i in range(len(sorted_probs)):
        if i + 1 < len(sorted_probs) and sorted_probs[i + 1] == sorted_probs[i]:
            continue
        theta = float(sorted_probs[i])
        if not 0.0 < theta < 1.0:
            continue
        f1 = f1_score(cum_correct[i] / (i + 1), cum_correct[i] / len(gold))
        if f1 > best_f1 or (f1 == best_f1 and theta > best_theta):
            best_f1, best_theta = f1, theta
    return best_theta


def reference_predict(model, result, threshold):
    """The per-cell loop that the vectorised ``predict`` replaced."""
    out = []
    values = sigmoid(result.logits)
    for i, (s, o) in enumerate(result.pairs):
        for j, r in enumerate(model.schema):
            if values[i, j] >= threshold:
                out.append(PredictedFact(result.doc_id, s, o, r,
                                         float(values[i, j])))
    return out


def quantised_forward(levels):
    """A forward whose probabilities are drawn per document from
    ``levels`` values in [0, 1], both ends included, so cells tie; the
    logits are infinite at the ends."""
    def quantised(model, enc, result):
        rng = np.random.default_rng(zlib.crc32(enc.doc.doc_id.encode()))
        return rng.integers(0, levels, size=result.logits.shape) / (levels - 1)

    return rigged_forward(quantised)


class TestVectorisedSweep:
    @pytest.fixture(scope="class")
    def model(self, tiny_corpus):
        return build_model(small_config(), tiny_corpus[0],
                           schema=["r0", "r1", "r2"])

    @pytest.mark.parametrize("levels", [2, 3, 5, 11, 1000])
    def test_threshold_equals_the_cell_loop(self, model, tiny_corpus,
                                            monkeypatch, levels):
        monkeypatch.setattr(RelationExtractor, "forward",
                            quantised_forward(levels))
        docs = tiny_corpus[0] + tiny_corpus[1]
        theta = tune_threshold(model, docs)
        assert theta.hex() == reference_tune_threshold(model, docs).hex()

    def test_threshold_counts_truncated_away_gold(self, model, monkeypatch):
        monkeypatch.setattr(RelationExtractor, "forward", quantised_forward(7))
        docs = [over_length_doc()]
        with pytest.warns(TruncationWarning):
            theta = tune_threshold(model, docs)
            expect = reference_tune_threshold(model, docs)
        assert theta.hex() == expect.hex()

    def test_f1_tie_keeps_the_larger_threshold(self, model, monkeypatch):
        # Three gold cells.  Predicting down to 0.95 gives 1 of 1 correct,
        # down to 0.75 gives 2 of 5: both F1 0.5, the best there is.
        doc = Document(
            "tie", (("a", "b", "c", "d"),),
            tuple(Entity("ENT", (Mention(0, i, i + 1, t),))
                  for i, t in enumerate("abc")),
            (RelationFact(0, 1, "r0"), RelationFact(1, 2, "r0"),
             RelationFact(0, 2, "r1")),
        )
        def ranked(model, enc, result):
            assert result.pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0),
                                    (2, 1)]
            values = np.full(result.logits.shape, 0.1)
            values[0, 0], values[3, 0], values[1, 1] = 0.95, 0.75, 0.05
            values[0, 1], values[1, 0], values[2, 0] = 0.9, 0.85, 0.8
            return values

        monkeypatch.setattr(RelationExtractor, "forward",
                            rigged_forward(ranked))
        best = float(sigmoid(logits_of(0.95)))
        assert best == pytest.approx(0.95, rel=1e-14)
        assert tune_threshold(model, [doc]) == best
        assert reference_tune_threshold(model, [doc]) == best

    def test_no_gold_keeps_the_configured_threshold(self, model, tiny_corpus):
        bare = [dataclasses.replace(doc, facts=()) for doc in tiny_corpus[1]]
        assert tune_threshold(model, bare) == model.cfg.threshold
        assert reference_tune_threshold(model, bare) == model.cfg.threshold

    @pytest.mark.parametrize("threshold", [1e-9, 0.25, 0.5, 1.0 - 1e-9])
    def test_predict_equals_the_cell_loop(self, model, tiny_corpus,
                                          monkeypatch, threshold):
        monkeypatch.setattr(RelationExtractor, "forward", quantised_forward(5))
        results = list(_forward_docs(model, tiny_corpus[1]))
        for result in results:
            assert (model.predict(result, threshold)
                    == reference_predict(model, result, threshold))
        assert sum(len(model.predict(r, 0.25)) for r in results) > 0


def dict_hits(model, result, facts) -> np.ndarray:
    """The gold cells of one forward, each fact's row looked up in a
    ``{pair: row}`` dict of ``result.pairs``, as the loss and the
    threshold sweep placed them before :func:`pair_row`."""
    hit = np.zeros(result.logits.shape, dtype=bool)
    row_of = {pair: i for i, pair in enumerate(result.pairs)}
    for fact in facts:
        row = row_of.get((fact.h, fact.t))
        col = model.rel_to_index.get(fact.r)
        if row is not None and col is not None:
            hit[row, col] = True
    return hit


def entities_reversed(doc: Document) -> Document:
    """``doc`` with its entities in reverse order, so that a cut drops the
    first ordinals rather than the last."""
    last = len(doc.entities) - 1
    return dataclasses.replace(
        doc, doc_id=doc.doc_id + "-reversed", entities=doc.entities[::-1],
        facts=tuple(RelationFact(last - f.h, last - f.t, f.r)
                    for f in doc.facts))


class TestGoldPlacement:
    """Gold facts go to the row ``pair_row`` gives, the row that a dict of
    the pairs held, on seeded documents that the cut truncates."""

    @pytest.fixture(scope="class")
    def setting(self):
        docs = generate_synthetic(SynthSpec(n_docs=8, seed=7))
        docs += [entities_reversed(doc) for doc in docs]
        model = build_model(small_config(max_len=10), docs)
        with pytest.warns(TruncationWarning):
            encs = _encode(model, docs)
        ordinals = [enc.entity_ordinals for enc in encs]
        assert any(o and o[0] > 0 for o in ordinals)
        assert any(len(enc.doc.facts) < len(doc.facts)
                   for enc, doc in zip(encs, docs))
        return model, docs, encs

    def test_rows_of_the_dict(self):
        for n in range(7):
            pairs = pair_layouts(np.arange(n), [n])[0].pairs
            row_of = {pair: i for i, pair in enumerate(pairs)}
            for h in range(-1, n + 1):
                for t in range(-1, n + 1):
                    assert pair_row(h, t, n) == row_of.get((h, t))

    def test_loss_targets(self, setting):
        model, _, encs = setting
        scored = 0
        for enc in encs:
            result = model.forward(Pack((enc,)))
            if result.logits is None:
                continue
            scored += 1
            targets = dict_hits(model, result.documents()[0], enc.doc.facts)
            expect = sum_all(bce_with_logits(
                result.logits, targets.astype(result.logits.values.dtype)))
            got = model.compute_loss(result)
            assert got.values.tobytes() == expect.values.tobytes()
        assert scored > 8

    @pytest.mark.parametrize("levels", [3, 1000])
    def test_threshold_sweep_hits(self, setting, monkeypatch, levels):
        # the dict's hits are the gold cells, and each document's sweep
        # finds the threshold of those cells
        model, docs, _ = setting
        monkeypatch.setattr(RelationExtractor, "forward",
                            quantised_forward(levels))
        gold = _gold_facts(docs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for doc, result in zip(docs, _forward_docs(model, docs)):
                if result.logits is None:
                    continue
                cells = [[(doc.doc_id, s, o, r) in gold for r in model.schema]
                         for s, o in result.pairs]
                assert np.array_equal(dict_hits(model, result, doc.facts),
                                      cells)
                assert (tune_threshold(model, [doc]).hex()
                        == reference_tune_threshold(model, [doc]).hex())


def over_length_doc() -> Document:
    """44 tokens against the max_len of 32: entity 0 lies wholly beyond
    the cut, entity 2 keeps one of its two mentions."""
    sentences = (tuple(f"a{i}" for i in range(22)),
                 tuple(f"b{i}" for i in range(22)))
    return Document(
        "long",
        sentences,
        (
            Entity("ENT", (Mention(1, 15, 16, "late"),)),
            Entity("ENT", (Mention(0, 0, 1, "first"),)),
            Entity("ENT", (Mention(0, 3, 4, "second"),
                           Mention(1, 16, 17, "second-again"))),
        ),
        (RelationFact(1, 2, "r0"), RelationFact(2, 1, "r0"),
         RelationFact(0, 1, "r1")),
    )


class TestOverLengthInference:
    @pytest.fixture
    def model(self, tiny_corpus):
        return build_model(small_config(), tiny_corpus[0], schema=["r0", "r1"])

    def test_evaluate_counts_the_cut_fact_as_a_miss(self, model):
        with pytest.warns(TruncationWarning):
            report, predictions = evaluate(model, [over_length_doc()],
                                           threshold=1e-9)
        assert {(p.h, p.t) for p in predictions} == {(1, 2), (2, 1)}
        assert (report.gold, report.correct) == (3, 2)

    def test_tune_threshold_recall_counts_the_cut_fact(self, model,
                                                       monkeypatch):
        # Ranked cells: gold 0.9, 0.8, 0.7, gold 0.6.  Over the 3 gold
        # facts the best threshold is 0.6 (F1 4/7 against 1/2 at 0.9);
        # counting only the 2 reachable ones would tie and pick 0.9.
        def ranked(model, enc, result):
            assert result.pairs == [(0, 1), (1, 0)]
            return np.array([[0.9, 0.8], [0.6, 0.7]])

        monkeypatch.setattr(RelationExtractor, "forward",
                            rigged_forward(ranked))
        with pytest.warns(TruncationWarning):
            theta = tune_threshold(model, [over_length_doc()])
        assert theta == pytest.approx(0.6)

    def test_bias_heatmap_runs(self, model):
        with pytest.warns(TruncationWarning):
            heatmap = collect_bias_heatmap(model, [over_length_doc()])
        assert len(heatmap.splitlines()) == 1 + model.cfg.layers * 6


class TestAblations:
    def test_all_exclusion_equals_mode_none(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        all_deps = "intra_ne,inter_relate,intra_relate,inter_coref,intra_coref"
        cfg_all = small_config(epochs=2, excluded_deps=all_deps)
        cfg_none = small_config(epochs=2, mode="none")
        res_all = train(cfg_all, train_docs, dev_docs)
        res_none = train(cfg_none, train_docs, dev_docs)
        rep_all, _ = evaluate(res_all.model, dev_docs, train_docs=train_docs)
        rep_none, _ = evaluate(res_none.model, dev_docs, train_docs=train_docs)
        assert rep_all.f1 == rep_none.f1
        assert rep_all.precision == rep_none.precision
        assert rep_all.recall == rep_none.recall
        losses_all = [e.train_loss for e in res_all.log]
        losses_none = [e.train_loss for e in res_none.log]
        assert losses_all == losses_none

    def test_excluding_absent_dependency_changes_nothing(self):
        # every token belongs to a mention, so intra_ne never occurs
        def doc(i):
            return Document(
                f"dense{i}",
                (("aa", "bb"), ("cc",)),
                (
                    Entity("ENT", (Mention(0, 0, 1, "aa"),)),
                    Entity("ENT", (Mention(0, 1, 2, "bb"),)),
                    Entity("ENT", (Mention(1, 0, 1, "cc"),)),
                ),
                (RelationFact(0, 1, "r0"),),
            )

        docs = [doc(i) for i in range(6)]
        cfg_full = small_config(epochs=2)
        cfg_excl = small_config(epochs=2, excluded_deps="intra_ne")
        rep_full, _ = evaluate(
            train(cfg_full, docs[:4], docs[4:]).model, docs[4:]
        )
        rep_excl, _ = evaluate(
            train(cfg_excl, docs[:4], docs[4:]).model, docs[4:]
        )
        assert rep_full.f1 == rep_excl.f1

    def test_dependency_table_has_seven_rows(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        rows = run_ablation(dependency_rows(small_config(epochs=1)),
                            train_docs[:4], dev_docs[:2])
        labels = [label for label, _ in rows]
        assert labels[0] == "full"
        assert labels[-1] == "-all"
        assert len(labels) == 7
        table = render_ablation_table(rows)
        assert table.count("\n") == 8  # header plus seven rows

    def test_layer_curve_endpoints(self, tiny_corpus):
        train_docs, dev_docs = tiny_corpus
        cfg = small_config(epochs=1, layers=2)
        curve = run_ablation(layer_rows(cfg, [0, 2]), train_docs[:4],
                             dev_docs[:2])
        baseline = train(cfg.replace(mode="none"), train_docs[:4],
                         dev_docs[:2])
        rep_base, _ = evaluate(baseline.model, dev_docs[:2],
                               train_docs=train_docs[:4])
        full = train(cfg.replace(structured_layers="all"), train_docs[:4],
                     dev_docs[:2])
        rep_full, _ = evaluate(full.model, dev_docs[:2],
                               train_docs=train_docs[:4])
        assert [(label, rep.f1) for label, rep in curve] == [
            ("top:0", rep_base.f1), ("top:2", rep_full.f1)]

    def test_invalid_layer_range_rejected(self):
        with pytest.raises(ValueError):
            layer_rows(small_config(), [5])

    def test_term_rows_take_the_mode_defaults(self):
        # Each row states only the toggles it turns off; the rest take the
        # mode's default, whatever the base config says.
        rows = term_rows(small_config(mode="decomp", bias_key=False))
        assert {label: toggles(cfg) for label, cfg in rows} == {
            "baseline": (False, False, False, False),
            "prior": (False, False, False, True),
            "key_conditioned": (False, False, True, False),
            "query_conditioned": (False, True, False, False),
            "decomp": (False, True, True, True),
            "biaffine_core": (True, False, False, False),
            "biaffine": (True, False, False, True),
        }

    def test_bad_k_rejected_before_any_training(self, tiny_corpus,
                                                monkeypatch):
        import structrel.harness as harness_module

        calls = []
        monkeypatch.setattr(harness_module, "train",
                            lambda *args, **kwargs: calls.append(args))
        train_docs, dev_docs = tiny_corpus
        with pytest.raises(ValueError, match="top:5 exceeds"):
            run_ablation(layer_rows(small_config(), [0, 5]), train_docs,
                         dev_docs)
        assert calls == []

    @pytest.mark.parametrize("build, n_built", [
        (dependency_rows, 6),  # the "full" row is the base config itself
        (term_rows, 7),
        (lambda cfg: layer_rows(cfg, [0, 1, 2]), 3),
    ], ids=["deps", "terms", "layers"])
    def test_every_row_is_validated_before_the_first_trains(
            self, monkeypatch, build, n_built):
        import structrel.harness as harness_module

        base = small_config(layers=2)
        events = []
        validate = ModelConfig.__post_init__

        def counted(cfg):
            events.append("validate")
            validate(cfg)

        class FirstTraining(Exception):
            pass

        def first_train(*args, **kwargs):
            events.append("train")
            raise FirstTraining

        monkeypatch.setattr(ModelConfig, "__post_init__", counted)
        monkeypatch.setattr(harness_module, "train", first_train)
        with pytest.raises(FirstTraining):
            run_ablation(build(base), [], [])
        assert events == ["validate"] * n_built + ["train"]


def test_unlisted_relation_refused_before_training(tiny_corpus, tmp_path,
                                                  monkeypatch):
    path = tmp_path / "schema.txt"
    path.write_text("r0\n")
    calls = []
    monkeypatch.setattr(RelationExtractor, "forward",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: training relations ['r1'] are not listed")):
        train(small_config(schema_path=str(path)), tiny_corpus[0])
    assert calls == []


def per_head_heatmap(records, n_layers):
    """The heatmap as it was pooled from one record per document, layer,
    head and type: that record's mean bias and cell count, weighted back
    to a sum per (layer, type) over heads and documents."""
    sums, counts = {}, {}
    for layer, dep, mean, count in records:
        sums[layer, dep] = sums.get((layer, dep), 0.0) + mean * count
        counts[layer, dep] = counts.get((layer, dep), 0) + count
    lines = ["layer\tdependency\tmean_bias\tcount"]
    for l in range(n_layers):
        for dep in DependencyType:
            mean, count = 0.0, 0
            if (l, dep) in sums:
                count = counts[l, dep]
                mean = sums[l, dep] / count
            lines.append(f"{l}\t{dep.name.lower()}\t{mean:.10g}\t{count}")
    return "\n".join(lines) + "\n"


class PerHeadRecorder(BiasRecorder):
    """Also keeps the per-head records the heatmap was once pooled from."""

    def __init__(self, layers):
        super().__init__(layers)
        self.records = []

    def add(self, layer, types, bias):
        super().add(layer, types, bias)
        counts = np.bincount(types, minlength=len(STRUCTURED_TYPES))
        for head_bias in bias:
            sums = np.bincount(types, weights=head_bias,
                               minlength=len(STRUCTURED_TYPES))
            for s, dep in enumerate(STRUCTURED_TYPES):
                if counts[s]:
                    self.records.append((layer, dep, float(sums[s] / counts[s]),
                                         int(counts[s])))


@float64
@pytest.mark.parametrize("mode", ["biaffine", "decomp"])
def test_heatmap_equals_per_head_pooling(mode):
    docs = generate_synthetic(SynthSpec(n_docs=8, seed=4))
    model = build_model(small_config(layers=3, heads=4, mode=mode), docs)
    rng = np.random.default_rng(9)
    for p in model.store:
        if ".bias." in p.name:
            p.values[...] = rng.normal(size=p.values.shape)
    recorder = PerHeadRecorder(3)
    for _ in _forward_docs(model, docs, recorder):
        pass
    expect = per_head_heatmap(recorder.records, 3)
    assert len(recorder.records) > 3 * 4 * len(docs)
    assert export_bias_heatmap(recorder) == expect
    assert collect_bias_heatmap(model, docs) == expect


class TestBiasTermLinearity:
    def test_full_decomp_equals_sum_of_single_terms(self, two_sentence_doc):
        from structrel.autodiff import ParameterStore
        from structrel.encoder import init_encoder_params, structured_scores
        from structrel.structure import build_structure_matrix

        S = build_structure_matrix(two_sentence_doc)
        rng = np.random.default_rng(10)
        q = rng.normal(size=(1, S.n, 4))
        k = rng.normal(size=(1, S.n, 4))

        def bias_matrix(**terms):
            cfg = ModelConfig(layers=1, heads=1, d_model=4, mode="decomp",
                              **terms)
            store = ParameterStore(np.float64)
            init_encoder_params(store, np.random.default_rng(0), cfg)
            prng = np.random.default_rng(123)
            # type s of the one head: column s of qvec and kvec, slot s of b
            for s in range(5):
                qv = prng.normal(size=(4, 1))
                kv = prng.normal(size=(4, 1))
                b = prng.normal()
                if cfg.bias_query:
                    store["layer0.bias.qvec"].values[0, :, s:s + 1] = qv
                if cfg.bias_key:
                    store["layer0.bias.kvec"].values[0, :, s:s + 1] = kv
                if cfg.bias_prior:
                    store["layer0.bias.b"].values[0, s] = b
            scores, _ = structured_scores(store, q, k, S, 0, cfg)
            return (scores[0] - raw_scores(q[0], k[0])) * math.sqrt(4)

        full = bias_matrix()
        q_only = bias_matrix(bias_key=False, bias_prior=False)
        k_only = bias_matrix(bias_query=False, bias_prior=False)
        p_only = bias_matrix(bias_query=False, bias_key=False)
        assert np.allclose(full, q_only + k_only + p_only, atol=1e-12)

    def test_prior_frozen_at_zero_equals_baseline(self, two_sentence_doc):
        from structrel.autodiff import ParameterStore
        from structrel.encoder import init_encoder_params, structured_scores
        from structrel.structure import build_structure_matrix

        S = build_structure_matrix(two_sentence_doc)
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, S.n, 4))
        k = rng.normal(size=(1, S.n, 4))
        cfg = ModelConfig(layers=1, heads=1, d_model=4, mode="decomp",
                          bias_query=False, bias_key=False)
        store = ParameterStore(np.float64)
        init_encoder_params(store, np.random.default_rng(0), cfg)
        scores, _ = structured_scores(store, q, k, S, 0, cfg)
        assert scores[0].tobytes() == raw_scores(q[0], k[0]).tobytes()


class TestRunDirectory:
    def test_save_and_load_round_trip(self, tiny_corpus, tmp_path):
        train_docs, dev_docs = tiny_corpus
        result = train(small_config(epochs=2), train_docs, dev_docs)
        result.restore_best()
        run_dir = tmp_path / "run"
        save_run(run_dir, result)
        for name in ("config.txt", "vocab.txt", "etypes.txt", "schema.txt",
                     "checkpoint.bin", "train_log.tsv"):
            assert (run_dir / name).exists()
        loaded = load_run(run_dir)
        rep_orig, preds_orig = evaluate(result.model, dev_docs)
        rep_load, preds_load = evaluate(loaded, dev_docs)
        assert rep_orig == rep_load
        assert preds_orig == preds_load

    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"],
                             indirect=True)
    def test_saved_parameters_load_bit_identical(self, tiny_corpus, tmp_path,
                                                 compute_dtype):
        result = train(small_config(epochs=2), tiny_corpus[0])
        save_run(tmp_path / "run", result)
        loaded = load_run(tmp_path / "run")
        assert loaded.cfg == result.model.cfg
        for p in result.model.store:
            got = loaded.store[p.name].values
            assert got.dtype == p.values.dtype == compute_dtype, p.name
            assert got.tobytes() == p.values.tobytes(), p.name

    def test_non_utf8_vocabulary_names_file_and_offset(self, tiny_corpus,
                                                       tmp_path):
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        vocab = run_dir / "vocab.txt"
        vocab.write_bytes(b"<pad>\n<unk>\n\xe9t\xe9\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{vocab}: byte 0xe9 at offset 12 is not UTF-8")):
            load_run(run_dir)

    def test_checkpoint_missing_a_parameter_names_file(self, tiny_corpus,
                                                       tmp_path):
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        config = run_dir / "config.txt"
        config.write_text(config.read_text().replace("layers = 1",
                                                     "layers = 2"))
        with pytest.raises(ValueError, match=re.escape(
                f"{run_dir / 'checkpoint.bin'}: checkpoint is missing "
                f"parameter 'layer1.wqkv'")):
            load_run(run_dir)

    @staticmethod
    def rewrite_checkpoint(tiny_corpus, tmp_path, edit):
        """A saved run whose checkpoint's arrays ``edit`` changed."""
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        checkpoint = run_dir / "checkpoint.bin"
        arrays = load_checkpoint(checkpoint)
        edit(arrays)
        save_checkpoint(checkpoint, arrays)
        return run_dir, checkpoint

    def test_checkpoint_nan_names_file_and_entry(self, tiny_corpus,
                                                 tmp_path):
        def edit(arrays):
            arrays["layer0.wo"][1, 2] = np.nan

        run_dir, checkpoint = self.rewrite_checkpoint(tiny_corpus, tmp_path,
                                                      edit)
        with pytest.raises(ValueError, match=re.escape(
                f"{checkpoint}: entry 'layer0.wo' holds a non-finite "
                f"value")):
            load_run(run_dir)

    def test_checkpoint_value_beyond_float32_names_file_and_entry(
            self, tiny_corpus, tmp_path):
        # finite in the file's float64, infinite once cast to float32
        def edit(arrays):
            arrays["head.dist"][0, 0] = 1e300

        run_dir, checkpoint = self.rewrite_checkpoint(tiny_corpus, tmp_path,
                                                      edit)
        with pytest.raises(ValueError, match=re.escape(
                f"{checkpoint}: parameter 'head.dist': a checkpoint value is "
                f"not finite as float32")):
            load_run(run_dir)

    def test_checkpoint_entry_of_no_parameter_names_file_and_entry(
            self, tiny_corpus, tmp_path):
        def edit(arrays):
            arrays["layer7.wo"] = arrays["layer0.wo"]

        run_dir, checkpoint = self.rewrite_checkpoint(tiny_corpus, tmp_path,
                                                      edit)
        with pytest.raises(ValueError, match=re.escape(
                f"{checkpoint}: checkpoint entry 'layer7.wo' is no parameter "
                f"of the model")):
            load_run(run_dir)

    def test_checkpoint_repeated_entry_names_file_and_entry(self, tiny_corpus,
                                                            tmp_path):
        # The later entry, with other values, would silently win.
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        checkpoint = run_dir / "checkpoint.bin"
        arrays = load_checkpoint(checkpoint)
        again = tmp_path / "again.bin"
        save_checkpoint(again, {"embed.pos": arrays["embed.pos"] + 1.0})
        blob = bytearray(checkpoint.read_bytes())
        blob[12:16] = (len(arrays) + 1).to_bytes(4, "little")
        checkpoint.write_bytes(bytes(blob) + again.read_bytes()[16:])
        with pytest.raises(ValueError, match=re.escape(
                f"{checkpoint}: entry 'embed.pos' appears twice")):
            load_run(run_dir)

    @staticmethod
    def rewrite_version(tiny_corpus, tmp_path, version):
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        checkpoint = run_dir / "checkpoint.bin"
        blob = bytearray(checkpoint.read_bytes())
        blob[8:12] = version.to_bytes(4, "little")
        checkpoint.write_bytes(bytes(blob))
        return run_dir, checkpoint

    def test_version_1_checkpoint_names_file_and_version(self, tiny_corpus,
                                                         tmp_path):
        # Version 1 stored the attention parameters one array per head and
        # type; such a run directory must be retrained.
        run_dir, checkpoint = self.rewrite_version(tiny_corpus, tmp_path, 1)
        with pytest.raises(ValueError, match=re.escape(
                f"{checkpoint}: unsupported checkpoint version 1, "
                f"expected 3")):
            load_run(run_dir)

    def test_version_2_checkpoint_names_file_and_version(self, tiny_corpus,
                                                         tmp_path):
        # Version 2 stored the relation head one array per relation.
        run_dir, checkpoint = self.rewrite_version(tiny_corpus, tmp_path, 2)
        with pytest.raises(ValueError, match=re.escape(
                f"{checkpoint}: unsupported checkpoint version 2, "
                f"expected 3")):
            load_run(run_dir)

    def test_checkpoint_holds_the_parameters_only(self, tiny_corpus,
                                                  tmp_path):
        result = train(small_config(epochs=1), tiny_corpus[0])
        assert result.best_arrays.keys() == set(result.model.store.names())
        save_run(tmp_path / "run", result)
        saved = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert list(saved) == result.model.store.names()

    @pytest.mark.parametrize("name", ["vocab.txt", "etypes.txt"])
    def test_repeated_line_names_file_and_both_lines(self, tiny_corpus,
                                                     tmp_path, name):
        # Read into a dict, a repeated word or type would collapse, and
        # the checkpoint would misfit or the indices silently shift.
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        path = run_dir / name
        lines = path.read_text().splitlines()
        lines.append(lines[0])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {len(lines)} repeats line 1, {lines[0]!r}")):
            load_run(run_dir)

    def test_checkpoint_shape_names_checkpoint_and_config(self, tiny_corpus,
                                                          tmp_path):
        run_dir = tmp_path / "run"
        save_run(run_dir, train(small_config(epochs=1), tiny_corpus[0]))
        config = run_dir / "config.txt"
        config.write_text(config.read_text().replace("max_len = 32",
                                                     "max_len = 64"))
        with pytest.raises(ValueError) as caught:
            load_run(run_dir)
        message = str(caught.value)
        assert message.startswith(
            f"{run_dir / 'checkpoint.bin'}: parameter 'embed.pos': "
            f"checkpoint shape (32, 16) does not match model shape (64, 16)")
        assert str(config) in message


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = small_config(mode="decomp", excluded_deps="intra_ne",
                           structured_layers="top:1", threshold=0.42)
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "config.txt"
        save_config(small_config(), path)
        loaded = load_config(path, overrides={"epochs": 9, "mode": "none"})
        assert loaded.epochs == 9
        assert loaded.mode == "none"
        assert loaded.bias_core is False

    def test_default_mode_override_keeps_the_files_toggles(self, tmp_path):
        # A file without a mode line is in the default mode, biaffine, so
        # overriding the mode with biaffine switches nothing.
        path = tmp_path / "config.txt"
        path.write_text("bias_prior = false\n")
        loaded = load_config(path, overrides={"mode": "biaffine"})
        assert toggles(loaded) == (True, False, False, False)

    def test_mode_switch_resets_the_files_toggles(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("bias_prior = false\n")
        loaded = load_config(path, overrides={"mode": "decomp"})
        assert toggles(loaded) == (False, True, True, True)

    def test_non_utf8_byte_names_file_and_offset(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"layers = 2\nmode = \xffnone\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: byte 0xff at offset 18 is not UTF-8")):
            load_config(path)

    def test_repeated_key_names_file_and_both_lines(self, tmp_path):
        # Read into a dict, the later line would silently win.
        path = tmp_path / "config.txt"
        path.write_text("layers = 2\n# depth\nmode = none\nlayers = 3\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: key 'layers' repeats line 1")):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("definitely_not_a_field = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    @pytest.mark.parametrize("line, message", [
        ("layers = abc",
         r"config\.txt:2: layers: invalid literal for int\(\)"),
        ("threshold = 2",
         r"config\.txt: threshold must lie in \(0, 1\), got 2\.0"),
        ("structured_layers = 0,,1",
         r"config\.txt: structured_layers: malformed spec '0,,1'"),
        ("structured_layers = top:x",
         r"config\.txt: structured_layers: malformed spec 'top:x'"),
    ])
    def test_bad_value_names_file_and_place(self, tmp_path, line, message):
        path = tmp_path / "config.txt"
        path.write_text(f"mode = decomp\n{line}\n")
        with pytest.raises(ValueError, match=message):
            load_config(path)

    def test_mode_defaults(self):
        assert toggles(ModelConfig(mode="none")) == (False,) * 4
        assert toggles(ModelConfig(mode="biaffine")) == (True, False, False,
                                                         True)
        assert toggles(ModelConfig(mode="decomp")) == (False, True, True,
                                                       True)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(heads=3, d_model=8)

    def test_structured_layer_parsing(self):
        cfg = ModelConfig(layers=4, structured_layers="top:2")
        assert cfg.resolve_structured_layers() == frozenset({2, 3})
        cfg = ModelConfig(layers=4, structured_layers="0,2")
        assert cfg.resolve_structured_layers() == frozenset({0, 2})
        cfg = ModelConfig(layers=4, structured_layers="none")
        assert cfg.resolve_structured_layers() == frozenset()
        with pytest.raises(ValueError):
            ModelConfig(layers=2, structured_layers="top:5")
        with pytest.raises(ValueError):
            ModelConfig(layers=2, structured_layers="3")

    def test_excluded_deps_validation(self):
        with pytest.raises(ValueError, match="NA"):
            ModelConfig(excluded_deps="na")
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig(excluded_deps="sideways")
