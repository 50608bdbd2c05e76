import math

import numpy as np
import pytest

from structrel import model as model_module
from structrel.autodiff import (
    Parameter,
    ShapeError,
    Tensor,
    concat,
    constant,
    grad_check,
    matmul,
    mul,
    sum_all,
    xavier_uniform,
)
from structrel.batching import encode_document
from structrel.config import ModelConfig
from structrel.corpus import (
    Document,
    Entity,
    Mention,
    RelationFact,
    Vocabulary,
    build_vocab,
    entity_type_labels,
)
from structrel.model import (
    DISTANCE_BOUNDARIES,
    N_DISTANCE_BUCKETS,
    RelationExtractor,
    bilinear_scores,
    distance_bucket,
    head_chunk,
)


def pair_doc() -> Document:
    return Document(
        "pair",
        (("Ada", "met", "Babbage", "today"), ("They", "argued", ".")),
        (
            Entity("PER", (Mention(0, 0, 1, "Ada"),)),
            Entity("PER", (Mention(0, 2, 3, "Babbage"),)),
        ),
        (RelationFact(0, 1, "knows"),),
    )


def relation_form(w: np.ndarray, r: int) -> np.ndarray:
    """Relation r's (d_e, d_e) form: its columns of the head's weights."""
    d_e = w.shape[0]
    return w[:, r * d_e:(r + 1) * d_e]


def make_model(doc=None, schema=("knows", "likes"), **cfg_kwargs) -> tuple:
    doc = doc or pair_doc()
    defaults = dict(layers=1, heads=1, d_model=8, d_dist=4, max_len=16,
                    coref_cap=8, epochs=1, mode="biaffine")
    defaults.update(cfg_kwargs)
    cfg = ModelConfig(**defaults)
    vocab = build_vocab([doc])
    etypes = entity_type_labels([doc])
    model = RelationExtractor(cfg, vocab, etypes, list(schema))
    enc = encode_document(doc, vocab, model.etype_to_index, cfg.coref_cap,
                          cfg.max_len)
    return model, enc


class TestDistanceBuckets:
    def test_zero_distance_is_center(self):
        assert distance_bucket(0) == len(DISTANCE_BOUNDARIES)

    def test_plus_minus_five_mirror(self):
        center = len(DISTANCE_BOUNDARIES)
        assert distance_bucket(5) == center + 3   # the 4..7 band
        assert distance_bucket(-5) == center - 3

    @staticmethod
    def brute(d):
        if d == 0:
            return len(DISTANCE_BOUNDARIES)
        level = 0
        for boundary in DISTANCE_BOUNDARIES:
            if abs(d) >= boundary:
                level += 1
        return len(DISTANCE_BOUNDARIES) + (level if d > 0 else -level)

    def test_exhaustive_scan_matches_brute_force(self):
        for d in range(-300, 301):
            assert distance_bucket(d) == self.brute(d), d

    def test_array_form_matches_brute_force(self):
        distances = np.arange(-1000, 1001)
        expect = [self.brute(int(d)) for d in distances]
        assert distance_bucket(distances).tolist() == expect

    def test_bucket_range(self):
        buckets = {distance_bucket(d) for d in range(-1000, 1001)}
        assert buckets == set(range(N_DISTANCE_BUCKETS))


class TestEmbedInputs:
    def test_sum_of_four_tables(self):
        model, enc = make_model()
        x = model.embed_inputs(enc).values
        word = model.store["embed.word"].values
        pos = model.store["embed.pos"].values
        etype = model.store["embed.etype"].values
        coref = model.store["embed.coref"].values
        n = enc.n
        expected = (
            word[enc.word_idx]
            + pos[np.arange(n)]
            + etype[enc.etype_idx]
            + coref[enc.coref_idx]
        )
        assert np.array_equal(x, expected)
        # non-entity token uses the reserved none rows
        assert enc.etype_idx[1] == 0 and enc.coref_idx[1] == 0

    def test_zero_tables_give_zero_embeddings(self):
        model, enc = make_model()
        for name in ("embed.word", "embed.pos", "embed.etype", "embed.coref"):
            model.store[name].tensor.values = np.zeros_like(
                model.store[name].values
            )
        assert not model.embed_inputs(enc).values.any()

    def test_same_entity_mentions_share_coref_component(self):
        doc = Document(
            "coref",
            (("Ada", "wrote"), ("She", "slept")),
            (Entity("PER", (Mention(0, 0, 1, "Ada"),
                            Mention(1, 0, 1, "She"))),),
            (),
        )
        model, enc = make_model(doc=doc)
        assert enc.coref_idx[0] == enc.coref_idx[2] == 1

    def test_oov_words_map_to_unknown(self):
        model, _ = make_model()
        vocab = model.vocab
        assert vocab.index("never-seen-token") == vocab.unk_index

    def test_too_long_document_rejected(self):
        doc = Document("long", (tuple(f"t{i}" for i in range(20)),), (), ())
        model, _ = make_model()
        # encoded against a longer limit than the model's max_len of 16
        enc = encode_document(doc, model.vocab, model.etype_to_index, 8, 64)
        with pytest.raises(ValueError, match="max_len"):
            model.embed_inputs(enc)


class TestPooling:
    def test_mean_of_two_mentions(self):
        doc = Document(
            "coref",
            (("Ada", "wrote"), ("She", "slept")),
            (Entity("PER", (Mention(0, 0, 1, "Ada"),
                            Mention(1, 0, 1, "She"))),),
            (),
        )
        model, enc = make_model(doc=doc)
        hidden = np.zeros((4, 8))
        hidden[0] = 1.0
        hidden[2] = 3.0
        pooled = model.pool_entities(Tensor(hidden), enc).values
        assert np.allclose(pooled[0], 2.0)

    def test_single_token_entity_is_identity(self):
        model, enc = make_model()
        rng = np.random.default_rng(0)
        hidden = rng.normal(size=(enc.n, 8))
        pooled = model.pool_entities(Tensor(hidden), enc).values
        assert np.array_equal(pooled[0], hidden[0])
        assert np.array_equal(pooled[1], hidden[2])

    def test_matches_loop_on_random_fixtures(self):
        rng = np.random.default_rng(5)
        doc = Document(
            "multi",
            (("a", "b", "c", "d"), ("e", "f", "g")),
            (
                Entity("ENT", (Mention(0, 0, 2, "ab"), Mention(1, 1, 2, "f"))),
                Entity("ENT", (Mention(0, 3, 4, "d"),)),
            ),
            (),
        )
        model, enc = make_model(doc=doc)
        hidden = rng.normal(size=(enc.n, 8))
        pooled = model.pool_entities(Tensor(hidden), enc).values
        assert np.allclose(pooled[0], hidden[[0, 1, 5]].mean(axis=0))
        assert np.allclose(pooled[1], hidden[[3]].mean(axis=0))

    def test_invariant_to_mention_enumeration_order(self):
        mentions = (Mention(0, 0, 1, "Ada"), Mention(1, 0, 1, "She"))
        doc_fwd = Document(
            "m", (("Ada", "wrote"), ("She", "slept")),
            (Entity("PER", mentions),), (),
        )
        doc_rev = Document(
            "m", (("Ada", "wrote"), ("She", "slept")),
            (Entity("PER", mentions[::-1]),), (),
        )
        model, enc_fwd = make_model(doc=doc_fwd)
        enc_rev = encode_document(doc_rev, model.vocab, model.etype_to_index,
                                  8, 16)
        hidden = np.random.default_rng(2).normal(size=(4, 8))
        a = model.pool_entities(Tensor(hidden), enc_fwd).values
        b = model.pool_entities(Tensor(hidden), enc_rev).values
        assert np.array_equal(a, b)


class TestScoring:
    def test_zero_weights_give_half(self):
        model, enc = make_model()
        model.store["head.rel.W"].values[:] = 0.0
        result = model.forward(enc)
        assert np.allclose(result.probabilities.values, 0.5)

    def test_worked_bilinear_example(self):
        # e_s = [1, 0], e_o = [0, 1], W = [[0, 2], [0, 0]] scores sigmoid(2)
        model, _ = make_model(d_model=2, d_dist=0, schema=("only",))
        model.store["head.rel.W"].tensor.values = np.array(
            [[0.0, 2.0], [0.0, 0.0]]
        )
        probs = model.score_relations(
            Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])
        ).values
        assert probs[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))
        assert probs[0, 0] == pytest.approx(0.8808, abs=1e-4)

    def test_pair_and_relation_counts(self):
        doc = Document(
            "three",
            (("a", "b", "c"),),
            tuple(
                Entity("ENT", (Mention(0, i, i + 1, t),))
                for i, t in enumerate("abc")
            ),
            (),
        )
        model, enc = make_model(doc=doc)
        result = model.forward(enc)
        assert result.pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert result.probabilities.shape == (6, 2)

    def test_scores_match_triple_loop(self):
        model, enc = make_model()
        result = model.forward(enc)
        entities = model.pool_entities(result.hidden, enc).values
        dist = model.store["head.dist"].values
        starts = enc.first_starts
        for i, (s, o) in enumerate(result.pairs):
            e_s = np.concatenate(
                [entities[s], dist[distance_bucket(starts[s] - starts[o])]]
            )
            e_o = np.concatenate(
                [entities[o], dist[distance_bucket(starts[o] - starts[s])]]
            )
            for j in range(len(model.schema)):
                W = relation_form(model.store["head.rel.W"].values, j)
                logit = float(e_s @ W @ e_o)
                expect = 1.0 / (1.0 + math.exp(-logit))
                assert result.probabilities.values[i, j] == pytest.approx(
                    expect, rel=1e-10
                )

    def test_single_entity_document_scores_nothing(self):
        doc = Document(
            "solo", (("Ada", "wrote"),),
            (Entity("PER", (Mention(0, 0, 1, "Ada"),)),), (),
        )
        model, enc = make_model(doc=doc)
        result = model.forward(enc)
        assert result.probabilities is None
        assert float(model.compute_loss(result, enc).values) == 0.0


def loop_scores(e_s: Tensor, e_o: Tensor, weights) -> Tensor:
    """The per-relation loop the head node replaced: one graph of three
    nodes per relation, the row sum taken as a product with ones."""
    ones = constant(np.ones((e_s.shape[1], 1)))
    return concat([matmul(mul(matmul(e_s, w), e_o), ones) for w in weights],
                  axis=1)


class TestRelationHeadNode:
    P, D_E, M = 7, 6, 5

    @pytest.fixture
    def head(self, monkeypatch):
        """Pair features and five relations' weights, run in chunks of
        two relations: 2, 2 and 1."""
        monkeypatch.setattr(model_module, "HEAD_CHUNK_BYTES",
                            2 * 8 * self.P * self.D_E)
        assert head_chunk(self.P, self.D_E) == 2
        rng = np.random.default_rng(11)
        e_s = Parameter("e_s", Tensor(rng.normal(size=(self.P, self.D_E))))
        e_o = Parameter("e_o", Tensor(rng.normal(size=(self.P, self.D_E))))
        w = Parameter("W", Tensor(rng.normal(size=(self.D_E,
                                                   self.M * self.D_E))))
        upstream = constant(rng.normal(size=(self.P, self.M)))
        return e_s, e_o, w, upstream

    def test_chunk_sizes_at_the_benchmark_shapes(self):
        assert head_chunk(56, 40) == 14     # wide-decomp
        assert head_chunk(132, 72) == 3     # large-biaffine
        assert head_chunk(10_000, 72) == 1  # never fewer than one

    def test_gradients_pass_finite_differences(self, head):
        e_s, e_o, w, upstream = head

        def build():
            scores = bilinear_scores(e_s.tensor, e_o.tensor, w.tensor)
            return sum_all(mul(scores, upstream))

        err = grad_check(build, [e_s, e_o, w])
        assert err < 1e-5, err

    def test_weights_must_hold_whole_relations(self, head):
        e_s, e_o, w, _ = head
        with pytest.raises(ShapeError, match="weights of shape"):
            bilinear_scores(e_s.tensor, e_o.tensor,
                            Tensor(w.values[:, :-1]))

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_matches_the_per_relation_loop(self, head, monkeypatch, chunk):
        e_s, e_o, w, upstream = head
        monkeypatch.setattr(model_module, "HEAD_CHUNK_BYTES",
                            chunk * 8 * self.P * self.D_E)
        # the loop's weights are column views of the head's one array
        columns = [Tensor(relation_form(w.values, r)) for r in range(self.M)]
        results = []
        for score, weights, w_grads in (
                (bilinear_scores, w.tensor, lambda: w.tensor.grad),
                (loop_scores, columns,
                 lambda: np.concatenate([c.grad for c in columns], axis=1))):
            for t in (e_s.tensor, e_o.tensor, w.tensor, *columns):
                t.grad = None
            scores = score(e_s.tensor, e_o.tensor, weights)
            sum_all(mul(scores, upstream)).backward()
            results.append((scores.values, [e_s.tensor.grad, e_o.tensor.grad,
                                             w_grads()]))
        (node, node_grads), (loop, loop_grads) = results

        def close(got, expect):
            return np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

        assert close(node, loop)
        for name, got, expect in zip(("e_s", "e_o", "W"), node_grads,
                                     loop_grads):
            assert close(got, expect), name

    def test_one_parameter_whatever_the_schema(self):
        counts = {len(make_model(schema=[f"r{i}" for i in range(width)])[0]
                      .store) for width in (1, 40)}
        assert len(counts) == 1

    def test_forms_drawn_in_relation_order(self):
        # Relation r's form is the r-th (d_e, d_e) block of the one draw,
        # as the r-th of one draw per relation was: a longer schema
        # leaves the earlier relations' forms as they are.
        one = make_model(schema=("knows",))[0].store["head.rel.W"].values
        two = make_model()[0].store["head.rel.W"].values
        assert two.shape == (12, 24)
        assert np.array_equal(relation_form(two, 0), one)
        assert not np.array_equal(relation_form(two, 1), one)


class TestLoss:
    def test_uniform_probabilities_give_pairs_times_relations_ln2(self):
        model, enc = make_model()
        model.store["head.rel.W"].values[:] = 0.0
        result = model.forward(enc)
        loss = float(model.compute_loss(result, enc).values)
        assert loss == pytest.approx(2 * 2 * math.log(2), rel=1e-12)

    def test_confident_correct_predictions_near_zero_loss(self):
        model, enc = make_model()
        result = model.forward(enc)
        probs = np.full_like(result.probabilities.values, 1e-9)
        row = result.pairs.index((0, 1))
        probs[row, model.rel_to_index["knows"]] = 1.0 - 1e-9
        result.probabilities.values = probs
        loss = float(model.compute_loss(result, enc).values)
        # clipped at 1e-7, so each of the 4 cells contributes about 1e-7
        assert 0.0 < loss < 1e-5

    def test_matches_brute_force_bce(self):
        model, enc = make_model()
        result = model.forward(enc)
        loss = float(model.compute_loss(result, enc).values)
        gold = {(f.h, f.t, f.r) for f in enc.doc.facts}
        expect = 0.0
        for i, (s, o) in enumerate(result.pairs):
            for j, r in enumerate(model.schema):
                p = float(result.probabilities.values[i, j])
                y = 1.0 if (s, o, r) in gold else 0.0
                expect += -(y * math.log(p) + (1 - y) * math.log(1 - p))
        assert loss == pytest.approx(expect, rel=1e-9)

    def test_unknown_gold_relation_rejected(self):
        doc = pair_doc()
        doc = Document(doc.doc_id, doc.sentences, doc.entities,
                       (RelationFact(0, 1, "mystery"),))
        model, enc = make_model(doc=doc)
        result = model.forward(enc)
        with pytest.raises(ValueError, match="mystery"):
            model.compute_loss(result, enc)

    def test_loss_is_non_negative(self):
        model, enc = make_model()
        result = model.forward(enc)
        assert float(model.compute_loss(result, enc).values) >= 0.0


class TestPredict:
    def test_threshold_is_inclusive(self):
        model, enc = make_model()
        result = model.forward(enc)
        result.probabilities.values = np.full_like(
            result.probabilities.values, 0.5
        )
        facts = model.predict(result, threshold=0.5)
        assert len(facts) == len(result.pairs) * len(model.schema)

    def test_high_threshold_empties_predictions(self):
        model, enc = make_model()
        result = model.forward(enc)
        result.probabilities.values = np.full_like(
            result.probabilities.values, 0.5
        )
        assert model.predict(result, threshold=1.0 - 1e-9) == []

    def test_raising_threshold_never_adds_predictions(self):
        model, enc = make_model()
        result = model.forward(enc)
        previous = None
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            facts = {
                (p.h, p.t, p.r) for p in model.predict(result, theta)
            }
            if previous is not None:
                assert facts <= previous
            previous = facts

    def test_invalid_threshold_rejected(self):
        model, enc = make_model()
        result = model.forward(enc)
        with pytest.raises(ValueError):
            model.predict(result, threshold=0.0)


class TestFullModelGradients:
    def test_loss_gradient_passes_finite_differences(self):
        model, enc = make_model(layers=2, heads=2, d_model=8, mode="biaffine")
        rng = np.random.default_rng(3)
        for p in model.store:
            if ".bias." in p.name:
                p.tensor.values = rng.normal(size=p.values.shape) * 0.1

        def build():
            result = model.forward(enc)
            return model.compute_loss(result, enc)

        params = list(model.store)
        err = grad_check(build, params, max_elements_per_param=4)
        assert err < 1e-4, err


class TestBaselineEquivalenceWithLoss:
    def test_first_training_loss_identical_three_ways(self):
        doc = pair_doc()
        vocab = build_vocab([doc])
        etypes = entity_type_labels([doc])

        def first_loss(mode, excluded=frozenset()):
            cfg = ModelConfig(layers=2, heads=2, d_model=8, d_dist=4,
                              max_len=16, coref_cap=8, mode=mode, seed=7)
            model = RelationExtractor(cfg, vocab, etypes, ["knows"])
            enc = encode_document(doc, vocab, model.etype_to_index, 8, 16,
                                  excluded)
            result = model.forward(enc)
            return float(model.compute_loss(result, enc).values)

        from structrel.structure import STRUCTURED_TYPES

        baseline = first_loss("none")
        zero_init = first_loss("biaffine")
        na_only = first_loss("biaffine", frozenset(STRUCTURED_TYPES))
        assert baseline == zero_init == na_only


class TestParameterInit:
    def test_stacked_projections_equal_per_head_draws(self):
        # Every head's wq, wk and wv drawn one at a time in (head,
        # projection) order, with the embedding tables before them and each
        # layer's wo and FFN after: the stacked wqkv holds the same values,
        # and the draws after it are unchanged.
        seed, layers, heads, d, d_dist = 11, 2, 4, 8, 4
        model, _ = make_model(layers=layers, heads=heads, d_model=d,
                              d_dist=d_dist, seed=seed)
        cfg, dh = model.cfg, d // heads
        rng = np.random.default_rng(seed)
        for name, rows in (("word", len(model.vocab)), ("pos", cfg.max_len),
                           ("etype", len(model.etype_labels) + 1),
                           ("coref", cfg.coref_cap + 1)):
            expect = xavier_uniform(rng, rows, d, (rows, d))
            assert np.array_equal(model.store[f"embed.{name}"].values, expect)
        for l in range(layers):
            drawn = {(h, name): xavier_uniform(rng, d, dh, (d, dh))
                     for h in range(heads) for name in ("wq", "wk", "wv")}
            expect = np.stack([drawn[h, name] for name in ("wq", "wk", "wv")
                               for h in range(heads)])
            assert np.array_equal(model.store[f"layer{l}.wqkv"].values, expect)
            assert np.array_equal(model.store[f"layer{l}.wo"].values,
                                  xavier_uniform(rng, d, d, (d, d)))
            hidden = d * cfg.ffn_mult
            assert np.array_equal(model.store[f"layer{l}.ffn.w1"].values,
                                  xavier_uniform(rng, d, hidden, (d, hidden)))
            assert np.array_equal(model.store[f"layer{l}.ffn.w2"].values,
                                  xavier_uniform(rng, hidden, d, (hidden, d)))
