import math
import warnings

import numpy as np
import pytest

from structrel import harness
from structrel.autodiff import (
    Parameter,
    ShapeError,
    Tensor,
    grad_check,
    sigmoid,
    xavier_uniform,
)
from structrel.batching import (
    DISTANCE_BOUNDARIES,
    N_DISTANCE_BUCKETS,
    Pack,
    PairLayout,
    distance_bucket,
    encode_document,
)
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
    RelationExtractor,
    embedding_sum,
    pair_scores,
    pool_blocks,
    sigmoid_cross_entropy,
)
from structrel.synth import SynthSpec, generate_synthetic

from conftest import float64, random_document
from reference_ops import (
    constant,
    mul,
    reference_cross_entropy,
    reference_embedding_sum,
    sum_all,
    take_rows,
)
from test_harness import small_config


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
        x = model.embed_inputs(Pack((enc,))).values
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
        assert not model.embed_inputs(Pack((enc,))).values.any()

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
            model.embed_inputs(Pack((enc,)))


def table_inputs(seed: int, n: int = 9, d: int = 3):
    """Four float64 tables as parameters and an index array per table,
    each with repeated rows (tokens sharing a word, a type or a coref
    row), the positions 0 to n - 1 second; and a readout."""
    rng = np.random.default_rng(seed)
    sizes = (7, n + 2, 3, 4)
    tables = [Parameter(name, Tensor(rng.normal(size=(rows, d))))
              for name, rows in zip(("word", "pos", "etype", "coref"),
                                    sizes)]
    rows = [rng.integers(0, sizes[0], size=n), np.arange(n),
            np.array([0, 0, 1, 0, 2, 2, 0, 1, 0][:n]),
            np.array([0, 1, 1, 0, 3, 0, 3, 3, 0][:n])]
    for idx in (rows[0], rows[2], rows[3]):
        assert np.unique(idx).size < idx.size
    return tables, rows, Tensor(rng.normal(size=(n, d)))


def embedding_values_and_grads(embed, tables, rows, readout):
    for t in tables:
        t.tensor.grad = None
    x = embed([t.tensor for t in tables], rows)
    sum_all(mul(x, readout)).backward()
    return [x.values] + [t.tensor.grad for t in tables]


class TestEmbeddingNode:
    """``embedding_sum`` against the gathers and additions it replaced,
    in float64."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_graph_ops(self, seed):
        tables, rows, readout = table_inputs(seed)
        got = embedding_values_and_grads(embedding_sum, tables, rows,
                                         readout)
        expect = embedding_values_and_grads(reference_embedding_sum, tables,
                                            rows, readout)
        for name, g, e in zip(["value", "word", "pos", "etype", "coref"],
                              got, expect):
            assert g.shape == e.shape, name
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max(), name

    def test_a_repeated_row_takes_every_token_gradient(self):
        tables, rows, _ = table_inputs(0)
        readout = Tensor(np.ones((9, 3)))
        _, _, _, etype, coref = embedding_values_and_grads(
            embedding_sum, tables, rows, readout)
        assert etype[:, 0].tolist() == [5.0, 2.0, 2.0]
        assert coref[:, 0].tolist() == [4.0, 2.0, 0.0, 3.0]

    def test_grad_check_every_table(self):
        tables, rows, readout = table_inputs(4)

        def build():
            return sum_all(mul(embedding_sum([t.tensor for t in tables],
                                             rows), readout))

        err = grad_check(build, tables)
        assert err < 1e-5, err

    @float64
    def test_model_embedding_matches_the_graph_ops(self):
        docs = generate_synthetic(SynthSpec(n_docs=2, seed=5))
        model = harness.build_model(small_config(), docs)
        enc = harness._encode(model, docs[0])
        assert np.unique(enc.etype_idx).size < enc.n
        tables = [model.store[f"embed.{name}"]
                  for name in ("word", "pos", "etype", "coref")]
        readout = Tensor(np.random.default_rng(1).normal(
            size=(enc.n, model.cfg.d_model)))
        got = embedding_values_and_grads(
            lambda ts, _: model.embed_inputs(Pack((enc,))), tables, None,
            readout)
        expect = embedding_values_and_grads(
            reference_embedding_sum, tables,
            [enc.word_idx, np.arange(enc.n), enc.etype_idx, enc.coref_idx],
            readout)
        for g, e in zip(got, expect):
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()


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
        pooled = model.pool_entities(Tensor(hidden), Pack((enc,))).values
        assert np.allclose(pooled[0], 2.0)

    def test_single_token_entity_is_identity(self):
        model, enc = make_model()
        rng = np.random.default_rng(0)
        hidden = rng.normal(size=(enc.n, 8))
        pooled = model.pool_entities(Tensor(hidden), Pack((enc,))).values
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
        pooled = model.pool_entities(Tensor(hidden), Pack((enc,))).values
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
        a = model.pool_entities(Tensor(hidden), Pack((enc_fwd,))).values
        b = model.pool_entities(Tensor(hidden), Pack((enc_rev,))).values
        assert np.array_equal(a, b)


class TestPackPooling:
    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"],
                             indirect=True)
    def test_equals_each_document_pooled_alone(self, compute_dtype):
        # The block-diagonal product over a pack, a document without
        # entities among them: every block is the document's own
        # product, so values and gradients are bit-equal.
        rng = np.random.default_rng(8)
        docs = [random_document(rng, f"p{i}") for i in range(6)]
        docs.insert(2, Document("bare", (("x", "y", "z"),), (), ()))
        model = harness.build_model(small_config(), docs, schema=["r"])
        encs = [harness._encode(model, doc) for doc in docs]
        assert any(not enc.n_entities for enc in encs)
        d = model.cfg.d_model
        hidden = [rng.normal(size=(enc.n, d)).astype(compute_dtype)
                  for enc in encs]
        upstream = [rng.normal(size=(enc.n_entities, d)).astype(
            compute_dtype) for enc in encs]

        def pooled(docs):
            h = Tensor(np.concatenate([hidden[i] for i in docs]))
            out = pool_blocks(h, Pack(tuple(encs[i] for i in docs)))
            up = np.concatenate([upstream[i] for i in docs])
            sum_all(mul(out, Tensor(up))).backward()
            return out.values, h.grad

        alone = [pooled([i]) for i in range(len(encs))]
        got = pooled(range(len(encs)))
        for g, parts in zip(got, zip(*alone)):
            assert g.dtype == compute_dtype
            assert g.tobytes() == np.concatenate(parts).tobytes()

    def test_pool_entities_is_one_node(self):
        model, enc = make_model()
        hidden = Tensor(np.ones((enc.n, 8)))
        pooled = model.pool_entities(hidden, Pack((enc,)))
        assert pooled._parents == (hidden,)


class TestScoring:
    def test_zero_weights_give_half(self):
        model, enc = make_model()
        model.store["head.rel.W"].values[:] = 0.0
        result = model.forward(Pack((enc,)))
        assert not result.logits.values.any()
        assert np.all(sigmoid(result.logits.values) == 0.5)

    def test_worked_bilinear_example(self):
        # e_s = [1, 0], e_o = [0, 1], W = [[0, 2], [0, 0]] scores logit 2,
        # probability sigmoid(2)
        # for the pair (0, 1) of entities [1, 0] and [0, 1]
        model, enc = make_model(d_model=2, d_dist=0, schema=("only",))
        model.store["head.rel.W"].tensor.values = np.array(
            [[0.0, 2.0], [0.0, 0.0]]
        )
        pairs = model.pair_features(Pack((enc,)))
        assert pairs[0].pairs == [(0, 1), (1, 0)]
        logits = model.score_relations(
            Tensor([[1.0, 0.0], [0.0, 1.0]]), pairs
        ).values
        assert logits.tolist() == [[2.0], [0.0]]
        probs = sigmoid(logits)
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
        result = model.forward(Pack((enc,)))
        assert result.documents()[0].pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert result.logits.shape == (6, 2)

    @float64
    def test_scores_match_triple_loop(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        entities = model.pool_entities(result.hidden, Pack((enc,))).values
        dist = model.store["head.dist"].values
        starts = enc.first_starts
        for i, (s, o) in enumerate(result.documents()[0].pairs):
            e_s = np.concatenate(
                [entities[s], dist[distance_bucket(starts[s] - starts[o])]]
            )
            e_o = np.concatenate(
                [entities[o], dist[distance_bucket(starts[o] - starts[s])]]
            )
            for j in range(len(model.schema)):
                W = relation_form(model.store["head.rel.W"].values, j)
                logit = float(e_s @ W @ e_o)
                assert result.logits.values[i, j] == pytest.approx(
                    logit, rel=1e-10, abs=1e-12
                )

    def test_single_entity_document_scores_nothing(self):
        doc = Document(
            "solo", (("Ada", "wrote"),),
            (Entity("PER", (Mention(0, 0, 1, "Ada"),)),), (),
        )
        model, enc = make_model(doc=doc)
        result = model.forward(Pack((enc,)))
        assert result.logits is None
        assert float(model.compute_loss(result).values) == 0.0


def join(parts) -> Tensor:
    """Side-by-side columns of 2-d tensors as one node; the head's pair
    features were built with it."""
    values = np.concatenate([p.values for p in parts], axis=1)
    splits = np.cumsum([p.shape[1] for p in parts])[:-1]

    def _backward(grad):
        for p, piece in zip(parts, np.split(grad, splits, axis=1)):
            p._accumulate(piece)

    return Tensor(values, tuple(parts), _backward)


def bilinear_scores(e_s: Tensor, e_o: Tensor, w: Tensor, k: int) -> Tensor:
    """The per-pair head that :func:`pair_scores` replaced, as one node
    over pair features ``e_s`` and ``e_o`` (P, d_e): ``t = e_s @ W`` for
    k relations at a time, then a row product with ``e_o``; the backward
    computes each chunk's ``t`` again."""
    a, b, wv = e_s.values, e_o.values, w.values
    rows, d_e = a.shape
    n_rel = wv.shape[1] // d_e
    chunks = [(lo, min(lo + k, n_rel)) for lo in range(0, n_rel, k)]

    def products(lo, hi):
        cols = wv[:, lo * d_e:hi * d_e]
        return cols, (a @ cols).reshape(rows, hi - lo, d_e)

    scores = np.empty((rows, n_rel), dtype=a.dtype)
    for lo, hi in chunks:
        _, t = products(lo, hi)
        scores[:, lo:hi] = (t @ b[:, :, None])[..., 0]

    def _backward(grad):
        da = np.zeros_like(a)
        db = np.zeros_like(b)
        if w.grad is None:
            w.grad = np.zeros_like(wv)
        for lo, hi in chunks:
            cols, t = products(lo, hi)
            g = grad[:, lo:hi]
            db += (g[:, None, :] @ t)[:, 0, :]
            gb = (g[:, :, None] * b[:, None, :]).reshape(rows, -1)
            da += gb @ cols.T
            w.grad[:, lo * d_e:hi * d_e] += a.T @ gb
        e_s._accumulate(da)
        e_o._accumulate(db)

    return Tensor(scores, (e_s, e_o, w), _backward)


# Each pair's entities and distance buckets, which only the per-pair
# reference and the layout's tests read.

def subjects(layout: PairLayout) -> np.ndarray:
    return layout.cells[0, 0]


def objects(layout: PairLayout) -> np.ndarray:
    return layout.cells[1, 0]


def subject_buckets(layout: PairLayout, starts) -> np.ndarray:
    starts = np.asarray(starts)
    return distance_bucket(starts[subjects(layout)] - starts[objects(layout)])


def object_buckets(layout: PairLayout, starts) -> np.ndarray:
    starts = np.asarray(starts)
    return distance_bucket(starts[objects(layout)] - starts[subjects(layout)])


def reference_scores(entities: Tensor, dist: Tensor, w: Tensor,
                     layout: PairLayout, starts, k: int) -> Tensor:
    """The head before factoring: every pair's features gathered and
    joined, six nodes, then :func:`bilinear_scores` in chunks of k;
    ``starts`` are the first mention starts ``layout`` was made of."""
    e_s = join([take_rows(entities, subjects(layout)),
                take_rows(dist, subject_buckets(layout, starts))])
    e_o = join([take_rows(entities, objects(layout)),
                take_rows(dist, object_buckets(layout, starts))])
    return bilinear_scores(e_s, e_o, w, k)


#: First mention starts per entity count.  Each layout holds both end
#: buckets, 0 and 18, distances of 256 and more; those of three and nine
#: entities repeat buckets, so some grid cells sum several pairs.
STARTS = {2: (0, 300), 3: (0, 300, 301),
          9: (0, 1, 2, 5, 9, 40, 300, 301, 600)}


def head_inputs(n: int, m: int, d_dist: int, dtype="float64", d: int = 6,
                seed: int = 11):
    """Entities, distance table and weights as parameters, an upstream
    gradient and the pair layout of ``STARTS[n]``."""
    rng = np.random.default_rng(seed)
    d_e = d + d_dist

    def param(name, shape):
        return Parameter(name, Tensor(rng.normal(size=shape).astype(dtype)))

    params = (param("entities", (n, d)),
              param("dist", (N_DISTANCE_BUCKETS, d_dist)),
              param("W", (d_e, m * d_e)))
    upstream = constant(rng.normal(size=(n * (n - 1), m)).astype(dtype))
    return params, upstream, PairLayout.of(STARTS[n])


class TestRelationHeadNode:
    @pytest.mark.parametrize("n", sorted(STARTS))
    def test_layouts_repeat_buckets_and_reach_both_ends(self, n):
        layout = PairLayout.of(STARTS[n])
        buckets = subject_buckets(layout, STARTS[n]).tolist()
        assert {0, N_DISTANCE_BUCKETS - 1} <= set(buckets)
        assert len(set(buckets)) < len(buckets) or n == 2
        assert layout.sums.multi_starts.size or n == 2

    @pytest.mark.parametrize("k", ["1", "2", "all"])
    @pytest.mark.parametrize("d_dist", [0, 8])
    @pytest.mark.parametrize("m", [1, 5, 96])
    @pytest.mark.parametrize("n", sorted(STARTS))
    def test_matches_the_per_pair_reference(self, n, m, d_dist, k):
        params, upstream, layout = head_inputs(n, m, d_dist)
        tensors = [p.tensor for p in params]
        results = []
        for score in (
                lambda: pair_scores(*tensors, [layout]),
                lambda: reference_scores(*tensors, layout, STARTS[n],
                                         m if k == "all" else int(k))):
            for t in tensors:
                t.grad = None
            scores = score()
            sum_all(mul(scores, upstream)).backward()
            results.append([scores.values] + [t.grad for t in tensors])

        def close(got, expect):
            return (got.shape == expect.shape and np.abs(got - expect).max(
                initial=0.0) <= 1e-12 * np.abs(expect).max(initial=0.0))

        for name, got, expect in zip(("scores", "entities", "dist", "W"),
                                     *results):
            assert close(got, expect), name

    @pytest.mark.parametrize("d_dist", [0, 3])
    def test_gradients_pass_finite_differences(self, d_dist):
        params, upstream, layout = head_inputs(3, 2, d_dist, d=3)

        def build():
            scores = pair_scores(*(p.tensor for p in params), [layout])
            return sum_all(mul(scores, upstream))

        err = grad_check(build, list(params))
        assert err < 1e-5, err

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_keeps_the_dtype_of_its_inputs(self, dtype):
        params, upstream, layout = head_inputs(3, 5, 8, dtype)
        for p in params:
            p.tensor.grad = None
        scores = pair_scores(*(p.tensor for p in params), [layout])
        sum_all(mul(scores, upstream)).backward()
        assert scores.values.dtype == dtype
        assert all(p.tensor.grad.dtype == dtype for p in params)

    def test_weights_must_hold_whole_relations(self):
        (x, dist, w), _, layout = head_inputs(3, 5, 8)
        with pytest.raises(ShapeError, match="weights of shape"):
            pair_scores(x.tensor, dist.tensor, Tensor(w.values[:, :-1]),
                        [layout])

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


class TestPairLayout:
    def test_pairs_and_buckets_per_pair(self):
        starts = (4, 0, 30)
        layout = PairLayout.of(starts)
        assert layout.pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0),
                                (2, 1)]
        assert subjects(layout).tolist() == [s for s, _ in layout.pairs]
        assert objects(layout).tolist() == [o for _, o in layout.pairs]
        # the bucket rows of each pair's (b_s, b_o) cell
        bucket_of = layout.buckets[layout.cells[:, 3] - len(starts)]
        for i, (s, o) in enumerate(layout.pairs):
            assert bucket_of[0, i] == distance_bucket(starts[s] - starts[o])
            assert bucket_of[1, i] == distance_bucket(starts[o] - starts[s])

    def test_every_pair_meets_its_four_cells(self):
        # Each pair's value summed into the grid by the single and multi
        # cells lands in its four (subject row, object row) cells.
        layout = PairLayout.of(STARTS[9])
        p, rows = len(layout.pairs), layout.rows
        values = np.random.default_rng(0).normal(size=p)
        grid = np.zeros((rows, rows))
        sums = layout.sums
        i, j, pair = sums.single
        grid[i, j] = values[pair]
        i, j = sums.multi
        grid[i, j] = np.add.reduceat(values[sums.multi_pairs],
                                     sums.multi_starts)
        expect = np.zeros((rows, rows))
        np.add.at(expect, tuple(layout.cells.reshape(2, -1)),
                  np.tile(values, 4))
        assert np.allclose(grid, expect, rtol=1e-14, atol=0.0)
        slot = dict(zip(layout.buckets.tolist(),
                        range(len(STARTS[9]), rows)))
        b_s = subject_buckets(layout, STARTS[9])
        b_o = object_buckets(layout, STARTS[9])
        for c, (s, o) in enumerate(layout.pairs):
            sides = ((s, slot[b_s[c]]), (o, slot[b_o[c]]))
            assert sorted(zip(*layout.cells[:, :, c])) == sorted(
                (a, b) for a in sides[0] for b in sides[1])

    def test_training_builds_each_layout_once(self, monkeypatch):
        docs = generate_synthetic(SynthSpec(n_docs=6, seed=2))
        config = small_config(epochs=3, batch_size=4)
        model = harness.build_model(config, docs)
        scored = sum(harness._encode(model, doc).n_entities >= 2
                     for doc in docs)
        built = []
        of = PairLayout.of.__func__

        def counted(cls, first_starts):
            built.append(tuple(first_starts))
            return of(cls, first_starts)

        monkeypatch.setattr(PairLayout, "of", classmethod(counted))
        harness.train(config, docs)
        assert len(built) == scored > 0

    def test_computed_once_per_encoding_and_read_only(self):
        model, enc = make_model()
        assert enc.pair_layout is enc.pair_layout
        assert model.pair_features(Pack((enc,)))[0] is enc.pair_layout
        assert enc.pool_weights is enc.pool_weights
        for arr in (enc.pair_layout.buckets, enc.pair_layout.cells,
                    enc.pool_weights):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestLoss:
    @float64
    def test_uniform_probabilities_give_pairs_times_relations_ln2(self):
        model, enc = make_model()
        model.store["head.rel.W"].values[:] = 0.0
        result = model.forward(Pack((enc,)))
        loss = float(model.compute_loss(result).values)
        assert loss == pytest.approx(2 * 2 * math.log(2), rel=1e-12)

    def test_confident_correct_predictions_near_zero_loss(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        logits = np.full_like(result.logits.values, -40.0)
        row = result.documents()[0].pairs.index((0, 1))
        logits[row, model.rel_to_index["knows"]] = 40.0
        result.logits.values = logits
        loss = float(model.compute_loss(result).values)
        # nothing is clipped: each of the 4 cells adds log1p(exp(-40))
        assert loss == pytest.approx(4 * math.exp(-40.0), rel=1e-12)

    @float64
    def test_matches_brute_force_bce(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        loss = float(model.compute_loss(result).values)
        gold = {(f.h, f.t, f.r) for f in enc.doc.facts}
        expect = 0.0
        for i, (s, o) in enumerate(result.documents()[0].pairs):
            for j, r in enumerate(model.schema):
                p = 1.0 / (1.0 + math.exp(-result.logits.values[i, j]))
                y = 1.0 if (s, o, r) in gold else 0.0
                expect += -(y * math.log(p) + (1 - y) * math.log(1 - p))
        assert loss == pytest.approx(expect, rel=1e-9)

    def test_unknown_gold_relation_rejected(self):
        doc = pair_doc()
        doc = Document(doc.doc_id, doc.sentences, doc.entities,
                       (RelationFact(0, 1, "mystery"),))
        model, enc = make_model(doc=doc)
        result = model.forward(Pack((enc,)))
        with pytest.raises(ValueError, match="mystery"):
            model.compute_loss(result)

    def test_loss_is_non_negative(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        assert float(model.compute_loss(result).values) >= 0.0


def loss_inputs(seed: int, dtype="float64"):
    """Logits over a wide range, extremes and zero included, as a
    parameter; 0/1 targets of the same shape."""
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=20.0, size=(6, 7))
    z.flat[:8] = [0.0, -0.0, 100.0, -100.0, 800.0, -800.0, 40.0, -40.0]
    y = rng.integers(0, 2, size=z.shape).astype(dtype)
    return Parameter("z", Tensor(z.astype(dtype))), y


class TestLossNode:
    """``sigmoid_cross_entropy`` against ``sum_all(bce_with_logits)``,
    the graph it replaced."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_graph_ops(self, seed):
        z, y = loss_inputs(seed)
        results = []
        for loss in (sigmoid_cross_entropy, reference_cross_entropy):
            z.tensor.grad = None
            out = loss(z.tensor, y)
            mul(out, constant(0.25)).backward()
            results.append((out.values, z.tensor.grad))
        (value, grad), (expect_value, expect_grad) = results
        assert value.tobytes() == expect_value.tobytes()
        assert np.abs(grad - expect_grad).max() <= 1e-12

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        z = Parameter("z", Tensor(rng.normal(scale=3.0, size=(6, 7))))
        y = rng.integers(0, 2, size=(6, 7)).astype(np.float64)
        # the sum of 42 terms is large beside a step of 1e-6
        err = grad_check(lambda: sigmoid_cross_entropy(z.tensor, y), [z],
                         step=1e-5)
        assert err < 1e-5, err

    def test_float32_gradient_without_overflow_at_extreme_logits(self):
        z = Tensor(np.array([-100.0, -100.0, 100.0, 100.0, -800.0, 800.0],
                            dtype=np.float32))
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = sigmoid_cross_entropy(z, y)
            loss.backward()
        assert loss.values.dtype == z.grad.dtype == np.float32
        # sigmoid(-100) = exp(-100) is a float32 subnormal, not 0
        assert np.allclose(z.grad, [0.0, -1.0, 1.0, 0.0, -1.0, 0.0],
                           rtol=0.0, atol=1e-40)
        assert float(loss.values) == 100.0 + 100.0 + 800.0

    def test_targets_must_match_the_logits(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            sigmoid_cross_entropy(Tensor(np.zeros(3)), np.zeros(2))


class TestPredict:
    def test_threshold_is_inclusive(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        result.logits.values = np.zeros_like(result.logits.values)
        facts = model.predict(result.documents()[0], threshold=0.5)
        assert len(facts) == len(result.documents()[0].pairs) * len(model.schema)

    def test_high_threshold_empties_predictions(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        result.logits.values = np.zeros_like(result.logits.values)
        assert model.predict(result.documents()[0], threshold=1.0 - 1e-9) == []

    def test_raising_threshold_never_adds_predictions(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        previous = None
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            facts = {
                (p.h, p.t, p.r) for p in model.predict(result.documents()[0], theta)
            }
            if previous is not None:
                assert facts <= previous
            previous = facts

    def test_invalid_threshold_rejected(self):
        model, enc = make_model()
        result = model.forward(Pack((enc,)))
        with pytest.raises(ValueError):
            model.predict(result.documents()[0], threshold=0.0)


class TestFullModelGradients:
    @float64
    def test_loss_gradient_passes_finite_differences(self):
        model, enc = make_model(layers=2, heads=2, d_model=8, mode="biaffine")
        rng = np.random.default_rng(3)
        for p in model.store:
            if ".bias." in p.name:
                p.tensor.values = rng.normal(size=p.values.shape) * 0.1

        def build():
            result = model.forward(Pack((enc,)))
            return model.compute_loss(result)

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
            result = model.forward(Pack((enc,)))
            return float(model.compute_loss(result).values)

        from structrel.structure import STRUCTURED_TYPES

        baseline = first_loss("none")
        zero_init = first_loss("biaffine")
        na_only = first_loss("biaffine", frozenset(STRUCTURED_TYPES))
        assert baseline == zero_init == na_only


class TestParameterInit:
    @pytest.mark.parametrize("compute_dtype", ["float64", "float32"],
                             indirect=True)
    def test_stacked_projections_equal_per_head_draws(self, compute_dtype):
        # Every head's wq, wk and wv drawn one at a time in (head,
        # projection) order, with the embedding tables before them and each
        # layer's wo and FFN after: the stacked wqkv holds the same values,
        # and the draws after it are unchanged.  A float32 model holds the
        # float64 draws rounded.
        seed, layers, heads, d, d_dist = 11, 2, 4, 8, 4
        model, _ = make_model(layers=layers, heads=heads, d_model=d,
                              d_dist=d_dist, seed=seed)
        cfg, dh = model.cfg, d // heads
        rng = np.random.default_rng(seed)

        def same(got, expect):
            return (got.dtype == compute_dtype
                    and np.array_equal(got, expect.astype(compute_dtype)))

        for name, rows in (("word", len(model.vocab)), ("pos", cfg.max_len),
                           ("etype", len(model.etype_labels) + 1),
                           ("coref", cfg.coref_cap + 1)):
            expect = xavier_uniform(rng, rows, d, (rows, d))
            assert same(model.store[f"embed.{name}"].values, expect)
        for l in range(layers):
            drawn = {(h, name): xavier_uniform(rng, d, dh, (d, dh))
                     for h in range(heads) for name in ("wq", "wk", "wv")}
            expect = np.stack([drawn[h, name] for name in ("wq", "wk", "wv")
                               for h in range(heads)])
            assert same(model.store[f"layer{l}.wqkv"].values, expect)
            assert same(model.store[f"layer{l}.wo"].values,
                        xavier_uniform(rng, d, d, (d, d)))
            hidden = d * cfg.ffn_mult
            assert same(model.store[f"layer{l}.ffn.w1"].values,
                        xavier_uniform(rng, d, hidden, (d, hidden)))
            assert same(model.store[f"layer{l}.ffn.w2"].values,
                        xavier_uniform(rng, hidden, d, (hidden, d)))
