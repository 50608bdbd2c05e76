"""The benchmark tracer in ``benchmark/spans.py`` patches functions by the
names their callers look them up by, and ``benchmark/run.py`` builds its
workloads from ``ModelConfig`` and ``SynthSpec``, parses the step out of a
``DivergenceError`` and sums ``Parameter.trainable``.  A change under
``src/`` that breaks either must fail here rather than in the benchmark."""
import gc
import sys
import weakref
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import run  # noqa: E402
import spans  # noqa: E402
from structrel import autodiff, batching, encoder, harness, model  # noqa: E402
from structrel.config import ModelConfig  # noqa: E402
from structrel.synth import SynthSpec, generate_synthetic  # noqa: E402

from test_harness import small_config  # noqa: E402


def test_every_patched_name_resolves_in_its_owner():
    patched = [(owner, attr) for owner, attr, _ in spans.SPANNED] + [
        (autodiff.Tensor, "__init__"),
        (encoder, "type_bias"),
        (model, "encoder_forward"),
    ]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in patched if attr not in owner.__dict__]
    assert not missing


def test_tracer_restores_every_original():
    before = [owner.__dict__[attr] for owner, attr, _ in spans.SPANNED]
    with spans.Tracer():
        pass
    after = [owner.__dict__[attr] for owner, attr, _ in spans.SPANNED]
    assert all(a is b for a, b in zip(before, after))


def packs_per_training(config, docs) -> int:
    """The packs that ``harness.train`` runs: each epoch's batches, each
    packed on its own."""
    built = harness.build_model(config, docs)
    encodings = [harness._encode(built, doc) for doc in docs]
    return sum(len(list(batching.pack_documents(batch, config.max_len)))
               for epoch in range(config.epochs)
               for batch in batching.make_batches(
                   encodings, config.batch_size, config.seed + epoch))


def test_training_encodes_each_document_once():
    docs = generate_synthetic(SynthSpec(n_docs=6, seed=2))
    config = small_config(epochs=3, batch_size=4)
    with spans.Tracer() as tracer:
        tracer.measure("harness.train", "train", harness.train, config, docs)
    totals = tracer.totals("train")
    assert totals["harness.make_batches.calls"] == 3
    assert totals["batching.encode_document.calls"] == 6
    assert totals["batching.build_structure_matrix.calls"] == 6
    # one forward per pack: 2 batches an epoch, the first of them in one
    # or two packs
    packs = packs_per_training(config, docs)
    assert 6 <= packs < 18
    assert totals["model.forward.calls"] == packs


@pytest.mark.parametrize("mode, structured_layers, n_structured", [
    ("biaffine", "all", 2),
    ("decomp", "1", 1),
])
def test_bias_is_computed_only_at_structured_cells(mode, structured_layers,
                                                   n_structured):
    # A dense bias (every cell of every type) would count n*n*5 cells per
    # head and layer; the gather counts each non-NA cell once.
    docs = generate_synthetic(SynthSpec(n_docs=4, seed=3))
    config = small_config(epochs=1, layers=2, heads=2, mode=mode,
                          structured_layers=structured_layers)
    with spans.Tracer() as tracer:
        tracer.measure("harness.train", "train", harness.train, config, docs)
    totals = tracer.totals("train")
    assert totals["model.forward.calls"] == packs_per_training(config, docs)
    assert totals["model.forward.calls"] < 4
    assert totals["structure.structured_cells"] > 0
    assert totals["encoder.bias_cells"] == (
        totals["structure.structured_cells"] * config.heads * n_structured)


def test_training_holds_one_pack_graph_at_a_time(monkeypatch):
    # Each forward's hidden states belong to that pack's graph; they must
    # be freed (by reference counting, without a collector pass) before
    # the next pack's forward starts.  ``Tensor`` has ``__slots__`` and no
    # weak references, so the arrays are watched.  A budget of two
    # 12-token documents' cells splits every batch of four into packs.
    docs = generate_synthetic(SynthSpec(n_docs=8, seed=2))
    config = small_config(epochs=2, batch_size=4, max_len=12)
    original_forward = model.RelationExtractor.forward
    hidden: list[weakref.ref] = []
    alive_at_start: list[int] = []

    def watched(self, pack, recorder=None):
        alive_at_start.append(sum(ref() is not None for ref in hidden))
        result = original_forward(self, pack, recorder)
        hidden.append(weakref.ref(result.hidden.values))
        return result

    monkeypatch.setattr(model.RelationExtractor, "forward", watched)
    gc.disable()
    try:
        with pytest.warns(batching.TruncationWarning):
            harness.train(config, docs)
    finally:
        gc.enable()
    assert len(alive_at_start) == 8
    assert alive_at_start == [0] * 8


@pytest.mark.parametrize("mode", ["none", "biaffine", "decomp"])
def test_attention_is_one_node_per_layer_whatever_the_heads(mode):
    # The heads of a layer share one graph node, so one forward builds as
    # many nodes with four heads as with one, and the attention spans run
    # once per layer.
    docs = generate_synthetic(SynthSpec(n_docs=2, seed=5))
    totals = {}
    for heads in (1, 4):
        config = small_config(layers=3, heads=heads, d_model=16, mode=mode)
        model = harness.build_model(config, docs)
        pack = batching.Pack((harness._encode(model, docs[0]),))
        with spans.Tracer() as tracer:
            tracer.measure("model.forward", "infer", model.forward, pack)
        totals[heads] = tracer.totals("infer")
        for name in ("project_qkv", "structured_scores", "attend"):
            assert totals[heads][f"encoder.{name}.calls"] == config.layers
    assert totals[1]["autodiff.nodes"] == totals[4]["autodiff.nodes"]
    assert totals[1]["autodiff.nodes"] > 0


def test_relation_head_is_one_node_whatever_the_schema():
    # The relation head is one graph node for all relations, so one
    # forward builds as many nodes with 40 relations as with one, and
    # ``score_relations`` runs once per forward.
    docs = generate_synthetic(SynthSpec(n_docs=2, seed=5))
    config = small_config(layers=2, mode="decomp")
    totals = {}
    for width in (1, 40):
        schema = [f"r{i}" for i in range(width)]
        model = harness.build_model(config, docs, schema)
        enc = harness._encode(model, docs[0])
        assert enc.n_entities >= 2
        with spans.Tracer() as tracer:
            tracer.measure("model.forward", "infer", model.forward,
                           batching.Pack((enc,)))
        totals[width] = tracer.totals("infer")
        assert totals[width]["model.score_relations.calls"] == 1
    assert totals[1]["autodiff.nodes"] == totals[40]["autodiff.nodes"]
    assert totals[1]["autodiff.nodes"] > 0


@pytest.mark.parametrize("mode", ["none", "biaffine", "decomp"])
def test_a_pack_forward_builds_8_nodes_whatever_its_document_count(mode):
    # Pinned work: the forward and loss of a two-layer model over a pack.
    # One node for the embeddings, two per layer (the attention and the
    # block's tail), one for the pooling, one for the relation head and
    # one for the loss, for one document as for three.  The generic ops
    # they replaced (34 nodes per document) must not come back.
    docs = generate_synthetic(SynthSpec(n_docs=3, seed=5))
    config = small_config(layers=2, mode=mode)
    built = harness.build_model(config, docs)
    encs = [harness._encode(built, doc) for doc in docs]
    assert all(enc.n_entities >= 2 for enc in encs)
    for count in (1, 2, 3):
        pack = batching.Pack(tuple(encs[:count]))

        def step():
            return built.compute_loss(built.forward(pack))

        with spans.Tracer() as tracer:
            tracer.measure("step", "train", step)
        totals = tracer.totals("train")
        assert totals["autodiff.nodes"] == 8
        assert totals["encoder.attend.calls"] == 2 * count


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_builds_its_inputs(name, tmp_path):
    # make_inputs builds the workload's SynthSpec and ModelConfig and
    # raises unless every probe is longer than max_len.
    wl = run.WORKLOADS[name]
    inputs = run.make_inputs(wl, 0, tmp_path)
    assert isinstance(inputs.config, ModelConfig)
    assert len(inputs.docs) == wl.n_train + wl.n_dev + wl.n_test
    assert all(p.token_count() > inputs.config.max_len for p in inputs.probes)
    built = harness.build_model(inputs.config, inputs.docs[:wl.n_train])
    assert len(built.schema) == 2 + wl.unobserved_relations


def bench_inputs(docs, config):
    return run.Inputs(None, None, None, len(docs), 0, len(docs), docs=docs,
                      probes=[], config=config)


def test_divergence_counts_the_steps_never_taken(monkeypatch):
    # Six documents in batches of 4 and 2 are two steps an epoch; the
    # pack that holds the eleventh document starts step 3, after 10
    # documents trained (a pack never spans two batches).
    docs = generate_synthetic(SynthSpec(n_docs=6, seed=2))
    config = small_config(epochs=3, batch_size=4)
    trained = []
    compute_loss = model.RelationExtractor.compute_loss

    def diverging(self, result):
        if sum(trained) == 10:
            return autodiff.Tensor(float("nan"))
        trained.append(len(result.pack.docs))
        return compute_loss(self, result)

    monkeypatch.setattr(model.RelationExtractor, "compute_loss", diverging)
    out = run.Outcome()
    assert run.train(bench_inputs(docs, config), docs, out) is None
    assert out.failed == 3 * 6 - 10
    assert out.problems == ["training diverged: non-finite loss at step 3 "
                            "(epoch 1)"]


def test_every_store_entry_has_the_flag_the_benchmark_sums():
    docs = generate_synthetic(SynthSpec(n_docs=4, seed=2))
    out = run.Outcome()
    trained = run.train(bench_inputs(docs, small_config(epochs=1)), docs, out)
    assert out.problems == []
    entries = list(trained.store)
    assert entries
    assert all(isinstance(p, autodiff.Parameter)
               and isinstance(p.trainable, bool) for p in entries)
    assert out.n_params == sum(p.trainable for p in entries) == len(entries)
