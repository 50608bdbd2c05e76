"""The encoder's last block computes only the rows that entity pooling
reads, each document's mention tokens; keys and values still come from
every row.  Against the forward over every row (``reference_ops``),
inference logits are bit-equal in float32 and float64, float64 gradients
agree to 1e-12 relative, and the bias records of ``export-bias`` are
byte-identical."""
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from structrel import harness
from structrel import model as model_module
from structrel.autodiff import Parameter, Tensor, grad_check
from structrel.batching import Pack, TruncationWarning, pack_spans
from structrel.corpus import Document, Entity, Mention, RelationFact
from structrel.encoder import block_tail, structured_attention
from structrel.model import ForwardResult
from structrel.structure import (
    STRUCTURED_TYPES,
    PackedStructure,
    StructureMatrix,
    apply_ablation,
)

from conftest import float64, random_document
from reference_ops import (
    full_rows_bias_heatmap,
    full_rows_logits,
    mul,
    sum_all,
)
from test_encoder import (
    encoder_config,
    make_store,
    random_symmetric_codes,
    randomize_bias_params,
    tail_inputs,
)
from test_harness import small_config

SCHEMA = ["r0", "r1"]
MAX_LEN = 12


def corpus() -> list[Document]:
    """Random documents with multi-token and coreferent mentions, some cut
    by ``MAX_LEN``, among documents with no tokens, no entity and one
    entity of one or several tokens; documents with two entities or more
    hold two facts."""
    rng = np.random.default_rng(21)
    docs = [random_document(rng, f"r{i}") for i in range(12)]
    docs[2:2] = [
        Document("empty", (), (), ()),
        Document("bare", (("x", "y", "z"),), (), ()),
        Document("one-token", (("a", "b", "c"),),
                 (Entity("ENT", (Mention(0, 1, 2, "b"),)),), ()),
    ]
    docs[8:8] = [Document("one-coref", (("a", "b", "c"), ("d", "e")),
                          (Entity("ENT", (Mention(0, 0, 2, "ab"),
                                          Mention(1, 0, 2, "de"))),), ())]
    out = []
    for doc in docs:
        if len(doc.entities) >= 2:
            doc = dataclasses.replace(doc, facts=(
                RelationFact(0, 1, "r0"), RelationFact(1, 0, "r1")))
        out.append(doc)
    assert any(doc.token_count() > MAX_LEN for doc in out)
    return out


def trained_like(mode: str, layers: int, structured_layers: str):
    """A model over :func:`corpus` with every parameter random, so that
    every bias term is nonzero, and the corpus as one pack."""
    docs = corpus()
    config = small_config(mode=mode, layers=layers, max_len=MAX_LEN,
                          structured_layers=structured_layers)
    model = harness.build_model(config, docs, SCHEMA)
    rng = np.random.default_rng(3)
    for p in model.store:
        p.values[...] = rng.normal(size=p.values.shape) * 0.5
    with pytest.warns(TruncationWarning):
        encodings = harness._encode(model, docs)
    pack = Pack(tuple(encodings))
    counts = [enc.n_entities for enc in encodings]
    assert 0 in counts and 1 in counts and pack.n_pairs
    return model, pack


STACKS = [(0, "all"), (1, "all"), (2, "all"), (2, "0"), (2, "1")]
MODES = ["none", "decomp", "biaffine"]


@pytest.mark.parametrize("compute_dtype", ["float32", "float64"],
                         indirect=True)
@pytest.mark.parametrize("layers, structured_layers", STACKS)
@pytest.mark.parametrize("mode", MODES)
def test_inference_logits_are_bit_equal(compute_dtype, mode, layers,
                                        structured_layers):
    model, pack = trained_like(mode, layers, structured_layers)
    result = model.forward(pack)
    assert result.hidden.shape == (pack.structure.read_rows.size,
                                   model.cfg.d_model)
    assert pack.structure.read_rows.size < pack.n
    got = result.logits.values
    expect = full_rows_logits(model, pack).values
    assert got.dtype == compute_dtype
    assert got.tobytes() == expect.tobytes()


@float64
@pytest.mark.parametrize("layers, structured_layers", STACKS)
@pytest.mark.parametrize("mode", MODES)
def test_float64_gradients_match(mode, layers, structured_layers):
    model, pack = trained_like(mode, layers, structured_layers)

    def gradients(logits_of) -> dict[str, np.ndarray]:
        for p in model.store:
            p.tensor.grad = None
        logits = logits_of(pack)
        model.compute_loss(ForwardResult(pack, logits, None)).backward()
        return {p.name: p.tensor.grad for p in model.store}

    got = gradients(lambda pack: model.forward(pack).logits)
    expect = gradients(lambda pack: full_rows_logits(model, pack))
    for name, e in expect.items():
        g = got[name]
        assert g is not None and g.shape == e.shape, name
        assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max(), name
    last = f"layer{layers - 1}."
    assert all(e.any() for name, e in expect.items() if name.startswith(last))


@pytest.mark.parametrize("mode", ["decomp", "biaffine"])
def test_bias_records_are_byte_identical(mode):
    # The recorder takes every cell's bias, so its last block computes
    # every row, and packs without pairs still run their encoder: here
    # the first pack, two one-entity documents of MAX_LEN tokens.
    docs = corpus()
    long_one = Document("long-one", (tuple(f"w{i}" for i in range(MAX_LEN)),),
                        (Entity("ENT", (Mention(0, 3, 5, "w3"),)),), ())
    docs = [long_one, dataclasses.replace(long_one, doc_id="long-two")] + docs
    lengths = [min(doc.token_count(), MAX_LEN) for doc in docs]
    assert next(pack_spans(lengths, MAX_LEN)) == (0, 2)
    model, _ = trained_like(mode, 2, "all")
    with pytest.warns(TruncationWarning):
        got = harness.collect_bias_heatmap(model, docs)
    with pytest.warns(TruncationWarning):
        expect = full_rows_bias_heatmap(model, docs)
    assert got.encode() == expect.encode()


@pytest.mark.filterwarnings("ignore::structrel.batching.TruncationWarning")
class TestPackWithoutPairs:
    """A pack of one-entity and token-less documents runs no encoder."""

    @staticmethod
    def pairless(monkeypatch):
        docs = [doc for doc in corpus() if len(doc.entities) < 2]
        model = harness.build_model(small_config(max_len=MAX_LEN), docs,
                                    SCHEMA)
        pack = Pack(tuple(harness._encode(model, docs)))
        assert pack.n_pairs == 0 and pack.structure.read_rows.size
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the encoder ran")

        monkeypatch.setattr(model_module, "encoder_forward", counted)
        return model, pack, calls

    def test_inference(self, monkeypatch):
        model, pack, calls = self.pairless(monkeypatch)
        result = model.forward(pack)
        assert result.logits is None and result.hidden is None
        assert [r.logits for r in result.documents()] == [None] * len(
            pack.docs)
        assert calls == []

    def test_training(self, monkeypatch):
        model, pack, calls = self.pairless(monkeypatch)
        mean = harness._backward_batch(model, pack.docs, step=1, epoch=0)
        assert mean == 0.0 and calls == []
        assert all(p.tensor.grad is None for p in model.store)

    def test_an_over_length_document_is_still_refused(self, monkeypatch):
        model, pack, calls = self.pairless(monkeypatch)
        long_doc = Document("long", (tuple(f"t{i}" for i in range(20)),),
                            (), ())
        enc, = harness.encode_documents([long_doc], model.vocab,
                                        model.etype_to_index, 8, 64)
        with pytest.raises(ValueError, match="max_len"):
            model.forward(Pack(pack.docs + (enc,)))
        assert calls == []


# ---- the nodes on a subset of rows, by finite differences ----------------


def structures(seed: int, sizes, reads) -> PackedStructure:
    rng = np.random.default_rng(seed)
    return PackedStructure.of(
        StructureMatrix(f"s{i}", random_symmetric_codes(rng, n), read)
        for i, (n, read) in enumerate(zip(sizes, reads)))


# a subset of rows; an empty subset; a document without read rows between
# two with them, and a document without tokens
READ_SETS = {
    "subset": ([6], [[0, 2, 3]]),
    "empty": ([5], [[]]),
    "none-in-the-middle": ([4, 5, 0, 3], [[1, 3], [], [], [0, 1, 2]]),
}


@pytest.mark.parametrize("mode", ["none", "decomp", "biaffine"])
@pytest.mark.parametrize("case", sorted(READ_SETS))
def test_grad_check_the_attention_on_read_rows(mode, case):
    sizes, reads = READ_SETS[case]
    structure = structures(1, sizes, reads)
    rows = structure.read_rows
    cfg = encoder_config(mode, heads=2, d_model=4)
    store = make_store(cfg, 2)
    rng = np.random.default_rng(4)
    randomize_bias_params(store, rng)
    x = Parameter("x", Tensor(rng.normal(size=(structure.n, 4))))
    readout = Tensor(rng.normal(size=(rows.size, 4)))

    def build():
        node = structured_attention(store, x.tensor, structure, 0, cfg,
                                    read=True)
        return sum_all(mul(node, readout))

    full = structured_attention(store, x.tensor, structure, 0, cfg)
    part = structured_attention(store, x.tensor, structure, 0, cfg,
                                read=True)
    assert part.shape == (rows.size, 4)
    np.testing.assert_allclose(part.values, full.values[rows], rtol=1e-12,
                               atol=1e-12)
    err = grad_check(build, [x, *store], step=1e-5,
                     max_elements_per_param=4)
    assert err < 1e-5, err


@pytest.mark.parametrize("rows", [[0, 2, 3], []], ids=["subset", "empty"])
def test_grad_check_the_tail_on_read_rows(rows):
    store, _, params = tail_inputs(8, n=5)
    rows = np.array(rows, dtype=np.int64)
    x, every_head = params[0], params[1]
    heads = Parameter("heads", Tensor(every_head.values[rows]))
    params[1] = heads
    readout = Tensor(np.random.default_rng(9).normal(size=(rows.size, 4)))

    def build():
        out = block_tail(store, x.tensor, heads.tensor, 0, rows)
        return sum_all(mul(out, readout))

    part = block_tail(store, x.tensor, heads.tensor, 0, rows)
    full = block_tail(store, x.tensor, every_head.tensor, 0)
    assert part.values.tobytes() == full.values[rows].tobytes()
    err = grad_check(build, params)
    assert err < 1e-5, err


class TestReadCells:
    """A structure's read tokens and the cells of their queries."""

    @staticmethod
    def codes(n: int = 7) -> np.ndarray:
        return random_symmetric_codes(np.random.default_rng(5), n)

    def test_are_the_read_queries_cells_renumbered(self):
        codes, read = self.codes(), np.array([1, 4, 5])
        S = StructureMatrix("s", codes, read)
        plan = S.read_cells
        assert plan is S.read_cells and (plan.queries, plan.n) == (3, 7)
        rows, cols = np.nonzero(codes[read])
        assert plan.cells[0].tolist() == rows.tolist()
        assert plan.cells[1].tolist() == cols.tolist()
        assert plan.cells[2].tolist() == (codes[read][rows, cols]
                                          - 1).tolist()
        # the slots of a grid whose first rows are the read queries'
        sub = np.zeros((7, 7), np.int8)
        sub[:3] = codes[read]
        assert plan.slots.used.tolist() == StructureMatrix(
            "sub", sub).slots.used.tolist()
        for arr in (*plan.cells, plan.slots.used, plan.slots.flat):
            assert not arr.flags.writeable

    def test_a_structure_and_its_plan_form_no_cycle(self):
        # freed by reference counting when a pack is dropped, not only
        # when the cyclic garbage collector runs
        S = StructureMatrix("s", self.codes(), [1, 4])
        S.read_cells.slots
        every = StructureMatrix("t", self.codes())
        every.read_cells.slots
        refs = [weakref.ref(S), weakref.ref(every)]
        gc.disable()
        try:
            del S, every
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_a_matrix_whose_every_token_is_read_is_its_own_plan(self):
        S = StructureMatrix("s", self.codes())
        assert S.read.tolist() == list(range(7)) and S.read_cells is S
        assert StructureMatrix("s", S.codes, S.read).read_cells.n == 7

    @pytest.mark.parametrize("read", [[2, 1], [0, 0], [-1], [7], [[0]]])
    def test_bad_read_tokens_are_refused(self, read):
        with pytest.raises(ValueError, match="read tokens"):
            StructureMatrix("s", self.codes(), read)

    def test_ablation_keeps_the_read_tokens(self):
        S = StructureMatrix("s", self.codes(), [0, 3])
        assert apply_ablation(S, STRUCTURED_TYPES[:2]).read.tolist() == [0, 3]

    def test_a_pack_stacks_them_as_rows(self):
        codes = self.codes()
        packed = PackedStructure.of([
            StructureMatrix("a", codes[:3, :3], [0, 2]),
            StructureMatrix("b", codes[:0, :0]),
            StructureMatrix("c", codes[:2, :2], []),
            StructureMatrix("d", codes[:4, :4], [1])])
        assert packed.read_rows.tolist() == [0, 2, 6]
        assert packed.read_bounds.tolist() == [0, 2, 2, 2, 3]
        assert not packed.read_rows.flags.writeable
