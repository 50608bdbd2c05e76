"""The compute dtype: models compute in float32, and in float64 where a
test sets ``model.COMPUTE_DTYPE`` to it for exact comparisons.

A float64 model reproduces the all-float64 code to rounding (the
relation head has since been factored, which sums in another order) and
its own pinned losses exactly, a float32 model
makes no float64 array anywhere it keeps one, and the float64-only
tools (probabilities, finite differences) hold to float64."""
import numpy as np
import pytest

from structrel import encoder, harness
from structrel.autodiff import (
    ParameterStore,
    Tensor,
    grad_check,
    sigmoid,
)
from structrel import model as model_module
from structrel.config import ModelConfig
from structrel.corpus import Document, Entity, Mention
from structrel.synth import SynthSpec, generate_synthetic

from conftest import float64
from test_harness import small_config
from reference_ops import sum_all

# Per-epoch training losses of the code before float32 compute, when
# every array was float64, for the run of ``three_epoch_losses``.
FLOAT64_LOSSES = {
    "biaffine": ["75.00107278567437", "28.64352221029214",
                 "17.984173934591183"],
    "decomp": ["75.09838592359552", "28.692550894242984",
               "17.859254643104418"],
}

# The same run's float64 losses with the factored relation head
# (``model.pair_scores``), which sums the head's products in another
# order than that code's per-pair ``e_s @ W``, with the decomposed
# bias's gradients summed per slot by ``np.bincount``, one cell after
# another, where a segment sum added them pairwise, with the embedding
# node adding each token's gradient straight into its table rows, where
# ``take_rows`` summed a document's tokens per row first and added the
# sums, and with each batch run in packs of documents, whose row-wise
# products, parameter gradients and loss sum over all the pack's rows
# at once: the biaffine run's last loss and the decomp run's second move
# by a unit or two in the last place.  The block tails, the loss node
# and the flat Adam step alone leave every loss bit-equal.
FACTORED_HEAD_LOSSES = {
    "biaffine": ["75.00107278567437", "28.64352221029214",
                 "17.98417393459119"],
    "decomp": ["75.09838592359552", "28.692550894242988",
               "17.859254643104418"],
}


def three_epoch_losses(mode: str) -> list[str]:
    docs = generate_synthetic(SynthSpec(n_docs=12, seed=1))
    config = ModelConfig(layers=2, heads=2, d_model=16, d_dist=4,
                         max_len=32, coref_cap=16, epochs=3, batch_size=4,
                         seed=0, mode=mode)
    return [repr(entry.train_loss)
            for entry in harness.train(config, docs[:9]).log]


@float64
@pytest.mark.parametrize("mode", sorted(FLOAT64_LOSSES))
def test_float64_training_reproduces_the_all_float64_losses(mode):
    losses = three_epoch_losses(mode)
    assert losses == FACTORED_HEAD_LOSSES[mode]
    assert np.allclose([float(x) for x in losses],
                       [float(x) for x in FLOAT64_LOSSES[mode]],
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", sorted(FLOAT64_LOSSES))
def test_float32_training_moves_the_losses_by_rounding_only(mode):
    assert model_module.COMPUTE_DTYPE == np.float32
    got = [float(x) for x in three_epoch_losses(mode)]
    expect = [float(x) for x in FLOAT64_LOSSES[mode]]
    assert got != expect
    assert np.allclose(got, expect, rtol=1e-5, atol=0.0)


@pytest.mark.parametrize("mode", ["none", "biaffine", "decomp"])
def test_one_float32_step_keeps_everything_float32(mode, monkeypatch):
    docs = generate_synthetic(SynthSpec(n_docs=4, seed=7))
    model = harness.build_model(small_config(layers=2, mode=mode), docs)
    # one document with a single entity, whose loss is a zero leaf
    solo = Document("solo", (("a", "b"),),
                    (Entity("ENT", (Mention(0, 0, 1, "a"),)),), ())
    encs = [harness._encode(model, doc) for doc in [*docs, solo]]
    assert sum(enc.n_entities >= 2 for enc in encs) >= 2
    values, grads, handed, encoder_arrays = [], [], [], []
    init = Tensor.__init__
    accumulate, accumulate_rows = Tensor._accumulate, Tensor._accumulate_rows

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        values.append(self.values)

    # a float64 gradient handed to a float32 node is cast down when it is
    # stored, so the arrays handed over are recorded as well
    def recorded_accumulate(self, grad):
        handed.append(grad)
        accumulate(self, grad)
        grads.append(self.grad)

    def recorded_accumulate_rows(self, rows, grad):
        handed.append(grad)
        accumulate_rows(self, rows, grad)
        grads.append(self.grad)

    def recorded(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            for part in out if isinstance(out, tuple) else (out,):
                if part is not None:
                    encoder_arrays.append(getattr(part, "values", part))
            return out
        return wrapper

    # the encoder's arrays that are no graph value
    for name in ("project_qkv", "structured_scores", "attend", "type_bias"):
        monkeypatch.setattr(encoder, name, recorded(getattr(encoder, name)))
    monkeypatch.setattr(Tensor, "__init__", recorded_init)
    monkeypatch.setattr(Tensor, "_accumulate", recorded_accumulate)
    monkeypatch.setattr(Tensor, "_accumulate_rows", recorded_accumulate_rows)
    optimizer = model.make_optimizer()
    optimizer.zero_grad()
    harness._backward_batch(model, encs, step=0, epoch=0)
    optimizer.step()
    kept = {"graph value": values, "gradient": grads,
            "gradient handed to a node": handed,
            "encoder array": encoder_arrays}
    kept["parameter"] = [p.values for p in model.store]
    kept["parameter gradient"] = [p.tensor.grad for p in model.store]
    kept["Adam array"] = [optimizer.values, optimizer.grads, optimizer.m,
                          optimizer.v, *optimizer._work]
    assert all(kept.values())
    for what, group in kept.items():
        assert {a.dtype for a in group} == {np.dtype(np.float32)}, what


def test_sigmoid_of_large_float32_logits_stays_below_one():
    probs = sigmoid(np.array([17.0, 20.0, 25.0], dtype=np.float32))
    assert probs.dtype == np.float64
    assert len(set(probs.tolist())) == 3
    assert (probs < 1.0).all()
    # the same formula in float32 rounds all three to 1
    x = np.array([17.0, 20.0, 25.0], dtype=np.float32)
    assert (np.float32(1.0) / (np.float32(1.0) + np.exp(-x)) == 1.0).all()


def test_grad_check_refuses_a_float32_parameter():
    store = ParameterStore("float32")
    p = store.create("w", np.ones(3))
    with pytest.raises(ValueError, match=r"grad_check: parameter 'w' is "
                                         r"float32, not float64"):
        grad_check(lambda: sum_all(p.tensor), [p])


class TestStoreAndValues:
    def test_store_casts_to_its_dtype_and_refuses_others(self):
        for dtype in (np.float32, np.float64):
            store = ParameterStore(dtype)
            assert store.create("w", [1, 2]).values.dtype == dtype
        with pytest.raises(ValueError, match="float32 or float64, got float16"):
            ParameterStore("float16")

    def test_values_keep_float32_and_float64_and_widen_the_rest(self):
        for dtype in (np.float32, np.float64):
            assert Tensor(np.zeros(2, dtype=dtype)).values.dtype == dtype
        for values in ([1, 2], np.zeros(2, dtype=np.float16),
                       np.ones(2, dtype=bool), 3, 0.5):
            assert Tensor(values).values.dtype == np.float64
        assert Tensor(np.zeros((), np.float32)).values.dtype == np.float32
