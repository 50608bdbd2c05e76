"""Scratch buffers (``encoder.scratch``) serve only the attention and hold
only temporaries that die inside the call that asks for them: no graph
value, gradient, parameter or optimizer state lives in one, graphs built
before either's backward give the gradients they give alone, and no
scratch array is read before it is written."""
import numpy as np
import pytest

from structrel import autodiff, encoder, harness
from structrel.batching import Pack
from structrel.synth import SynthSpec, generate_synthetic

from test_harness import small_config

MODES = ["biaffine", "decomp"]
DTYPES = ["float32", "float64"]


def setup(mode: str):
    docs = generate_synthetic(SynthSpec(n_docs=4, seed=7))
    config = small_config(layers=2, heads=2, mode=mode)
    model = harness.build_model(config, docs)
    encs = [harness._encode(model, doc) for doc in docs]
    encs = [enc for enc in encs if enc.n_entities >= 2]
    assert len(encs) >= 2 and all(enc.structure.cells[0].size for enc in encs)
    return model, encs


def loss_of(model, *encs):
    """The loss of the encodings run as one pack."""
    return model.compute_loss(model.forward(Pack(encs)))


def graph_values(root) -> list[np.ndarray]:
    seen, stack, values = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        values.append(node.values)
        stack.extend(node._parents)
    return values


def parameter_grads(model) -> dict:
    return {p.name: None if p.tensor.grad is None else p.tensor.grad.copy()
            for p in model.store}


def clear_grads(model) -> None:
    for p in model.store:
        p.tensor.grad = None


def assert_same(got: dict, expect: dict) -> None:
    assert got.keys() == expect.keys()
    for name in expect:
        if expect[name] is None:
            assert got[name] is None, name
        else:
            assert got[name].tobytes() == expect[name].tobytes(), name


@pytest.mark.parametrize("compute_dtype", DTYPES, indirect=True)
@pytest.mark.parametrize("mode", MODES)
def test_nothing_kept_lives_in_a_scratch_buffer(mode, compute_dtype,
                                                monkeypatch):
    monkeypatch.setattr(encoder, "_SCRATCH", {})
    model, encs = setup(mode)
    optimizer = model.make_optimizer()
    optimizer.zero_grad()
    accumulated = []
    original = autodiff.Tensor._accumulate

    def watched(self, grad):
        original(self, grad)
        accumulated.append(self.grad)

    monkeypatch.setattr(autodiff.Tensor, "_accumulate", watched)
    kept = []
    for pack in [(enc,) for enc in encs] + [tuple(encs)]:
        loss = loss_of(model, *pack)
        kept += graph_values(loss)
        loss.backward()
    optimizer.step()
    kept += accumulated
    kept += [optimizer.values, optimizer.grads, optimizer.m, optimizer.v]
    for p in model.store:
        kept += [p.values, p.tensor.grad]
    # only the attention asks for scratch: the relation head and Adam own
    # their arrays
    used = {"attn.d_qkv", "attn.d_scores"}
    if mode == "biaffine":
        used |= {"attn.qa", "attn.grid", "attn.d_grid", "attn.d_qa"}
    assert encoder._SCRATCH.keys() == {(name, compute_dtype) for name in used}
    for key, buf in encoder._SCRATCH.items():
        assert not any(np.shares_memory(a, buf) for a in kept), key


@pytest.mark.parametrize("compute_dtype", DTYPES, indirect=True)
@pytest.mark.parametrize("mode", MODES)
def test_interleaved_graphs_give_the_sequential_gradients(mode,
                                                          compute_dtype):
    model, encs = setup(mode)
    a, b = encs[:2]
    alone = {}
    for name, enc in (("a", a), ("b", b)):
        clear_grads(model)
        loss = loss_of(model, enc)
        alone[name] = (loss.values.tobytes(), None)
        loss.backward()
        alone[name] = (alone[name][0], parameter_grads(model))
    # forward A, forward B, backward B, backward A
    clear_grads(model)
    loss_a = loss_of(model, a)
    loss_b = loss_of(model, b)
    assert loss_a.values.tobytes() == alone["a"][0]
    assert loss_b.values.tobytes() == alone["b"][0]
    loss_b.backward()
    assert_same(parameter_grads(model), alone["b"][1])
    clear_grads(model)
    loss_a.backward()
    assert_same(parameter_grads(model), alone["a"][1])


def two_steps(mode: str) -> tuple[list[bytes], list[dict], dict]:
    """Losses of two Adam steps, then the trained model's logits;
    the gradients of each step; the trained parameters."""
    model, encs = setup(mode)
    optimizer = model.make_optimizer()
    outputs, grads = [], []
    for _ in range(2):
        optimizer.zero_grad()
        for enc in encs:
            loss = loss_of(model, enc)
            outputs.append(loss.values.tobytes())
            loss.backward()
        grads.append(parameter_grads(model))
        optimizer.step()
    for enc in encs:
        outputs.append(model.forward(Pack((enc,))).logits.values.tobytes())
    return outputs, grads, model.parameter_arrays()


@pytest.mark.parametrize("compute_dtype", DTYPES, indirect=True)
@pytest.mark.parametrize("mode", MODES)
def test_nan_filled_scratch_changes_nothing(mode, compute_dtype, monkeypatch):
    clean = two_steps(mode)
    real = encoder.scratch
    handed = []

    def poisoned(name, shape, dtype):
        view = real(name, shape, dtype)
        encoder._SCRATCH[name, np.dtype(dtype)].fill(np.nan)
        handed.append(name)
        return view

    monkeypatch.setattr(encoder, "scratch", poisoned)
    outputs, grads, params = two_steps(mode)
    assert {"attn.d_qkv", "attn.d_scores"} <= set(handed)
    assert outputs == clean[0]
    for got, expect in zip(grads, clean[1]):
        assert_same(got, expect)
    assert_same(params, clean[2])
