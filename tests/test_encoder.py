import math

import numpy as np
import pytest

from structrel.autodiff import (
    Parameter,
    ParameterStore,
    Tensor,
    grad_check,
)
from structrel import encoder, harness
from structrel.batching import Pack
from structrel.config import ModelConfig
from structrel.encoder import (
    TAIL_PARAMS,
    BiasRecorder,
    N_TYPES,
    attend,
    block_tail,
    encoder_forward,
    export_bias_heatmap,
    init_encoder_params,
    project_qkv,
    structured_attention,
    structured_scores,
    type_bias,
)
from structrel.structure import (
    STRUCTURED_TYPES,
    DependencyType,
    PackedStructure,
    StructureMatrix,
    apply_ablation,
    build_structure_matrix,
)
from structrel.synth import SynthSpec, generate_synthetic

from conftest import random_document, raw_scores
from reference_ops import constant, mul, reference_block_tail, sum_all
from test_harness import small_config

D = DependencyType


def encoder_config(mode="none", layers=1, heads=1, d_model=4,
                   structured_layers="all", **toggles) -> ModelConfig:
    return ModelConfig(layers=layers, heads=heads, d_model=d_model,
                       mode=mode, structured_layers=structured_layers,
                       **toggles)


def make_store(cfg: ModelConfig, seed: int = 0) -> ParameterStore:
    store = ParameterStore(np.float64)
    init_encoder_params(store, np.random.default_rng(seed), cfg)
    return store


def fixture_structure(doc_fixture) -> StructureMatrix:
    return build_structure_matrix(doc_fixture)


def all_na(n: int) -> StructureMatrix:
    return StructureMatrix("na", np.zeros((n, n), dtype=np.int8))


def packed(*matrices: StructureMatrix) -> PackedStructure:
    """The structures as the encoder takes them: their documents' tokens
    stacked as rows, in order."""
    return PackedStructure.of(matrices)


# Dense reference: the bias of one type over every query/key pair, then
# masked by that type's cells and summed over types.  The encoder computes
# the same values at the structured cells only.

def biaffine_bias(q, k, A, b=None):
    out = q @ A @ k.T
    return out if b is None else out + b


def decomp_bias(q, k, qvec=None, kvec=None, b=None):
    out = np.zeros((q.shape[0], k.shape[0]))
    if qvec is not None:
        out = out + q @ qvec
    if kvec is not None:
        out = out + (k @ kvec).T
    if b is not None:
        out = out + b
    return out


def bias_view(store, layer, head, dep, suffix):
    """One head's parameter of one dependency type, a view into the layer's
    stacked array: ``A`` (d_h, d_h), ``qvec`` and ``kvec`` (d_h, 1), ``b``
    a 0-d array."""
    s = STRUCTURED_TYPES.index(dep)
    stacked = store[f"layer{layer}.bias.{suffix}"].values[head]
    if suffix == "b":
        return stacked[s, ...]
    width = stacked.shape[1] // N_TYPES
    return stacked[:, s * width:(s + 1) * width]


def projection(store, layer, head, heads, name):
    """One head's (d, d_h) projection, a view into the layer's ``wqkv``."""
    return store[f"layer{layer}.wqkv"].values[
        ("wq", "wk", "wv").index(name) * heads + head]


def dense_bias(store, q, k, layer, head, cfg, codes):
    total = np.zeros(codes.shape)
    for dep in STRUCTURED_TYPES:

        def param(suffix, on):
            return bias_view(store, layer, head, dep, suffix) if on else None

        if cfg.bias_core:
            term = biaffine_bias(q, k, param("A", True),
                                 param("b", cfg.bias_prior))
        else:
            term = decomp_bias(q, k, param("qvec", cfg.bias_query),
                               param("kvec", cfg.bias_key),
                               param("b", cfg.bias_prior))
        total += (codes == dep.value) * term
    return total


def random_symmetric_codes(rng, n):
    codes = rng.integers(0, 6, size=(n, n)).astype(np.int8)
    return np.triu(codes) + np.triu(codes, 1).T


def randomize_bias_params(store, rng, scale=0.5):
    for p in store:
        if ".bias." in p.name:
            p.tensor.values = rng.normal(size=p.values.shape) * scale


def set_param(store, dep, suffix, values):
    bias_view(store, 0, 0, dep, suffix)[...] = np.asarray(values, dtype=float)


def one_cell(dep: DependencyType) -> StructureMatrix:
    return StructureMatrix("one", [[dep]])


BIAS_FORMS = [
    dict(mode="biaffine", bias_core=True, bias_prior=True),
    dict(mode="biaffine", bias_core=True, bias_prior=False),
    dict(mode="biaffine", bias_core=False, bias_prior=True),
] + [
    dict(mode="decomp", bias_query=qc, bias_key=kc, bias_prior=pr)
    for qc in (False, True) for kc in (False, True) for pr in (False, True)
    if qc or kc or pr
]


def form_id(form: dict) -> str:
    return "-".join(f"{k}={v}" for k, v in form.items())


class TestTransformation:
    def test_mode_none_forces_toggles_off(self):
        with pytest.raises(ValueError, match="admits no bias terms"):
            ModelConfig(mode="none", bias_prior=True)

    def test_mode_term_compatibility(self):
        with pytest.raises(ValueError, match="belong to decomp"):
            ModelConfig(mode="biaffine", bias_query=True)
        with pytest.raises(ValueError, match="belongs to biaffine"):
            ModelConfig(mode="decomp", bias_core=True)
        with pytest.raises(ValueError, match="unknown transformation mode"):
            ModelConfig(mode="weird")

    def test_active_flag(self):
        # a layer receives bias parameters only when some term is on
        def has_bias(cfg):
            return any(".bias." in p.name for p in make_store(cfg))

        assert not has_bias(encoder_config("none"))
        assert has_bias(encoder_config("biaffine"))
        assert not has_bias(encoder_config("biaffine", bias_core=False,
                                           bias_prior=False))


def head_scores(store, q, k, structure, cfg, layer=0, recorder=None):
    """One head's structured scores, its (n, d_h) query and key passed as a
    one-head stack."""
    scores, _ = structured_scores(store, q[None], k[None], structure, layer,
                                  cfg, recorder=recorder)
    return scores[0]


def head_bias(store, q, k, structure, cfg):
    """One head's cell biases, its query and key passed as a one-head
    stack."""
    return type_bias(store, q[None], k[None], 0, structure, cfg).values[0]


class TestProjections:
    def test_identity_slice_projection(self):
        store = make_store(encoder_config(heads=2, d_model=4))
        eye_slice = np.zeros((4, 2))
        eye_slice[0, 0] = eye_slice[1, 1] = 1.0
        projection(store, 0, 0, 2, "wq")[...] = eye_slice
        x = np.arange(8, dtype=float).reshape(2, 4)
        q = project_qkv(x, store["layer0.wqkv"].values)[0]
        assert np.array_equal(q, x[:, :2])

    def test_zero_input_gives_zero_qkv(self):
        store = make_store(encoder_config(d_model=4))
        assert not project_qkv(np.zeros((3, 4)),
                               store["layer0.wqkv"].values).any()

    def test_shapes(self):
        store = make_store(encoder_config(heads=2, d_model=8))
        w = store["layer0.wqkv"].values
        assert w.shape == (6, 8, 4)
        x = np.random.default_rng(0).normal(size=(5, 8))
        qkv = project_qkv(x, w)
        assert qkv.shape == (6, 5, 4)
        for slab, w_slice in zip(qkv, w):
            assert slab.tobytes() == (x @ w_slice).tobytes()

    def test_bias_terms_stacked_per_layer(self):
        # one zero-initialised array per enabled term, every head's five
        # types side by side, and none in an unstructured layer
        for form in BIAS_FORMS:
            cfg = encoder_config(layers=2, heads=3, d_model=6,
                                 structured_layers="1", **form)
            store = make_store(cfg)
            shapes = {"A": (3, 2, 10), "qvec": (3, 2, 5), "kvec": (3, 2, 5),
                      "b": (3, 5)}
            on = {"A": cfg.bias_core, "qvec": cfg.bias_query,
                  "kvec": cfg.bias_key, "b": cfg.bias_prior}
            biases = {p.name: p.values for p in store if ".bias." in p.name}
            assert biases.keys() == {f"layer1.bias.{s}" for s in shapes
                                     if on[s]}
            for name, values in biases.items():
                assert values.shape == shapes[name.rsplit(".", 1)[1]]
                assert not values.any()


class TestRawScores:
    # Without structure the scores are the scaled dot products.
    @staticmethod
    def scores(q, k):
        cfg = encoder_config(d_model=q.shape[1])
        return head_scores(make_store(cfg), q, k, all_na(q.shape[0]), cfg)

    def test_zero_vectors(self):
        assert not self.scores(np.zeros((2, 4)), np.zeros((2, 4))).any()

    def test_all_ones_d4(self):
        q = np.ones((1, 4))
        assert self.scores(q, q)[0, 0] == pytest.approx(2.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        q, k = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        e = self.scores(q, k)
        for i in range(5):
            for j in range(5):
                assert e[i, j] == pytest.approx(
                    float(q[i] @ k[j]) / math.sqrt(6), rel=1e-12
                )


class TestBiasForms:
    def test_biaffine_zero_parameters(self):
        cfg = encoder_config("biaffine", d_model=2)
        store = make_store(cfg)
        q, k = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        for dep in STRUCTURED_TYPES:
            assert head_bias(store, q, k, one_cell(dep), cfg).tolist() == [0.0]

    def test_biaffine_identity_reduces_to_dot(self):
        cfg = encoder_config("biaffine", d_model=2)
        store = make_store(cfg)
        dep = D.INTER_COREF
        set_param(store, dep, "A", np.eye(2))
        set_param(store, dep, "b", 0.5)
        q, k = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        out = head_bias(store, q, k, one_cell(dep), cfg)
        assert out[0] == pytest.approx(11.5)

    def test_biaffine_matches_triple_loop(self):
        rng = np.random.default_rng(9)
        cfg = encoder_config("biaffine", d_model=3)
        store = make_store(cfg)
        randomize_bias_params(store, rng, scale=1.0)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        codes = rng.integers(1, 6, size=(4, 4)).astype(np.int8)
        S = StructureMatrix("s", codes)
        out = head_bias(store, q, k, S, cfg)
        for c, (i, j) in enumerate(zip(*S.cells[:2])):
            dep = D(codes[i, j])
            A = bias_view(store, 0, 0, dep, "A")
            b = bias_view(store, 0, 0, dep, "b")
            expect = sum(
                q[i, a] * A[a, e] * k[j, e]
                for a in range(3)
                for e in range(3)
            ) + b
            assert out[c] == pytest.approx(expect, rel=1e-12)

    def test_heads_read_their_own_parameters(self):
        # every head's values equal that head computed alone
        rng = np.random.default_rng(12)
        for form in BIAS_FORMS:
            cfg = encoder_config(heads=3, d_model=6, **form)
            store = make_store(cfg)
            randomize_bias_params(store, rng)
            q, k = rng.normal(size=(3, 5, 2)), rng.normal(size=(3, 5, 2))
            S = StructureMatrix("s", random_symmetric_codes(rng, 5))
            out = type_bias(store, q, k, 0, S, cfg).values
            assert out.shape == (3, S.cells[0].size)
            for h in range(3):
                expect = dense_bias(store, q[h], k[h], 0, h, cfg, S.codes)
                np.testing.assert_allclose(out[h], expect[S.cells[:2]],
                                           rtol=1e-12, atol=1e-12)

    def test_decomp_all_zero(self):
        cfg = encoder_config("decomp", d_model=2)
        store = make_store(cfg)
        q, k = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        for dep in STRUCTURED_TYPES:
            assert head_bias(store, q, k, one_cell(dep), cfg).tolist() == [0.0]

    def test_decomp_worked_example(self):
        # query side dotted with [1,1], key side with [0,1]:
        # (1 + 2) + 4 + 0 = 7
        cfg = encoder_config("decomp", d_model=2)
        store = make_store(cfg)
        dep = D.INTRA_NE
        set_param(store, dep, "qvec", [[1.0], [1.0]])
        set_param(store, dep, "kvec", [[0.0], [1.0]])
        q, k = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        out = head_bias(store, q, k, one_cell(dep), cfg)
        assert out[0] == pytest.approx(7.0)

    def test_decomp_prior_only_is_constant(self):
        rng = np.random.default_rng(1)
        cfg = encoder_config("decomp", d_model=2, bias_query=False,
                             bias_key=False)
        store = make_store(cfg)
        for dep in STRUCTURED_TYPES:
            set_param(store, dep, "b", 0.3)
        q, k = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        S = StructureMatrix("s", rng.integers(1, 6, size=(3, 3)))
        out = head_bias(store, q, k, S, cfg)
        assert out.shape == (9,)
        assert out == pytest.approx(0.3)

    def test_decomp_without_any_term_leaves_raw_scores(self):
        # with no term on no layer is biased, so type_bias is never asked
        cfg = encoder_config("decomp", d_model=2, bias_query=False,
                             bias_key=False, bias_prior=False)
        store = make_store(cfg)
        q, k = np.array([[[1.0, 2.0]]]), np.array([[[3.0, 4.0]]])
        scores, bias = structured_scores(store, q, k, one_cell(D.INTRA_NE),
                                         0, cfg)
        assert bias is None
        assert scores.tolist() == [[[11.0 * (1.0 / math.sqrt(2))]]]

    def test_na_rejected(self, monkeypatch):
        # NA cells never reach type_bias: it sees exactly the non-NA cells,
        # each with its own type index
        import structrel.encoder as encoder_module

        cfg = encoder_config("biaffine", d_model=4)
        store = make_store(cfg)
        rng = np.random.default_rng(4)
        codes = random_symmetric_codes(rng, 7)
        codes[0, :] = codes[:, 0] = D.NA
        S = StructureMatrix("s", codes)
        seen = []

        def spy(store, q, k, layer, structure, cfg):
            seen.append(structure.cells)
            return type_bias(store, q, k, layer, structure, cfg)

        monkeypatch.setattr(encoder_module, "type_bias", spy)
        q = rng.normal(size=(7, 4))
        head_scores(store, q, q, S, cfg)
        (rows, cols, types), = seen
        assert rows.size == np.count_nonzero(codes)
        assert np.all(codes[rows, cols] != D.NA)
        assert np.array_equal(codes[rows, cols], types + 1)


class TestStructuredScores:
    def _setup(self, mode: str, seed=0, n=6, d=4):
        cfg = encoder_config(mode, d_model=d)
        store = make_store(cfg, seed)
        rng = np.random.default_rng(seed + 100)
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(n, d))
        S = StructureMatrix("s", random_symmetric_codes(rng, n))
        return cfg, store, q, k, S

    def test_mode_none_equals_raw(self):
        cfg, store, q, k, S = self._setup("none")
        scores = head_scores(store, q, k, S, cfg)
        assert scores.tobytes() == raw_scores(q, k).tobytes()

    def test_zero_init_parameters_equal_raw(self):
        cfg, store, q, k, S = self._setup("biaffine")
        scores = head_scores(store, q, k, S, cfg)
        assert scores.tobytes() == raw_scores(q, k).tobytes()

    def test_all_na_bypasses_trained_parameters(self):
        cfg, store, q, k, _ = self._setup("biaffine")
        rng = np.random.default_rng(77)
        for dep in STRUCTURED_TYPES:
            set_param(store, dep, "A", rng.normal(size=(4, 4)))
            set_param(store, dep, "b", rng.normal())
        scores, bias = structured_scores(store, q[None], k[None], all_na(6),
                                         0, cfg)
        assert bias is None
        assert scores[0].tobytes() == raw_scores(q, k).tobytes()

    def test_bias_lands_only_on_matching_cells(self):
        cfg, store, q, k, S = self._setup("biaffine", seed=5)
        base = head_scores(store, q, k, S, cfg)
        delta = 0.37
        dep = D.INTRA_RELATE
        bias_view(store, 0, 0, dep, "b")[...] += delta
        bumped = head_scores(store, q, k, S, cfg)
        diff = bumped - base
        mask = S.codes == dep.value
        assert np.allclose(diff[mask], delta / math.sqrt(4))
        assert np.allclose(diff[~mask], 0.0)

    @pytest.mark.parametrize("form", BIAS_FORMS, ids=form_id)
    def test_matches_dense_reference(self, form):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(3, 12)), 6
            cfg = encoder_config(layers=2, heads=2, d_model=2 * d,
                                 structured_layers="1", **form)
            store = make_store(cfg, seed)
            randomize_bias_params(store, rng)
            codes = random_symmetric_codes(rng, n)
            q, k = rng.normal(size=(2, n, d)), rng.normal(size=(2, n, d))
            got, _ = structured_scores(store, q, k,
                                       StructureMatrix("s", codes), 1, cfg)
            for h in range(2):
                expect = (q[h] @ k[h].T
                          + dense_bias(store, q[h], k[h], 1, h, cfg, codes)
                          ) / math.sqrt(d)
                np.testing.assert_allclose(got[h], expect, rtol=1e-12,
                                           atol=1e-12)

    @pytest.mark.parametrize("mode", ["biaffine", "decomp"])
    def test_recorder_means_match_dense(self, mode):
        # per layer and type: the mean over every head's cells of that type,
        # and their number, against the dense bias of each head
        heads, n, dh = 3, 9, 4
        cfg = encoder_config(mode, layers=2, heads=heads, d_model=heads * dh)
        store = make_store(cfg, 3)
        rng = np.random.default_rng(8)
        randomize_bias_params(store, rng)
        S = StructureMatrix("s", random_symmetric_codes(rng, n))
        q, k = rng.normal(size=(2, heads, n, dh))
        recorder = BiasRecorder(cfg.layers)
        for layer in range(cfg.layers):
            structured_scores(store, q, k, S, layer, cfg, recorder=recorder)
        for layer in range(cfg.layers):
            dense = [dense_bias(store, q[h], k[h], layer, h, cfg, S.codes)
                     for h in range(heads)]
            for s, dep in enumerate(STRUCTURED_TYPES):
                mask = S.codes == dep.value
                assert recorder.counts[layer, s] == heads * int(mask.sum())
                if mask.any():
                    expect = np.mean([d[mask] for d in dense])
                    got = recorder.sums[layer, s] / recorder.counts[layer, s]
                    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
                else:
                    assert recorder.sums[layer, s] == 0.0

    def test_dimension_mismatch_rejected(self):
        cfg, store, q, k, _ = self._setup("none")
        with pytest.raises(ValueError, match="tokens"):
            head_scores(store, q, k, all_na(3), cfg)


class TestAttend:
    @staticmethod
    def attend_one(scores, v):
        return attend(np.array(scores, dtype=float)[None],
                      np.array(v, dtype=float)[None])[1][0]

    def test_softmax_uniform_case(self):
        weights, _ = attend(np.zeros((1, 1, 2)), np.zeros((1, 2, 1)))
        assert np.allclose(weights, [[[0.5, 0.5]]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        weights, _ = attend(rng.normal(size=(2, 6, 9)) * 10,
                            np.zeros((2, 9, 1)))
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 5))
        v = np.zeros((1, 5, 1))
        base, _ = attend(x.copy(), v)
        shifted, _ = attend(x + 123.456, v)
        assert np.allclose(base, shifted, atol=1e-12)

    def test_uniform_scores_average_values(self):
        z = self.attend_one(np.zeros((2, 2)), [[1.0, 3.0], [3.0, 5.0]])
        assert np.allclose(z, [[2.0, 4.0], [2.0, 4.0]])

    def test_dominant_score_selects_value(self):
        z = self.attend_one([[0.0, 200.0], [0.0, 0.0]],
                            [[1.0, 0.0], [0.0, 1.0]])
        assert z[0] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        scores, v = rng.normal(size=(4, 4)), rng.normal(size=(4, 3))
        z = self.attend_one(scores, v)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        for i in range(4):
            expect = sum(weights[i, j] * v[j] for j in range(4))
            assert np.allclose(z[i], expect)

    def test_softmax_overwrites_the_scores(self):
        scores = np.random.default_rng(2).normal(size=(2, 3, 3))
        weights, _ = attend(scores, np.ones((2, 3, 1)))
        assert weights is scores
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-12)


# The bias as the encoder computed it before the slot grid: every cell
# gathers its own ``q A`` row and key row, and each gradient is a segment
# sum over the cells grouped by query or key token and type.

def segment_sum(values, slot, n_slots):
    """Sum ``values`` (H, c, w) over the cells of each slot with
    ``np.add.reduceat``, cells in stable slot order: (H, n_slots, w)."""
    order = np.argsort(slot, kind="stable")
    ordered = slot[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    out = np.zeros((values.shape[0], n_slots, values.shape[2]))
    out[:, ordered[starts]] = np.add.reduceat(values[:, order], starts,
                                              axis=1)
    return out


def per_cell_bias(params, q, k, structure, grad):
    """The cell biases (H, c) and the gradients of ``q``, ``k`` and every
    bias parameter in ``params`` given ``grad`` (H, c) at the biases."""
    rows, cols, types = structure.cells
    heads, n, dh = q.shape
    row_slot, col_slot = rows * N_TYPES + types, cols * N_TYPES + types
    values = np.zeros((heads, rows.size))
    grads = {"q": np.zeros_like(q), "k": np.zeros_like(k)}
    g = grad[:, :, None]
    if "A" in params:
        a_cat = params["A"]
        qa = (q @ a_cat).reshape(heads, n * N_TYPES, dh)
        values += (qa[:, row_slot] * k[:, cols]).sum(axis=-1)
        d_qa = segment_sum(k[:, cols] * g, row_slot, n * N_TYPES)
        d_kq = segment_sum(q[:, rows] * g, col_slot, n * N_TYPES)
        d_qa = d_qa.reshape(heads, n, N_TYPES * dh)
        a_rows = (a_cat.reshape(heads, dh, N_TYPES, dh)
                  .transpose(0, 2, 1, 3).reshape(heads, N_TYPES * dh, dh))
        grads["q"] += d_qa @ a_cat.transpose(0, 2, 1)
        grads["k"] += d_kq.reshape(heads, n, N_TYPES * dh) @ a_rows
        grads["A"] = q.transpose(0, 2, 1) @ d_qa
    for suffix, side, slot in (("qvec", "q", row_slot),
                               ("kvec", "k", col_slot)):
        if suffix in params:
            x = q if side == "q" else k
            table = (x @ params[suffix]).reshape(heads, n * N_TYPES)
            values += table[:, slot]
            d_t = segment_sum(g, slot, n * N_TYPES).reshape(heads, n, N_TYPES)
            grads[side] += d_t @ params[suffix].transpose(0, 2, 1)
            grads[suffix] = x.transpose(0, 2, 1) @ d_t
    if "b" in params:
        values += params["b"][:, types]
        grads["b"] = segment_sum(g, types, N_TYPES)[:, :, 0]
    return values, grads


def synth_structure(seed: int) -> StructureMatrix:
    """The structure of a synthetic document of large-biaffine's shape:
    twelve entities, sentences of 40 to 50 tokens."""
    doc = generate_synthetic(SynthSpec(n_docs=1, seed=seed,
                                       entities_per_doc=12,
                                       sentence_len=(40, 50)))[0]
    return build_structure_matrix(doc)


def one_token_all_types() -> StructureMatrix:
    codes = random_symmetric_codes(np.random.default_rng(4), 7)
    codes[2, 1:6] = [1, 2, 3, 4, 5]
    return StructureMatrix("five", codes)


def single_cell() -> StructureMatrix:
    codes = np.zeros((4, 4), dtype=np.int8)
    codes[3, 1] = D.INTER_COREF
    return StructureMatrix("single", codes)


SLOT_STRUCTURES = {
    "synth": lambda: synth_structure(0),
    "one-token-all-types": one_token_all_types,
    "single-cell": single_cell,
    "intra-ne-ablated": lambda: apply_ablation(synth_structure(1),
                                               {D.INTRA_NE}),
}


class TestSlotGrid:
    @pytest.mark.parametrize("mode", ["biaffine", "decomp"])
    @pytest.mark.parametrize("name", sorted(SLOT_STRUCTURES))
    def test_matches_the_per_cell_reference(self, name, mode):
        S = SLOT_STRUCTURES[name]()
        if name == "one-token-all-types":
            assert len(set(S.slots.used.tolist()) & set(range(10, 15))) == 5
        if name == "intra-ne-ablated":
            assert S.cells[0].size and 0 not in S.cells[2]
        rng = np.random.default_rng(5)
        heads, d_model = (4, 64) if name == "synth" else (2, 8)
        cfg = encoder_config(mode, heads=heads, d_model=d_model)
        store = make_store(cfg)
        randomize_bias_params(store, rng)
        params = {p.name.rsplit(".", 1)[1]: p.values for p in store
                  if ".bias." in p.name}
        assert set(params) == ({"A", "b"} if mode == "biaffine"
                               else {"qvec", "kvec", "b"})
        dh = d_model // heads
        q, k = rng.normal(size=(2, heads, S.n, dh))
        grad = rng.normal(size=(heads, S.cells[0].size))
        ref_values, ref_grads = per_cell_bias(params, q, k, S, grad)
        bias = type_bias(store, q, k, 0, S, cfg)
        dq, dk = np.zeros_like(q), np.zeros_like(k)
        bias.backward(grad, q, k, dq, dk)
        got = {"values": bias.values, "q": dq, "k": dk}
        got.update({p.name.rsplit(".", 1)[1]: p.tensor.grad for p in store
                    if ".bias." in p.name})
        expect = {"values": ref_values, **ref_grads}
        assert got.keys() == expect.keys()
        for key, value in expect.items():
            assert got[key].dtype == np.float64
            scale = np.abs(value).max()
            assert scale > 0.0, key
            assert np.abs(got[key] - value).max() <= 1e-12 * scale, key

    def test_slots_hold_the_used_query_slots_and_every_cell(self):
        S = synth_structure(0)
        rows, cols, types = S.cells
        slot = rows * N_TYPES + types
        used, flat = S.slots.used, S.slots.flat
        assert used.tolist() == sorted(set(slot.tolist()))
        assert (used[flat // S.n] == slot).all()
        assert (flat % S.n == cols).all()
        assert np.unique(flat).size == flat.size
        assert used.size < S.n * N_TYPES

    def test_computed_once_and_read_only(self):
        S = synth_structure(0)
        assert S.slots is S.slots
        for arr in (S.slots.used, S.slots.flat):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("mode", ["none", "decomp"])
    def test_only_the_biaffine_core_builds_them(self, mode):
        S = one_token_all_types()
        cfg = encoder_config(mode, heads=2, d_model=8)
        store = make_store(cfg)
        randomize_bias_params(store, np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(S.n, 8)))
        sum_all(encoder_forward(store, x, packed(S), cfg)).backward()
        assert "slots" not in vars(S)
        cfg = encoder_config("biaffine", heads=2, d_model=8)
        sum_all(encoder_forward(make_store(cfg), x, packed(S), cfg)).backward()
        assert "slots" in vars(S)


def softmax(scores):
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def layer_norm_ref(m, gain, bias):
    mu = m.mean(axis=-1, keepdims=True)
    var = ((m - mu) ** 2).mean(axis=-1, keepdims=True)
    return (m - mu) / np.sqrt(var + 1e-5) * gain + bias


def reference_encoder(store, x, codes, cfg):
    """Per-head numpy reference of ``encoder_forward``: every head of every
    layer on its own, with the dense bias of the structured layers."""
    on = cfg.bias_core or cfg.bias_query or cfg.bias_key or cfg.bias_prior
    structured = cfg.resolve_structured_layers() if on else frozenset()

    def w(name):
        return store[name].values

    for l in range(cfg.layers):
        heads = []
        for h in range(cfg.heads):
            q, k, v = (x @ projection(store, l, h, cfg.heads, name)
                       for name in ("wq", "wk", "wv"))
            scores = q @ k.T
            if l in structured:
                scores = scores + dense_bias(store, q, k, l, h, cfg, codes)
            heads.append(softmax(scores / math.sqrt(q.shape[1])) @ v)
        merged = np.concatenate(heads, axis=1) @ w(f"layer{l}.wo")
        x = layer_norm_ref(x + merged, w(f"layer{l}.ln1.gain"),
                           w(f"layer{l}.ln1.bias"))
        hidden = np.maximum(x @ w(f"layer{l}.ffn.w1") + w(f"layer{l}.ffn.b1"),
                            0.0)
        ffn = hidden @ w(f"layer{l}.ffn.w2") + w(f"layer{l}.ffn.b2")
        x = layer_norm_ref(x + ffn, w(f"layer{l}.ln2.gain"),
                           w(f"layer{l}.ln2.bias"))
    return x


class TestStructuredAttention:
    @pytest.mark.parametrize("form", [dict(mode="none")] + BIAS_FORMS,
                             ids=form_id)
    def test_forward_matches_per_head_reference(self, form):
        for seed, layers in enumerate(("all", "1", "all")):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 12))
            cfg = encoder_config(layers=2, heads=2, d_model=8,
                                 structured_layers=layers, **form)
            store = make_store(cfg, seed)
            randomize_bias_params(store, rng)
            codes = random_symmetric_codes(rng, n)
            x = rng.normal(size=(n, 8))
            got = encoder_forward(store, Tensor(x),
                                  packed(StructureMatrix("s", codes)),
                                  cfg).values
            np.testing.assert_allclose(got, reference_encoder(store, x, codes,
                                                              cfg),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("form", [dict(mode="none")] + BIAS_FORMS,
                             ids=form_id)
    def test_a_pack_equals_its_documents_alone(self, form):
        # Stacked rows attend within their own document only: the pack's
        # output rows and input gradient are each document's, and its
        # parameter gradients their sum, to rounding.  A document without
        # tokens adds no row and no work.
        rng = np.random.default_rng(11)
        cfg = encoder_config(layers=2, heads=2, d_model=8, **form)
        store = make_store(cfg, 4)
        randomize_bias_params(store, rng)
        sizes = [5, 0, 9, 1, 7]
        matrices = [StructureMatrix(f"s{i}", random_symmetric_codes(rng, n))
                    for i, n in enumerate(sizes)]
        xs = [rng.normal(size=(n, 8)) for n in sizes]
        readouts = [rng.normal(size=(n, 8)) for n in sizes]

        def run(docs):
            x = Tensor(np.concatenate([xs[i] for i in docs]))
            out = encoder_forward(store, x, packed(*(matrices[i]
                                                     for i in docs)), cfg)
            readout = np.concatenate([readouts[i] for i in docs])
            sum_all(mul(out, Tensor(readout))).backward()
            return out.values, x.grad

        for p in store:
            p.tensor.grad = np.zeros_like(p.values)
        alone = [run([i]) for i in range(len(sizes))]
        expect = [np.concatenate(parts) for parts in zip(*alone)]
        expect += [p.tensor.grad.copy() for p in store]
        for p in store:
            p.tensor.grad = np.zeros_like(p.values)
        got = [*run(range(len(sizes))), *(p.tensor.grad for p in store)]
        names = ["values", "x"] + [p.name for p in store]
        for name, g, e in zip(names, got, expect):
            assert g.shape == e.shape, name
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max(), name

    @pytest.mark.parametrize("form", BIAS_FORMS, ids=form_id)
    def test_grad_check_every_parameter(self, form):
        # x is a parameter too, so the gradient a block hands to the block
        # below is checked along with the weights'
        rng = np.random.default_rng(7)
        n = 5
        cfg = encoder_config(layers=2, heads=2, d_model=4, ffn_mult=1,
                             **form)
        store = make_store(cfg, 3)
        randomize_bias_params(store, rng)
        S = StructureMatrix("s", random_symmetric_codes(rng, n))
        x = Parameter("x", Tensor(rng.normal(size=(n, 4))))
        readout = Tensor(rng.normal(size=(n, 4)))

        def build():
            return sum_all(mul(encoder_forward(store, x.tensor, packed(S),
                                               cfg),
                               readout))

        err = grad_check(build, [x, *store], step=1e-5,
                         max_elements_per_param=3)
        assert err < 1e-5

    def test_second_backward_through_one_node_is_refused(self,
                                                          two_sentence_doc):
        # the backward reuses the saved weights' storage
        S = fixture_structure(two_sentence_doc)
        cfg = encoder_config("biaffine", heads=2, d_model=8)
        store = make_store(cfg, 5)
        loss = sum_all(structured_attention(store, Tensor(np.ones((S.n, 8))),
                                            packed(S), 0, cfg))
        loss.backward()
        with pytest.raises(RuntimeError, match="spent"):
            loss.backward()

    @pytest.mark.parametrize("mode", ["biaffine", "decomp"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_structure_of_another_size_is_refused(self, two_sentence_doc,
                                                  mode, delta):
        # A smaller structure's cells all lie inside a longer document's
        # arrays, so this check is what keeps a structure of another
        # document from being read.
        S = fixture_structure(two_sentence_doc)
        cfg = encoder_config(mode, heads=2, d_model=8)
        store = make_store(cfg, 5)
        x = Tensor(np.ones((S.n + delta, 8)))
        with pytest.raises(ValueError, match="tokens"):
            structured_attention(store, x, packed(S), 0, cfg)

    def test_one_node_per_layer_with_all_parents(self, two_sentence_doc):
        S = fixture_structure(two_sentence_doc)
        cfg = encoder_config("decomp", layers=1, heads=2, d_model=8)
        store = make_store(cfg, 5)
        x = Tensor(np.ones((S.n, 8)))
        node = structured_attention(store, x, packed(S), 0, cfg)
        assert node.shape == (S.n, 8)
        expect = [x] + [p.tensor for p in store
                        if p.name == "layer0.wqkv"
                        or p.name.startswith("layer0.bias.")]
        assert len(expect) == 5  # x, wqkv, qvec, kvec, b
        assert {id(t) for t in node._parents} == {id(t) for t in expect}
        assert len(node._parents) == len(expect)


def tail_inputs(seed: int, n: int = 5, d: int = 4, ffn_mult: int = 2):
    """A one-layer store with random layer norm and feed-forward biases
    and gains, the block's input ``x`` and attention output ``heads`` as
    parameters, and a readout; the parameters in :func:`block_tail`'s
    parent order."""
    rng = np.random.default_rng(seed)
    store = make_store(encoder_config(d_model=d, ffn_mult=ffn_mult), seed)
    for name in ("ln1.gain", "ln1.bias", "ffn.b1", "ffn.b2", "ln2.gain",
                 "ln2.bias"):
        p = store[f"layer0.{name}"]
        p.values[...] = rng.normal(size=p.values.shape)
    x = Parameter("x", Tensor(rng.normal(size=(n, d))))
    heads = Parameter("heads", Tensor(rng.normal(size=(n, d))))
    readout = Tensor(rng.normal(size=(n, d)))
    params = [x, heads, *(store[f"layer0.{name}"] for name in TAIL_PARAMS)]
    return store, readout, params


def tail_values_and_grads(tail, store, readout, params) -> list[np.ndarray]:
    for p in params:
        p.tensor.grad = None
    out = tail(store, params[0].tensor, params[1].tensor, 0)
    sum_all(mul(out, readout)).backward()
    return [out.values] + [p.tensor.grad for p in params]


class TestBlockTail:
    """``block_tail`` against the graph ops it replaced, in float64."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_graph_ops(self, seed):
        store, readout, params = tail_inputs(seed, n=3 + seed)
        got = tail_values_and_grads(block_tail, store, readout, params)
        expect = tail_values_and_grads(reference_block_tail, store, readout,
                                       params)
        for name, g, e in zip(["value"] + [p.name for p in params], got,
                              expect):
            assert g.shape == e.shape, name
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max(), name

    def test_a_pre_activation_of_exactly_zero_passes_no_gradient(self):
        # hidden unit 2 sees zero weights and a zero bias, so its input is
        # exactly 0 on every token: ReLU's gradient there is 0, as the
        # graph op's, and its weights and bias take none
        store, readout, params = tail_inputs(5)
        store["layer0.ffn.w1"].values[:, 2] = 0.0
        store["layer0.ffn.b1"].values[2] = 0.0
        got = tail_values_and_grads(block_tail, store, readout, params)
        expect = tail_values_and_grads(reference_block_tail, store, readout,
                                       params)
        grads = dict(zip([p.name for p in params], got[1:]))
        assert not grads["layer0.ffn.w1"][:, 2].any()
        assert grads["layer0.ffn.b1"][2] == 0.0
        assert grads["layer0.ffn.w1"].any()
        for g, e in zip(got, expect):
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()

    def test_grad_check_every_parent(self):
        store, readout, params = tail_inputs(6)

        def build():
            out = block_tail(store, params[0].tensor, params[1].tensor, 0)
            return sum_all(mul(out, readout))

        assert len(params) == 11
        err = grad_check(build, params)
        assert err < 1e-5, err

    def test_keeps_the_dtype_of_its_inputs(self):
        store, readout, params = tail_inputs(7)
        for p in params:
            p.tensor.values = p.values.astype(np.float32)
        got = tail_values_and_grads(block_tail, store,
                                    Tensor(readout.values.astype(np.float32)),
                                    params)
        assert {a.dtype for a in got} == {np.dtype(np.float32)}


class TestEncoderForward:
    def test_single_block_hand_trace(self):
        # one layer, one head, bias mode off, FFN forced to zero: the output
        # must equal LN(LN(x + attention(x))) computed with plain numpy
        cfg = encoder_config(d_model=2)
        store = make_store(cfg, seed=4)
        for name in ("ffn.w1", "ffn.w2", "ffn.b1", "ffn.b2"):
            store[f"layer0.{name}"].tensor.values[...] = 0.0
        x = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
        out = encoder_forward(store, Tensor(x), packed(all_na(3)), cfg).values

        wq, wk, wv = store["layer0.wqkv"].values
        wo = store["layer0.wo"].values
        scores = (x @ wq) @ (x @ wk).T / math.sqrt(2)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        attn_out = (weights @ (x @ wv)) @ wo

        def ln(m):
            mu = m.mean(axis=-1, keepdims=True)
            var = ((m - mu) ** 2).mean(axis=-1, keepdims=True)
            return (m - mu) / np.sqrt(var + 1e-5)

        expected = ln(ln(x + attn_out))
        assert np.allclose(out, expected, atol=1e-12)

    def test_empty_structured_range_is_bitwise_baseline(self, two_sentence_doc):
        S = fixture_structure(two_sentence_doc)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(S.n, 8))
        cfg_none = encoder_config(layers=2, heads=2, d_model=8)
        cfg_empty = encoder_config("biaffine", layers=2, heads=2, d_model=8,
                                   structured_layers="none")
        out_none = encoder_forward(make_store(cfg_none, 3), Tensor(x),
                                   packed(S), cfg_none).values
        out_empty = encoder_forward(make_store(cfg_empty, 3), Tensor(x),
                                    packed(S), cfg_empty).values
        assert out_none.tobytes() == out_empty.tobytes()

    def test_baseline_equivalence_three_ways(self, two_sentence_doc):
        # mode none / zero-init biaffine / all-NA structure with trained
        # parameters agree bitwise on random inputs
        S = fixture_structure(two_sentence_doc)
        cfg_none = encoder_config(layers=2, heads=2, d_model=8)
        cfg_bi = encoder_config("biaffine", layers=2, heads=2, d_model=8,
                                structured_layers="0,1")
        store_none = make_store(cfg_none, 12)
        store_zero = make_store(cfg_bi, 12)
        store_trained = make_store(cfg_bi, 12)
        rng = np.random.default_rng(0)
        for p in store_trained:
            if ".bias." in p.name:
                p.tensor.values = rng.normal(size=p.values.shape) * 0.3
        for trial in range(20):
            x = np.random.default_rng(trial).normal(size=(S.n, 8))
            a = encoder_forward(store_none, Tensor(x), packed(S),
                                cfg_none).values
            b = encoder_forward(store_zero, Tensor(x), packed(S),
                                cfg_bi).values
            c = encoder_forward(store_trained, Tensor(x),
                                packed(all_na(S.n)), cfg_bi).values
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_only_structured_layers_emit_records(self, two_sentence_doc):
        S = fixture_structure(two_sentence_doc)
        cfg = encoder_config("biaffine", layers=3, heads=2, d_model=8,
                             structured_layers="2")
        store = make_store(cfg, 2)
        recorder = BiasRecorder(cfg.layers)
        encoder_forward(store, Tensor(np.zeros((S.n, 8))), packed(S), cfg,
                        recorder=recorder)
        assert recorder.counts[2].any()
        assert not recorder.counts[:2].any()
        assert not recorder.sums[:2].any()

    def test_permutation_consistency(self, two_sentence_doc):
        S = fixture_structure(two_sentence_doc)
        cfg = encoder_config("biaffine", layers=2, heads=2, d_model=8,
                             structured_layers="0,1")
        store = make_store(cfg, 21)
        rng = np.random.default_rng(31)
        for p in store:
            if ".bias." in p.name:
                p.tensor.values = rng.normal(size=p.values.shape) * 0.2
        x = rng.normal(size=(S.n, 8))
        out = encoder_forward(store, Tensor(x), packed(S), cfg).values
        perm = rng.permutation(S.n)
        S_perm = StructureMatrix("p", S.codes[np.ix_(perm, perm)])
        out_perm = encoder_forward(store, Tensor(x[perm]), packed(S_perm),
                                   cfg).values
        assert np.allclose(out_perm, out[perm], rtol=1e-10, atol=1e-12)

    def test_gradients_reach_transformation_parameters(self, two_sentence_doc):
        S = fixture_structure(two_sentence_doc)
        readout = np.random.default_rng(55).normal(size=(S.n, 8))
        for mode in ("biaffine", "decomp"):
            cfg = encoder_config(mode, layers=2, heads=2, d_model=8,
                                 structured_layers="0,1")
            store = make_store(cfg, 33)
            rng = np.random.default_rng(44)
            for p in store:
                if ".bias." in p.name:
                    p.tensor.values = rng.normal(size=p.values.shape) * 0.1
            x = rng.normal(size=(S.n, 8))
            params = [p for p in store if ".bias." in p.name]

            def build():
                out = encoder_forward(store, Tensor(x), packed(S), cfg)
                return sum_all(mul(out, constant(readout)))

            err = grad_check(build, params, max_elements_per_param=6)
            assert err < 1e-4, f"{mode}: {err}"


def heatmap_rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.strip().splitlines()[1:]]


class TestBiasRecorderAndHeatmap:
    def test_recorder_starts_empty(self):
        recorder = BiasRecorder(3)
        assert recorder.sums.shape == recorder.counts.shape == (3, N_TYPES)
        assert not recorder.counts.any() and not recorder.sums.any()

    def test_single_cell_type(self):
        recorder = BiasRecorder(1)
        # one head, four cells of type intra_coref (index 4), bias 1 each
        recorder.add(0, np.full(4, 4), np.ones((1, 4)))
        rows = heatmap_rows(export_bias_heatmap(recorder))
        assert len(rows) == 6  # one layer, six dependency rows
        cell = next(r for r in rows if r[1] == "intra_coref")
        assert float(cell[2]) == 1.0 and int(cell[3]) == 4

    def test_two_heads_average(self):
        recorder = BiasRecorder(4)
        # inter_coref (index 3): head 0 biases 1, head 1 biases 3
        bias = np.repeat([[1.0], [3.0]], 10, axis=1)
        recorder.add(3, np.full(10, 3), bias)
        rows = heatmap_rows(export_bias_heatmap(recorder))
        cell = next(r for r in rows if r[0] == "3" and r[1] == "inter_coref")
        assert float(cell[2]) == 2.0 and int(cell[3]) == 20

    def test_zero_init_model_records_all_zero(self, two_sentence_doc):
        S = fixture_structure(two_sentence_doc)
        cfg = encoder_config("biaffine", layers=2, heads=2, d_model=8,
                             structured_layers="0,1")
        store = make_store(cfg, 1)
        recorder = BiasRecorder(cfg.layers)
        encoder_forward(store, Tensor(np.ones((S.n, 8))), packed(S), cfg,
                        recorder=recorder)
        assert recorder.counts.any()
        assert not recorder.sums.any()

    def test_empty_recorder_rejected(self):
        with pytest.raises(ValueError, match="no bias records"):
            export_bias_heatmap(BiasRecorder(2))

    def test_grid_is_layers_by_six(self):
        recorder = BiasRecorder(3)
        recorder.add(0, np.zeros(2, dtype=np.int64), np.full((1, 2), 0.5))
        rows = heatmap_rows(export_bias_heatmap(recorder))
        assert len(rows) == 3 * 6
        assert [r[1] for r in rows[:6]] == [
            "na", "intra_ne", "inter_relate", "intra_relate", "inter_coref",
            "intra_coref"]
        assert rows[0][2:] == ["0", "0"]


# Two graphs alive at once give the gradients each gives alone, and no
# array the encoder takes uninitialised is read before it is written.
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
    """Losses of two Adam steps over one pack per document and one pack of
    all, then the trained model's logits; the gradients of each step; the
    trained parameters."""
    model, encs = setup(mode)
    optimizer = model.make_optimizer()
    outputs, grads = [], []
    for _ in range(2):
        optimizer.zero_grad()
        for pack in [(enc,) for enc in encs] + [tuple(encs)]:
            loss = loss_of(model, *pack)
            outputs.append(loss.values.tobytes())
            loss.backward()
        grads.append(parameter_grads(model))
        optimizer.step()
    for enc in encs:
        outputs.append(model.forward(Pack((enc,))).logits.values.tobytes())
    return outputs, grads, model.parameter_arrays()


class NanFilledNumpy:
    """numpy as the encoder sees it, except that every array ``empty`` and
    ``empty_like`` return is filled with NaN; their shapes are recorded
    in ``handed``."""

    def __init__(self):
        self.handed = []

    def __getattr__(self, name):
        return getattr(np, name)

    def _poisoned(self, out: np.ndarray) -> np.ndarray:
        out.fill(np.nan)
        self.handed.append(out.shape)
        return out

    def empty(self, *args, **kwargs):
        return self._poisoned(np.empty(*args, **kwargs))

    def empty_like(self, *args, **kwargs):
        return self._poisoned(np.empty_like(*args, **kwargs))


@pytest.mark.parametrize("compute_dtype", DTYPES, indirect=True)
@pytest.mark.parametrize("mode", MODES)
def test_no_uninitialised_array_is_read(mode, compute_dtype, monkeypatch):
    clean = two_steps(mode)
    poisoned = NanFilledNumpy()
    monkeypatch.setattr(encoder, "np", poisoned)
    outputs, grads, params = two_steps(mode)
    # the heads' outputs, (Σn, d), and the projections' gradient, (3H, Σn,
    # d_h)
    assert {len(shape) for shape in poisoned.handed} == {2, 3}
    assert outputs == clean[0]
    for got, expect in zip(grads, clean[1]):
        assert_same(got, expect)
    assert_same(params, clean[2])
