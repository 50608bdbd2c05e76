"""Structured self-attention encoder.

Each block is standard post-norm multi-head attention plus a feed-forward
network, with one addition: before the softmax, every query-key score
whose token pair has a dependency receives a learned scalar bias chosen
by that dependency type.  Two bias parameterizations are supported, a
bilinear (biaffine) form ``q A_s k^T + b_s`` and a decomposed linear form
``q K_s + Q_s k + b_s`` whose three terms can be toggled independently.

The bias is computed only where there is structure.  For each layer and
head the five types' parameters are concatenated, every non-NA cell
gathers its query row, key row and type slot, and one scatter places the
cell biases into the score matrix.  NA cells carry no parameters and are
never computed, so a model whose structure is all NA computes the same
function as the unstructured baseline.

Bias parameters are owned per layer, per head, and per dependency type;
they are never shared.  Every function here reads the model's
:class:`~structrel.config.ModelConfig`: the stack shape, the four
``bias_*`` term toggles and the structured-layer range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .autodiff import (
    ParameterStore,
    Tensor,
    add,
    concat,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    scatter_cells,
    softmax_rows,
    sum_axis,
    take_cells,
    take_rows,
    transpose,
    xavier_uniform,
)
from .structure import STRUCTURED_TYPES, DependencyType, StructureMatrix

if TYPE_CHECKING:
    from .config import ModelConfig


@dataclass(frozen=True)
class BiasRecord:
    """Mean attentive bias over one document's cells of one dependency
    type, for one layer and head."""

    layer: int
    head: int
    dependency: DependencyType
    mean_bias: float
    count: int

    def __post_init__(self):
        if self.dependency == DependencyType.NA:
            raise ValueError("NA cells are never recorded")
        if self.count <= 0:
            raise ValueError("a bias record requires at least one cell")


def dep_name(dep: DependencyType) -> str:
    """The lower-case name of a dependency type, as parameter names,
    exclusion lists and reports spell it."""
    return dep.name.lower()


def bias_param_prefix(layer: int, head: int, dep: DependencyType) -> str:
    if dep == DependencyType.NA:
        raise ValueError("NA carries no bias parameters")
    return f"layer{layer}.head{head}.bias.{dep_name(dep)}"


def _bias_layers(cfg: ModelConfig) -> frozenset[int]:
    """The blocks that receive structural bias: the structured-layer range,
    or none when every bias term is off (as mode ``none`` forces)."""
    if cfg.bias_core or cfg.bias_query or cfg.bias_key or cfg.bias_prior:
        return cfg.resolve_structured_layers()
    return frozenset()


def init_encoder_params(store: ParameterStore, rng: np.random.Generator,
                        cfg: ModelConfig) -> None:
    """Create all encoder parameters.

    Projections are Xavier-uniform; bias-transformation parameters start at
    zero so an untrained structured model is exactly the baseline.
    """
    d, dh = cfg.d_model, cfg.d_model // cfg.heads
    structured = _bias_layers(cfg)
    for l in range(cfg.layers):
        for h in range(cfg.heads):
            for name in ("wq", "wk", "wv"):
                store.create(
                    f"layer{l}.head{h}.{name}",
                    xavier_uniform(rng, d, dh, (d, dh)),
                )
            if l in structured:
                for dep in STRUCTURED_TYPES:
                    prefix = bias_param_prefix(l, h, dep)
                    if cfg.bias_core:
                        store.create(f"{prefix}.A", np.zeros((dh, dh)))
                    if cfg.bias_query:
                        store.create(f"{prefix}.qvec", np.zeros((dh, 1)))
                    if cfg.bias_key:
                        store.create(f"{prefix}.kvec", np.zeros((dh, 1)))
                    if cfg.bias_prior:
                        store.create(f"{prefix}.b", np.zeros(()))
        store.create(f"layer{l}.wo", xavier_uniform(rng, d, d, (d, d)))
        store.create(f"layer{l}.ln1.gain", np.ones(d))
        store.create(f"layer{l}.ln1.bias", np.zeros(d))
        store.create(f"layer{l}.ffn.w1", xavier_uniform(rng, d, d * cfg.ffn_mult,
                                                        (d, d * cfg.ffn_mult)))
        store.create(f"layer{l}.ffn.b1", np.zeros(d * cfg.ffn_mult))
        store.create(f"layer{l}.ffn.w2", xavier_uniform(rng, d * cfg.ffn_mult, d,
                                                        (d * cfg.ffn_mult, d)))
        store.create(f"layer{l}.ffn.b2", np.zeros(d))
        store.create(f"layer{l}.ln2.gain", np.ones(d))
        store.create(f"layer{l}.ln2.bias", np.zeros(d))


def project_qkv(store: ParameterStore, x: Tensor, layer: int,
                head: int) -> tuple[Tensor, Tensor, Tensor]:
    """Project token representations into query/key/value, no biases."""
    q = matmul(x, store[f"layer{layer}.head{head}.wq"].tensor)
    k = matmul(x, store[f"layer{layer}.head{head}.wk"].tensor)
    v = matmul(x, store[f"layer{layer}.head{head}.wv"].tensor)
    return q, k, v


def type_bias(store: ParameterStore, q: Tensor, k: Tensor, layer: int,
              head: int, cells: tuple[np.ndarray, np.ndarray, np.ndarray],
              cfg: ModelConfig) -> Tensor:
    """The attentive bias of one layer and head at its structured cells.

    ``cells`` is ``(rows, cols, types)`` as given by
    :attr:`StructureMatrix.cells`; entry ``c`` of the returned vector is
    the bias of type ``STRUCTURED_TYPES[types[c]]`` between query
    ``rows[c]`` and key ``cols[c]``.  The five types' parameters are
    concatenated so each term is one gather:

    * biaffine core ``q_i A_s k_j``: row ``i*5 + s`` of ``q A_cat``
      reshaped to (5n, dh), dotted with ``k_j``;
    * query-conditioned ``q_i K_s``: cell ``(i, s)`` of ``q qvec_cat``;
    * key-conditioned ``Q_s k_j``: cell ``(j, s)`` of ``k kvec_cat``;
    * prior ``b_s``: slot ``s`` of ``b_cat``.

    Only the terms whose ``bias_*`` toggle is on are computed.  Nothing is
    computed for NA cells, which are never passed in.
    """
    rows, cols, types = cells
    n_types = len(STRUCTURED_TYPES)

    def stacked(suffix: str) -> list[Tensor]:
        return [store[f"{bias_param_prefix(layer, head, dep)}.{suffix}"].tensor
                for dep in STRUCTURED_TYPES]

    terms: list[Tensor] = []
    if cfg.bias_core:
        n, dh = q.shape
        qa = reshape(matmul(q, concat(stacked("A"), axis=1)), (n * n_types, dh))
        terms.append(sum_axis(mul(take_rows(qa, rows * n_types + types),
                                  take_rows(k, cols)), axis=1))
    if cfg.bias_query:
        terms.append(take_cells(matmul(q, concat(stacked("qvec"), axis=1)),
                                rows, types))
    if cfg.bias_key:
        terms.append(take_cells(matmul(k, concat(stacked("kvec"), axis=1)),
                                cols, types))
    if cfg.bias_prior:
        prior = concat([reshape(b, (1, 1)) for b in stacked("b")], axis=1)
        terms.append(take_cells(prior, np.zeros_like(types), types))
    if not terms:
        raise ValueError(
            f"mode {cfg.mode!r} with no term enabled produces no bias"
        )
    out = terms[0]
    for term in terms[1:]:
        out = add(out, term)
    return out


class BiasRecorder:
    """Accumulates per-(layer, head, dependency) mean biases per document."""

    def __init__(self):
        self.records: list[BiasRecord] = []

    def add(self, layer: int, head: int, types: np.ndarray,
            bias: np.ndarray) -> None:
        """Record one mean per dependency type present among the cells;
        ``types`` and ``bias`` are one layer and head's cell types and
        biases, as :func:`type_bias` pairs them."""
        n_types = len(STRUCTURED_TYPES)
        counts = np.bincount(types, minlength=n_types)
        sums = np.bincount(types, weights=bias, minlength=n_types)
        for s, dep in enumerate(STRUCTURED_TYPES):
            if counts[s]:
                self.records.append(
                    BiasRecord(
                        layer=layer,
                        head=head,
                        dependency=dep,
                        mean_bias=float(sums[s] / counts[s]),
                        count=int(counts[s]),
                    )
                )


def structured_scores(store: ParameterStore, q: Tensor, k: Tensor,
                      structure: StructureMatrix, layer: int, head: int,
                      cfg: ModelConfig,
                      recorder: Optional[BiasRecorder] = None) -> Tensor:
    """Attention scores with structural bias: ``(q k^T + bias) / sqrt(d)``.

    The bias is computed by :func:`type_bias` only at the structure's
    non-NA cells and placed into the (n, n) score matrix with one scatter;
    NA cells receive nothing, and a structure without cells, or a layer
    outside :func:`_bias_layers`, leaves the raw scores untouched.
    """
    n = q.shape[0]
    if structure.n != n:
        raise ValueError(
            f"structure matrix is {structure.n}x{structure.n} but the "
            f"document has {n} tokens"
        )
    scores = matmul(q, transpose(k))
    if layer in _bias_layers(cfg):
        rows, cols, types = cells = structure.cells
        if rows.size:
            bias = type_bias(store, q, k, layer, head, cells, cfg)
            if recorder is not None:
                recorder.add(layer, head, types, bias.values)
            scores = add(scores, scatter_cells(bias, rows, cols, (n, n)))
    return scale(scores, 1.0 / math.sqrt(q.shape[-1]))


def attend(scores: Tensor, v: Tensor) -> Tensor:
    """Softmax over keys, then aggregate values."""
    return matmul(softmax_rows(scores), v)


def encoder_forward(store: ParameterStore, x: Tensor,
                    structure: StructureMatrix, cfg: ModelConfig,
                    recorder: Optional[BiasRecorder] = None) -> Tensor:
    """Run the full block stack.

    Layers outside ``cfg``'s structured range attend without bias.  Each
    block is post-norm: ``LN(x + MHA(x))`` then ``LN(x + FFN(x))``.
    """
    for l in range(cfg.layers):
        heads = []
        for h in range(cfg.heads):
            q, k, v = project_qkv(store, x, l, h)
            scores = structured_scores(store, q, k, structure, l, h, cfg,
                                       recorder=recorder)
            heads.append(attend(scores, v))
        merged = matmul(concat(heads, axis=1), store[f"layer{l}.wo"].tensor)
        x = layer_norm(add(x, merged), store[f"layer{l}.ln1.gain"].tensor,
                       store[f"layer{l}.ln1.bias"].tensor)
        hidden = relu(add(matmul(x, store[f"layer{l}.ffn.w1"].tensor),
                          store[f"layer{l}.ffn.b1"].tensor))
        ffn = add(matmul(hidden, store[f"layer{l}.ffn.w2"].tensor),
                  store[f"layer{l}.ffn.b2"].tensor)
        x = layer_norm(add(x, ffn), store[f"layer{l}.ln2.gain"].tensor,
                       store[f"layer{l}.ln2.bias"].tensor)
    return x


def aggregate_bias_records(
    records: Sequence[BiasRecord],
) -> dict[tuple[int, DependencyType], tuple[float, int]]:
    """Cell-count weighted mean bias per (layer, dependency), pooled over
    heads and documents."""
    sums: dict[tuple[int, DependencyType], float] = {}
    counts: dict[tuple[int, DependencyType], int] = {}
    for rec in records:
        key = (rec.layer, rec.dependency)
        sums[key] = sums.get(key, 0.0) + rec.mean_bias * rec.count
        counts[key] = counts.get(key, 0) + rec.count
    return {key: (sums[key] / counts[key], counts[key]) for key in sums}


def export_bias_heatmap(records: Sequence[BiasRecord], n_layers: int) -> str:
    """Render the layer-by-dependency mean-bias grid as tab-separated text.

    Every layer emits one row per dependency type including NA, which is
    structurally zero with no samples.
    """
    if not records:
        raise ValueError("no bias records to export")
    grid = aggregate_bias_records(records)
    lines = ["layer\tdependency\tmean_bias\tcount"]
    for l in range(n_layers):
        for dep in DependencyType:
            if dep == DependencyType.NA:
                mean, count = 0.0, 0
            else:
                mean, count = grid.get((l, dep), (0.0, 0))
            lines.append(f"{l}\t{dep_name(dep)}\t{mean:.10g}\t{count}")
    return "\n".join(lines) + "\n"
