"""Training, evaluation, threshold tuning, and the ablation suites.

Runs are deterministic given a config and seed: batch order, parameter
initialization, and optimizer state all derive from the seed, so repeating
a run reproduces checkpoints and reports byte for byte.  A checkpoint
holds the parameters only; training always starts from the seed.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .autodiff import load_checkpoint, save_checkpoint, sigmoid
from .batching import (
    EncodedDocument,
    Pack,
    encode_documents,
    kept_mentions,
    make_batches,
    pack_documents,
    pack_spans,
    pair_row,
)
# Nothing here encodes one document at a time any more; the benchmark's
# tracer (benchmark/spans.py) still wraps the name in this module.
from .batching import encode_document  # noqa: F401
from .config import TOGGLES, ModelConfig, load_config, save_config
from .corpus import (
    Document,
    Vocabulary,
    build_vocab,
    entity_type_labels,
    read_text,
)
from .encoder import BiasRecorder, dep_name, export_bias_heatmap
from .metrics import (
    EvalReport,
    Fact,
    build_train_fact_index,
    evaluate_facts,
    make_in_train_checker,
)
from .model import DocumentResult, PredictedFact, RelationExtractor
from .structure import STRUCTURED_TYPES


class DivergenceError(RuntimeError):
    pass


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    dev_f1: Optional[float] = None
    dev_precision: Optional[float] = None
    dev_recall: Optional[float] = None


@dataclass
class TrainResult:
    model: RelationExtractor
    best_arrays: dict[str, np.ndarray]  # the parameters of the best epoch
    log: list[EpochLog] = field(default_factory=list)

    def restore_best(self) -> None:
        self.model.load_parameter_arrays(self.best_arrays)


def resolve_schema(config: ModelConfig,
                   train_docs: Sequence[Document]) -> list[str]:
    """Schema file when configured, otherwise the sorted relation names
    observed in the training corpus.  The file lists each relation once,
    and must hold every training fact's relation."""
    names = sorted({f.r for doc in train_docs for f in doc.facts})
    path = config.schema_path
    if not path:
        if not names:
            raise ValueError("training corpus has no relation labels and no "
                             "schema file was configured")
        return names
    schema = _read_names(path, strip=True)
    if not schema:
        raise ValueError(f"{path}: empty relation schema")
    unlisted = sorted(set(names) - set(schema))
    if unlisted:
        raise ValueError(f"{path}: training relations {unlisted} are not listed")
    return schema


def build_model(config: ModelConfig, train_docs: Sequence[Document],
                schema: Optional[Sequence[str]] = None) -> RelationExtractor:
    vocab = build_vocab(train_docs, config.vocab_min_count)
    etypes = entity_type_labels(train_docs)
    if schema is None:
        schema = resolve_schema(config, train_docs)
    return RelationExtractor(config, vocab, etypes, list(schema))


def check_corpus(path, docs: Sequence[Document], config: ModelConfig,
                 etypes: Sequence[str], etypes_from) -> None:
    """Refuse, naming the corpus file ``path`` and the document, a corpus
    that a model of ``config`` with the entity types ``etypes``, read
    from ``etypes_from``, cannot encode: an entity that the ``max_len``
    cut keeps has another type, or the cut keeps more than ``coref_cap``
    entities.  Entities beyond the cut are not checked: encoding drops
    them with a :class:`~structrel.batching.TruncationWarning`."""
    known = set(etypes)
    for doc in docs:
        kept = [entity for entity in doc.entities
                if kept_mentions(doc, entity, config.max_len)]
        for entity in kept:
            if entity.etype not in known:
                raise ValueError(f"{path}: doc {doc.doc_id!r}: entity type "
                                 f"{entity.etype!r} is not in {etypes_from}")
        if len(kept) > config.coref_cap:
            raise ValueError(
                f"{path}: doc {doc.doc_id!r}: {len(kept)} entities within "
                f"max_len = {config.max_len} exceed coref_cap = "
                f"{config.coref_cap}")


def _encode(model: RelationExtractor,
            docs: Sequence[Document]) -> list[EncodedDocument]:
    """The documents truncated and encoded for ``model``, as one group
    (:func:`~structrel.batching.encode_documents`)."""
    cfg = model.cfg
    return encode_documents(docs, model.vocab, model.etype_to_index,
                            cfg.coref_cap, cfg.max_len,
                            cfg.excluded_dependency_set())


def _forward_docs(model: RelationExtractor, docs: Sequence[Document],
                  recorder: Optional[BiasRecorder] = None,
                  ) -> Iterator[DocumentResult]:
    """The inference loop: cut the documents, in order, into packs by
    their lengths after truncation, ``min(token_count, max_len)``, with
    the rule training's batches are packed by
    (:func:`~structrel.batching.pack_spans`); encode each pack's
    documents as one group, run the pack with frozen parameters, and
    yield each document's result in order.  One pack's encodings and
    graph are alive at a time.  Pairs are renumbered to the document's
    own entity ordinals, so facts about truncated-away entities are
    simply absent."""
    max_len = model.cfg.max_len
    lengths = [min(doc.token_count(), max_len) for doc in docs]
    for lo, hi in pack_spans(lengths, max_len):
        pack = Pack(tuple(_encode(model, docs[lo:hi])))
        for result in model.forward(pack, recorder=recorder).documents():
            ordinals = result.ordinals
            yield dataclasses.replace(
                result,
                pairs=[(ordinals[s], ordinals[o]) for s, o in result.pairs])


def _gold_facts(docs: Sequence[Document]) -> set[Fact]:
    """Gold facts keyed by document id; a repeated id would merge two
    documents' gold and predictions, so it is an error."""
    seen: set[str] = set()
    for d in docs:
        if d.doc_id in seen:
            raise ValueError(f"document id {d.doc_id!r} occurs more than once")
        seen.add(d.doc_id)
    return {(d.doc_id, f.h, f.t, f.r) for d in docs for f in d.facts}


def evaluate(model: RelationExtractor, docs: Sequence[Document],
             train_docs: Sequence[Document] = (),
             threshold: Optional[float] = None,
             ) -> tuple[EvalReport, list[PredictedFact]]:
    """Score thresholded predictions against the documents' gold facts.

    Gold is the untruncated documents' facts, so a fact lost to
    truncation counts as a miss.  ``train_docs`` feed the ignore-train
    variant; an empty list makes the ignore metrics equal the plain ones.
    """
    threshold = model.cfg.threshold if threshold is None else threshold
    gold = _gold_facts(docs)
    predictions = [fact for result in _forward_docs(model, docs)
                   for fact in model.predict(result, threshold)]
    predicted = {(p.doc_id, p.h, p.t, p.r) for p in predictions}
    if train_docs:
        checker = make_in_train_checker(build_train_fact_index(train_docs), docs)
    else:
        checker = lambda fact: False
    return evaluate_facts(predicted, gold, checker), predictions


def tune_threshold(model: RelationExtractor,
                   dev_docs: Sequence[Document]) -> float:
    """Sweep the observed probabilities; return the F1-maximizing
    threshold, preferring the larger one on ties.  Recall counts every
    gold fact, as :func:`evaluate` does, including truncated-away ones."""
    gold = _gold_facts(dev_docs)
    prob_parts: list[np.ndarray] = [np.empty(0)]
    flag_parts: list[np.ndarray] = [np.empty(0, dtype=bool)]
    for doc, result in zip(dev_docs, _forward_docs(model, dev_docs)):
        if result.logits is None:
            continue
        hit = np.zeros(result.logits.shape, dtype=bool)
        # the pairs are numbered by ordinal before truncation
        local = {o: i for i, o in enumerate(result.ordinals)}
        for fact in doc.facts:
            row = pair_row(local.get(fact.h, -1), local.get(fact.t, -1),
                           len(local))
            col = model.rel_to_index.get(fact.r)
            if row is not None and col is not None:
                hit[row, col] = True
        prob_parts.append(sigmoid(result.logits).ravel())
        flag_parts.append(hit.ravel())
    flags = np.concatenate(flag_parts)
    if not flags.any():
        return model.cfg.threshold
    probs = np.concatenate(prob_parts)
    order = np.argsort(probs)[::-1]
    sorted_probs = probs[order]
    cum_correct = np.cumsum(flags[order])
    # Predicting everything with probability >= sorted_probs[i] is a
    # candidate only at the last index of each tie group.
    last = np.append(sorted_probs[1:] != sorted_probs[:-1], True)
    candidates = np.nonzero(
        last & (sorted_probs > 0.0) & (sorted_probs < 1.0))[0]
    if not candidates.size:
        return model.cfg.threshold
    precision = cum_correct[candidates] / (candidates + 1)
    recall = cum_correct[candidates] / len(gold)
    denominator = precision + recall  # metrics.f1_score, cell by cell
    f1 = 2.0 * precision * recall / np.where(denominator == 0.0, 1.0,
                                              denominator)
    # Thresholds fall along the candidates, so the first maximum is the
    # largest F1-maximizing threshold.
    return float(sorted_probs[candidates[np.argmax(f1)]])


def _backward_batch(model: RelationExtractor,
                    batch: Sequence[EncodedDocument],
                    step: int, epoch: int) -> float:
    """Accumulate the gradient of the batch's mean loss into the
    parameter gradients, one pack at a time, and return that mean.

    The batch's documents are packed in batch order
    (:func:`~structrel.batching.pack_documents`); each pack runs
    forward, loss, and backward of ``loss / B`` as one graph, dropped
    before the next pack runs, so memory holds one pack's graph rather
    than the batch's, and a pack's attention weights are bounded by its
    budget.  This is bit-identical to one backward through the packs'
    summed loss, as each pack's nodes form one contiguous block of its
    reversed walk, and the returned mean, the packs' losses summed in
    batch order times ``1 / B``, is that graph's value.  Both equal the
    sums over single documents to rounding: a pack adds its rows'
    gradients and its cells' losses in other orders.  A pack with a pair
    of entities builds 2L + 4 nodes for L >= 1 layers, whatever its
    number of documents: the embeddings, each layer's attention and
    block tail, the pooling, the relation head and the loss, whose
    backward starts from ``1 / B``.  A pack without pairs runs no
    encoder, and its loss is a zero leaf.
    """
    share = 1.0 / len(batch)
    total = 0.0
    for pack in pack_documents(batch, model.cfg.max_len):
        loss = model.compute_loss(model.forward(pack))
        value = float(loss.values)
        if not np.isfinite(value):
            raise DivergenceError(
                f"non-finite loss at step {step} (epoch {epoch})"
            )
        loss.backward(share)
        total += value
        del loss  # free this pack's graph before the next forward
    return total * share


def train(config: ModelConfig, train_docs: Sequence[Document],
          dev_docs: Sequence[Document] = (),
          schema: Optional[Sequence[str]] = None,
          quiet: bool = True) -> TrainResult:
    """Epochs of batched forward/loss/backward/update with best-checkpoint
    tracking on dev F1: with dev documents, every epoch is evaluated and
    the best one's parameters kept; without, the last epoch's.

    The training documents are truncated and encoded once, as one group
    (:func:`~structrel.batching.encode_documents`), before the first
    epoch; every epoch shuffles those encodings into batches with its
    own seed.

    A batch is one optimizer step on the mean of its documents' losses.
    :func:`_backward_batch` builds that gradient by a backward per pack
    of the batch's documents, so only one pack's graph is alive at a
    time; the gradients and logged losses equal those of one backward
    through the summed batch loss to rounding (its docstring says why).

    Raises :class:`DivergenceError` the moment a pack's loss goes
    non-finite, before its batch's optimizer step.
    """
    model = build_model(config, train_docs, schema)
    optimizer = model.make_optimizer()
    encodings = _encode(model, train_docs)
    best_arrays: Optional[dict[str, np.ndarray]] = None
    best_dev = -1.0
    log: list[EpochLog] = []
    step = 0
    for epoch in range(config.epochs):
        batches = make_batches(encodings, config.batch_size,
                               seed=config.seed + epoch)
        epoch_loss = 0.0
        n_docs = 0
        for batch in batches:
            optimizer.zero_grad()
            value = _backward_batch(model, batch, step, epoch)
            optimizer.step()
            step += 1
            epoch_loss += value * len(batch)
            n_docs += len(batch)
        entry = EpochLog(epoch=epoch, train_loss=epoch_loss / max(n_docs, 1))
        if dev_docs:
            report, _ = evaluate(model, dev_docs, train_docs=train_docs)
            entry.dev_f1 = report.f1
            entry.dev_precision = report.precision
            entry.dev_recall = report.recall
            if report.f1 > best_dev:
                best_dev = report.f1
                best_arrays = model.parameter_arrays()
        log.append(entry)
        if not quiet:
            dev_text = "" if entry.dev_f1 is None else f"  dev F1 {entry.dev_f1:.4f}"
            print(f"epoch {epoch}  loss {entry.train_loss:.6f}{dev_text}")
    if best_arrays is None:  # no dev documents, or no epoch
        best_arrays = model.parameter_arrays()
    return TrainResult(model=model, best_arrays=best_arrays, log=log)


# ---- ablation suites -----------------------------------------------------


def dependency_rows(config: ModelConfig) -> list[tuple[str, ModelConfig]]:
    """The full config, each dependency type excluded, and all of them
    excluded, which degenerates to the unstructured baseline."""
    names = [dep_name(dep) for dep in STRUCTURED_TYPES]
    return ([("full", config)]
            + [(f"-{name}", config.replace(excluded_deps=name))
               for name in names]
            + [("-all", config.replace(excluded_deps=",".join(names)))])


#: Per row, the mode and the bias-term toggles it turns off; every other
#: toggle takes the mode's default.
TERM_ROWS = (
    ("baseline", dict(mode="none")),
    ("prior", dict(mode="decomp", bias_query=False, bias_key=False)),
    ("key_conditioned", dict(mode="decomp", bias_query=False,
                             bias_prior=False)),
    ("query_conditioned", dict(mode="decomp", bias_key=False,
                               bias_prior=False)),
    ("decomp", dict(mode="decomp")),
    ("biaffine_core", dict(mode="biaffine", bias_prior=False)),
    ("biaffine", dict(mode="biaffine")),
)


def term_rows(config: ModelConfig) -> list[tuple[str, ModelConfig]]:
    """One row per bias-term configuration, from the unbiased baseline to
    the full biaffine and decomposed forms."""
    unset = dict.fromkeys(TOGGLES)
    return [(label, config.replace(**{**unset, **changes}))
            for label, changes in TERM_ROWS]


def layer_rows(config: ModelConfig,
               ks: Sequence[int]) -> list[tuple[str, ModelConfig]]:
    """One row per k, with structural bias in the top k blocks only."""
    return [(f"top:{k}", config.replace(structured_layers=f"top:{k}"))
            for k in ks]


def run_ablation(rows: Sequence[tuple[str, ModelConfig]], train_docs,
                 dev_docs, schema: Optional[Sequence[str]] = None,
                 ) -> list[tuple[str, EvalReport]]:
    """Train each row's config, restore its best epoch and evaluate it on
    the dev documents.  A row builder (:func:`dependency_rows`,
    :func:`term_rows`, :func:`layer_rows`) builds, and so validates, every
    config before the first one trains."""
    reports = []
    for label, config in rows:
        result = train(config, train_docs, dev_docs, schema=schema)
        result.restore_best()
        report, _ = evaluate(result.model, dev_docs, train_docs=train_docs)
        reports.append((label, report))
    return reports


def render_ablation_table(rows: list[tuple[str, EvalReport]]) -> str:
    lines = ["configuration\tign_f1\tf1\tprecision\trecall"]
    for label, report in rows:
        lines.append(
            f"{label}\t{report.ign_f1:.6f}\t{report.f1:.6f}\t"
            f"{report.precision:.6f}\t{report.recall:.6f}"
        )
    return "\n".join(lines) + "\n"


# ---- run directories -----------------------------------------------------

CONFIG_FILE = "config.txt"
VOCAB_FILE = "vocab.txt"
ETYPES_FILE = "etypes.txt"
SCHEMA_FILE = "schema.txt"
CHECKPOINT_FILE = "checkpoint.bin"
LOG_FILE = "train_log.tsv"
REPORT_FILE = "dev_report.txt"
PREDICTIONS_FILE = "predictions.tsv"


def save_run(run_dir, result: TrainResult) -> None:
    """Persist everything required to rebuild and rerun the model."""
    os.makedirs(run_dir, exist_ok=True)
    model = result.model
    save_config(model.cfg, os.path.join(run_dir, CONFIG_FILE))
    index_to_word = sorted(
        model.vocab.word_to_index, key=model.vocab.word_to_index.get
    )
    _write_lines(os.path.join(run_dir, VOCAB_FILE), index_to_word)
    _write_lines(os.path.join(run_dir, ETYPES_FILE), model.etype_labels)
    _write_lines(os.path.join(run_dir, SCHEMA_FILE), model.schema)
    save_checkpoint(os.path.join(run_dir, CHECKPOINT_FILE), result.best_arrays)
    lines = ["epoch\ttrain_loss\tdev_precision\tdev_recall\tdev_f1"]
    for entry in result.log:
        dev = (
            f"{entry.dev_precision:.6f}\t{entry.dev_recall:.6f}\t"
            f"{entry.dev_f1:.6f}"
            if entry.dev_f1 is not None
            else "-\t-\t-"
        )
        lines.append(f"{entry.epoch}\t{entry.train_loss:.6f}\t{dev}")
    _write_lines(os.path.join(run_dir, LOG_FILE), lines)


def load_run(run_dir) -> RelationExtractor:
    """Rebuild the model from a run directory and load its checkpoint."""
    config_path = os.path.join(run_dir, CONFIG_FILE)
    config = load_config(config_path)
    words = _read_names(os.path.join(run_dir, VOCAB_FILE))
    vocab = Vocabulary({w: i for i, w in enumerate(words)})
    etypes = _read_names(os.path.join(run_dir, ETYPES_FILE))
    schema_path = os.path.join(run_dir, SCHEMA_FILE)
    schema = _read_names(schema_path)
    try:
        model = RelationExtractor(config, vocab, etypes, schema)
    except ValueError as exc:
        raise ValueError(f"{schema_path}: {exc}") from None
    checkpoint = os.path.join(run_dir, CHECKPOINT_FILE)
    arrays = load_checkpoint(checkpoint)
    try:
        model.load_parameter_arrays(arrays)
    except (KeyError, ValueError) as exc:
        # a parameter the run's config, vocabulary, entity types or schema
        # call for is missing from the checkpoint or has another shape
        raise ValueError(
            f"{checkpoint}: {exc.args[0]}; the model was built from "
            f"{config_path} with {VOCAB_FILE}, {ETYPES_FILE} and "
            f"{SCHEMA_FILE}") from None
    return model


def write_predictions(path, predictions: Sequence[PredictedFact]) -> None:
    lines = ["doc_id\th\tt\tr\tprobability"]
    for p in predictions:
        lines.append(f"{p.doc_id}\t{p.h}\t{p.t}\t{p.r}\t{p.probability:.6f}")
    _write_lines(path, lines)


def collect_bias_heatmap(model: RelationExtractor,
                         docs: Sequence[Document]) -> str:
    """Run the encoder over a corpus with bias recording on and render the
    layer-by-dependency grid."""
    recorder = BiasRecorder(model.cfg.layers)
    for _ in _forward_docs(model, docs, recorder):
        pass
    return export_bias_heatmap(recorder)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def _read_names(path, strip: bool = False) -> list[str]:
    """The lines of a file that lists each name once, in index order.
    With ``strip``, each line is stripped and blank lines are skipped."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    first: dict[str, int] = {}
    for number, line in enumerate(lines, 1):
        if strip:
            line = line.strip()
            if not line:
                continue
        if line in first:
            raise ValueError(f"{path}: line {number} repeats line "
                             f"{first[line]}, {line!r}")
        first[line] = number
    return list(first)
