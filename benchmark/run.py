"""structrel benchmark: seeded synthetic workloads through the public API.

    python3 benchmark/run.py --workload small-none --seed 0 --seconds 44 --trace 0

Each workload generates its corpus with ``generate_synthetic`` from
``--seed``, splits it into train, dev and test, and writes the files
(untimed).  It then runs three phases:

* setup: parse the files and build the model;
* train: ``harness.train`` for the workload's fixed number of epochs, with
  no dev documents;
* inference: ``tune_threshold`` on dev, then ``evaluate`` on test at the
  tuned threshold.  A fixed set of documents longer than ``max_len`` is
  then sent once, one ``evaluate`` call each; every call that raises is a
  failed operation.

A run sets up ``SETUP_REPEATS`` times, trains for the configured
epochs and runs ``PASSES`` inference passes.  An untraced run then
repeats, while another round fits into ``--seconds``, a round of one more
setup, a short training run and one more inference pass.  The short runs
train for ``SAMPLE_EPOCHS`` epochs from scratch on the workload's first
``sample_docs`` training documents, so that an epoch takes 0.1 to 0.3 s;
they must all log the same losses, and every pass must predict the same
facts.

On a shared machine the processor switches between two speeds about 1.5
times apart, for stretches from a fraction of a second to minutes.  The
fastest sample of a run then depends on whether it caught a short fast
stretch, and its median on which speed held more than half of the run;
so each timing is the total over all samples of the run, spread over
the whole of it, which moves only as far as the shares of the two
speeds do:

* ``setup_s`` is the median setup;
* ``train_docs_per_s`` is documents over seconds summed over the epochs
  of the short runs (epoch 0 also builds the model and is not a sample);
* ``eval_docs_per_s`` is documents over seconds summed over the
  inference passes but the first, which warms up.

With ``--trace 0`` the last line of standard output is the JSON result
with every end-to-end metric.  With ``--trace 1`` the run without the
repeats is made once untraced and once traced (see ``spans.py``); the
result holds the per-layer metrics, and the run checks that tracing
changed no output.  The line before the result describes the
environment, the inputs and the raw timing samples.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
SETUP_REPEATS = 3   # timed setups at the start of a run
PASSES = 2          # inference passes after the full training
SAMPLE_EPOCHS = 5   # epochs of each short training run
PROBES = 8
PROBE_SEED_OFFSET = 1_000_003
UNOBSERVED_RELATIONS = 94  # with r0 and r1, the 96 relations of DocRED


@dataclass(frozen=True)
class Workload:
    why: str
    synth: dict            # SynthSpec fields besides n_docs and seed
    config: dict           # ModelConfig fields besides epochs
    n_train: int
    n_dev: int
    n_test: int
    epochs: int
    probe_sentence_len: tuple[int, int]
    sample_docs: int       # training documents of a short run, whole batches
    unobserved_relations: int = 0


WORKLOADS = {
    "small-none": Workload(
        why="default synthetic spec, mode none: per-node Python overhead "
            "(backward walk, Adam loop, per-epoch re-encode) dominates; the "
            "structural bias is bypassed",
        synth={},
        config=dict(mode="none"),
        # Few epochs over many documents: the final loss then averages
        # over the whole corpus.  Trained past the sudden drop in loss
        # (from about epoch 15 at 120 documents) it depends on when the
        # drop came, and that spread 15-30% across seeds.
        n_train=480, n_dev=200, n_test=400, epochs=4,
        probe_sentence_len=(30, 40), sample_docs=60,
    ),
    "large-biaffine": Workload(
        why="about 137 tokens and 12 entities, d_model 64, 4 heads, mode "
            "biaffine: the n-squared per-type bias work dominates",
        synth=dict(entities_per_doc=12, sentence_len=(40, 50)),
        # At the default lr of 1e-3 this shape drives the bilinear head into
        # clipped saturation on some corpora and not on others, so loss and
        # F1 split into two modes across seeds; 3e-4 trains on all of them.
        config=dict(mode="biaffine", d_model=64, heads=4, max_len=160,
                    lr=3e-4),
        n_train=20, n_dev=24, n_test=48, epochs=12,
        probe_sentence_len=(60, 70), sample_docs=8,
    ),
    "wide-decomp": Workload(
        why="36 tokens, 8 entities, mode decomp, 96-relation schema: the "
            "per-relation head loop, decomposed bias and 191 Adam arrays "
            "dominate",
        synth=dict(entities_per_doc=8, sentence_len=(10, 14)),
        config=dict(mode="decomp"),
        n_train=30, n_dev=40, n_test=100, epochs=20,
        probe_sentence_len=(25, 30), sample_docs=8,
        unobserved_relations=UNOBSERVED_RELATIONS,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_docs_per_s": "docs/s",
    "eval_docs_per_s": "docs/s",
    "peak_rss_mb": "MiB",
    "test_f1": "fraction",
    "final_train_loss": "nats/doc",
    "ok_share": "fraction",
}


class EpochClock:
    """Stands in for stdout during ``harness.train(quiet=False)`` and
    timestamps the line the harness prints at the end of every epoch."""

    def __init__(self):
        self.marks: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith("epoch "):
            self.marks.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Inputs:
    train_path: Path
    dev_path: Path
    test_path: Path
    n_train: int
    n_infer: int          # dev + test
    sample_docs: int
    docs: list            # train + dev + test, as generated
    probes: list
    config: object        # ModelConfig


@dataclass
class Outcome:
    """What a run of a workload produced and how long its parts took."""

    losses: list | None = None
    setup_seconds: list = field(default_factory=list)
    epoch_docs_per_s: dict = field(default_factory=dict)  # by docs trained
    losses_by_docs: dict = field(default_factory=dict)
    tune_seconds: list = field(default_factory=list)
    evaluate_seconds: list = field(default_factory=list)
    theta: float | None = None
    test_f1: float | None = None
    predictions: list | None = None
    n_params: int = 0
    attempted: int = 0
    failed: int = 0
    probe_outcomes: Counter = field(default_factory=Counter)
    probe_messages: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ---- inputs ----------------------------------------------------------------


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    from structrel import ModelConfig, SynthSpec, generate_synthetic, write_corpus

    n_docs = wl.n_train + wl.n_dev + wl.n_test
    docs = generate_synthetic(SynthSpec(n_docs=n_docs, seed=seed, **wl.synth))
    config = dict(wl.config)
    if wl.unobserved_relations:
        schema_path = work / "schema.txt"
        names = ["r0", "r1"] + [f"unobserved{i:02d}"
                                for i in range(wl.unobserved_relations)]
        schema_path.write_text("\n".join(names) + "\n", encoding="utf-8")
        config["schema_path"] = str(schema_path)
    config = ModelConfig(epochs=wl.epochs, **config)
    splits = (docs[:wl.n_train], docs[wl.n_train:wl.n_train + wl.n_dev],
              docs[wl.n_train + wl.n_dev:])
    paths = [work / f"{part}.json" for part in ("train", "dev", "test")]
    for split, path in zip(splits, paths):
        write_corpus(split, path)

    probe_spec = dataclasses.replace(
        SynthSpec(n_docs=PROBES, seed=seed + PROBE_SEED_OFFSET, **wl.synth),
        sentence_len=wl.probe_sentence_len,
    )
    probes = [dataclasses.replace(doc, doc_id=f"probe{i:03d}")
              for i, doc in enumerate(generate_synthetic(probe_spec))]
    short = [p.doc_id for p in probes if p.token_count() <= config.max_len]
    if short:
        raise RuntimeError(f"probe documents {short} fit into max_len")
    return Inputs(*paths, wl.n_train, wl.n_dev + wl.n_test, wl.sample_docs,
                  docs=docs, probes=probes, config=config)


def describe_inputs(wl: Workload, inputs: Inputs, seed: int) -> dict:
    docs = inputs.docs
    entities = [len(d.entities) for d in docs]
    return {
        "seed": seed,
        "why": wl.why,
        "docs": {"train": wl.n_train, "dev": wl.n_dev, "test": wl.n_test},
        "epochs": wl.epochs,
        "sample_docs": wl.sample_docs,
        "mean_tokens": statistics.fmean(d.token_count() for d in docs),
        "mean_entities": statistics.fmean(entities),
        "mean_ordered_pairs": statistics.fmean(n * (n - 1) for n in entities),
        "mean_relations": statistics.fmean(len(d.facts) for d in docs),
        "share_over_max_len": sum(d.token_count() > inputs.config.max_len
                                  for d in docs) / len(docs),
        "max_len": inputs.config.max_len,
        "probes": len(inputs.probes),
        "probe_mean_tokens": statistics.fmean(p.token_count()
                                              for p in inputs.probes),
        "config": {k: v for k, v in dataclasses.asdict(inputs.config).items()
                   if k != "schema_path"},
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
    }


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---- phases ----------------------------------------------------------------


def timed_setups(inputs: Inputs, out: Outcome, call=plain_call,
                 repeats: int = SETUP_REPEATS):
    """Parse the three splits and build the model, ``repeats`` times from
    a collected heap; returns the parsed splits."""
    from structrel import harness, parse_corpus

    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        splits = [call("corpus.parse_corpus", parse_corpus, path)
                  for path in (inputs.train_path, inputs.dev_path,
                               inputs.test_path)]
        call("harness.build_model", harness.build_model, inputs.config,
             splits[0])
        out.setup_seconds.append(time.perf_counter() - t0)
    if [doc for split in splits for doc in split] != inputs.docs:
        out.problems.append("the parsed corpus differs from the generated one")
    return splits


def train(inputs: Inputs, train_docs, out: Outcome, call=plain_call,
          epochs: int | None = None):
    """Train for ``epochs``, by default the configured number.  The first
    run on as many documents records the losses and later ones must repeat
    them.  Returns the model, or None when the loss diverged, after
    counting the steps never taken as failed."""
    from structrel import harness

    config = inputs.config
    if epochs is not None:
        config = dataclasses.replace(config, epochs=epochs)
    n = len(train_docs)
    clock = EpochClock()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(clock):
            result = call("harness.train", harness.train, config, train_docs,
                          quiet=False)
    except harness.DivergenceError as exc:
        step = int(str(exc).split("step ")[1].split()[0])
        per_epoch = math.ceil(n / config.batch_size)
        done = (step // per_epoch) * n + (step % per_epoch) * config.batch_size
        out.failed += config.epochs * n - done
        out.problems.append(f"training diverged: {exc}")
        return None
    marks = [start] + clock.marks
    # Epoch 0 also builds the model, so only later epochs are samples.
    out.epoch_docs_per_s.setdefault(n, []).extend(
        n / (b - a) for a, b in zip(marks[1:], marks[2:]))
    losses = [entry.train_loss for entry in result.log]
    if out.losses_by_docs.setdefault(n, losses) != losses:
        out.problems.append("a repeated training run changed its losses")
    if out.losses is None:
        out.losses = losses
        if len(losses) != config.epochs:
            out.problems.append(f"{len(losses)} epochs logged, "
                                f"{config.epochs} configured")
        bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
        if bad:
            out.problems.append(f"non-finite training loss in epochs {bad}")
        out.n_params = sum(p.trainable for p in result.model.store)
    return result.model


def infer(model, train_docs, dev_docs, test_docs, out: Outcome,
          call=plain_call):
    """One inference pass: tune on dev, evaluate on test."""
    from structrel import harness

    t0 = time.perf_counter()
    theta = call("harness.tune_threshold", harness.tune_threshold,
                 model, dev_docs)
    t1 = time.perf_counter()
    report, predictions = call("harness.evaluate", harness.evaluate, model,
                               test_docs, train_docs=train_docs,
                               threshold=theta)
    out.tune_seconds.append(t1 - t0)
    out.evaluate_seconds.append(time.perf_counter() - t1)
    return theta, report, predictions


def check_inference(out: Outcome, model, test_docs, theta, report,
                    predictions) -> None:
    """Check one pass against the test split, and against the first pass
    of ``out`` (or record it as the first)."""
    gold = sum(len(d.facts) for d in test_docs)
    if report.gold != gold:
        out.problems.append(f"report counts {report.gold} gold facts, the "
                            f"test split has {gold}")
    if out.predictions is None:
        out.theta, out.test_f1, out.predictions = theta, report.f1, predictions
        entities = {d.doc_id: len(d.entities) for d in test_docs}
        schema = set(model.schema)
        bad = [p for p in predictions
               if p.doc_id not in entities or p.r not in schema or p.h == p.t
               or not 0 <= p.h < entities[p.doc_id]
               or not 0 <= p.t < entities[p.doc_id]]
        if bad:
            out.problems.append(f"{len(bad)} predictions name no valid "
                                f"pair or relation, first {bad[0]}")
    elif (theta, report.f1, predictions) != (out.theta, out.test_f1,
                                             out.predictions):
        out.problems.append("a repeated inference pass changed its output")


def probe(model, probes, theta, out: Outcome) -> None:
    """Send each over-length document through its own ``evaluate`` call."""
    from structrel import harness

    for doc in probes:
        try:
            report, _ = harness.evaluate(model, [doc], threshold=theta)
        except Exception as exc:  # any failure type is counted and named
            name = type(exc).__name__
            out.failed += 1
            out.probe_outcomes[name] += 1
            out.probe_messages.setdefault(name, str(exc)[:200])
            continue
        out.probe_outcomes["ok"] += 1
        if report.gold != len(doc.facts):
            out.problems.append(f"{doc.doc_id}: report counts {report.gold} "
                                f"gold facts, the document has {len(doc.facts)}")


def run_workload(inputs: Inputs, seconds: float, tracer=None) -> Outcome:
    """Setups, training, inference and the probes; then, with ``seconds``
    above 0, rounds of a setup, a short training run and an inference
    pass while another fits (at least one).  They add timing samples but
    no operations.
    """
    def caller(phase):
        if tracer is None:
            return plain_call
        return lambda name, fn, *a, **k: tracer.measure(name, phase, fn, *a, **k)

    def infer_pass():
        phase = "infer" if out.predictions is None else "infer.repeat"
        result = infer(model, train_docs, dev_docs, test_docs, out,
                       caller(phase))
        check_inference(out, model, test_docs, *result)

    out = Outcome()
    config = inputs.config
    out.attempted = (config.epochs * inputs.n_train + inputs.n_infer
                     + len(inputs.probes))
    start = time.perf_counter()
    train_docs, dev_docs, test_docs = timed_setups(inputs, out,
                                                   caller("setup"))
    model = train(inputs, train_docs, out, caller("train"))
    if model is None:
        out.failed += inputs.n_infer + len(inputs.probes)
        return out
    for _ in range(PASSES):
        infer_pass()
    probe(model, inputs.probes, out.theta, out)
    while seconds:
        t0 = time.perf_counter()
        timed_setups(inputs, out, repeats=1)
        train(inputs, train_docs[:inputs.sample_docs], out,
              epochs=min(SAMPLE_EPOCHS, config.epochs))
        infer_pass()
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break
    return out


# ---- traced run ------------------------------------------------------------

# Per-layer timings: (metric stem, span name, phases).  Each is self time
# per document step in ``train`` and per document in ``infer``.
PER_DOC_TIMINGS = (
    ("structure.build_ms_per_doc", "batching.build_structure_matrix",
     ("train", "infer")),
    ("batching.encode_ms_per_doc", "batching.encode_document",
     ("train", "infer")),
    ("batching.truncate_ms_per_doc", "batching.truncate_document", ("train",)),
    ("encoder.project_qkv_ms_per_doc", "encoder.project_qkv",
     ("train", "infer")),
    ("encoder.attend_ms_per_doc", "encoder.attend", ("train", "infer")),
    ("encoder.structured_scores_ms_per_doc", "encoder.structured_scores",
     ("train", "infer")),
    ("encoder.block_self_ms_per_doc", "model.encoder_forward",
     ("train", "infer")),
    ("model.embed_ms_per_doc", "model.embed_inputs", ("train", "infer")),
    ("model.pool_ms_per_doc", "model.pool_entities", ("train", "infer")),
    ("model.pair_features_ms_per_doc", "model.pair_features",
     ("train", "infer")),
    ("model.score_relations_ms_per_doc", "model.score_relations",
     ("train", "infer")),
    ("model.loss_ms_per_doc", "model.compute_loss", ("train",)),
    ("model.predict_ms_per_doc", "model.predict", ("infer",)),
)
PER_STEP_TIMINGS = (
    ("autodiff.backward_ms_per_step.train", "autodiff.backward"),
    ("autodiff.adam_step_ms_per_step.train", "autodiff.adam_step"),
    ("autodiff.zero_grad_ms_per_step.train", "autodiff.zero_grad"),
    ("harness.train_self_ms_per_step", "harness.train"),
)
# Counts that every training epoch, and both traced inference passes,
# must repeat exactly.
REPEATED_COUNTS = (
    "autodiff.nodes", "encoder.bias_cells", "structure.structured_cells",
    "batching.encode_document.calls", "batching.build_structure_matrix.calls",
    "batching.truncate_document.calls", "model.forward.calls",
    "autodiff.backward.calls", "autodiff.adam_step.calls",
)


def run_traced(inputs: Inputs, reference: Outcome,
               out_path: Path) -> tuple[dict, Outcome]:
    """One traced round with two inference passes; the spans go to
    ``out_path``.  Returns per-layer metrics as (value, unit) and the
    traced outcome, whose problems include any output that differs from
    the untraced ``reference`` round."""
    from spans import Tracer

    with Tracer() as tracer:
        out = run_workload(inputs, 0.0, tracer)
    tracer.write(out_path)
    if out.losses is None:
        return {}, out

    for what in ("theta", "test_f1", "predictions", "losses", "failed",
                 "attempted", "probe_outcomes"):
        if getattr(out, what) != getattr(reference, what):
            out.problems.append(f"tracing changed {what}")

    epochs = tracer.per_epoch("train")
    per_epoch = [{k: epochs[e][k] for k in REPEATED_COUNTS}
                 for e in range(inputs.config.epochs)]
    if any(counts != per_epoch[0] for counts in per_epoch):
        out.problems.append(f"per-epoch counts differ: {per_epoch}")
    infer_counts = tracer.totals("infer")
    repeat_counts = tracer.totals("infer.repeat")
    if any(infer_counts[k] != repeat_counts[k] for k in REPEATED_COUNTS):
        out.problems.append("the two traced inference passes counted "
                            "different work")
    for name in ("autodiff.backward.calls", "autodiff.adam_step.calls",
                 "autodiff.zero_grad.calls"):
        if infer_counts[name] or repeat_counts[name]:
            out.problems.append(f"inference ran {name}")

    n_train = inputs.n_train
    doc_steps = inputs.config.epochs * n_train
    steps = inputs.config.epochs * math.ceil(n_train / inputs.config.batch_size)
    n_infer = inputs.n_infer
    docs = {"train": doc_steps, "infer": n_infer}
    totals = {"train": tracer.totals("train"), "infer": infer_counts}
    ms = tracer.self_ms()

    metrics = {}
    for stem, span, phases in PER_DOC_TIMINGS:
        for phase in phases:
            metrics[f"{stem}.{phase}"] = (ms[(span, phase)] / docs[phase], "ms")
    for name, span in PER_STEP_TIMINGS:
        metrics[name] = (ms[(span, "train")] / steps, "ms")
    metrics["batching.make_batches_ms_per_epoch.train"] = (
        ms[("harness.make_batches", "train")] / inputs.config.epochs, "ms")
    metrics["harness.infer_self_ms_per_doc"] = (
        (ms[("harness.tune_threshold", "infer")]
         + ms[("harness.evaluate", "infer")]) / n_infer, "ms")
    metrics["metrics.evaluate_facts_ms.infer"] = (
        ms[("metrics.evaluate_facts", "infer")], "ms")
    metrics["corpus.parse_ms"] = (
        ms[("corpus.parse_corpus", "setup")] / len(out.setup_seconds), "ms")
    for phase in ("train", "infer"):
        metrics[f"structure.build_calls.{phase}"] = (
            totals[phase]["batching.build_structure_matrix.calls"], "count")
        metrics[f"batching.encode_calls.{phase}"] = (
            totals[phase]["batching.encode_document.calls"], "count")
        metrics[f"encoder.bias_cells_computed_per_doc.{phase}"] = (
            totals[phase]["encoder.bias_cells"] / docs[phase], "cells/doc")
        metrics[f"structure.structured_cells_per_doc.{phase}"] = (
            totals[phase]["structure.structured_cells"] / docs[phase],
            "cells/doc")
    # Epoch -1 is model construction inside harness.train.
    train_nodes = sum(epochs[e]["autodiff.nodes"]
                      for e in range(inputs.config.epochs))
    metrics["autodiff.nodes_per_train_doc"] = (train_nodes / doc_steps,
                                               "nodes/doc")
    metrics["autodiff.nodes_per_infer_doc"] = (
        infer_counts["autodiff.nodes"] / n_infer, "nodes/doc")
    metrics["autodiff.param_arrays"] = (out.n_params, "count")

    untraced = statistics.harmonic_mean(reference.epoch_docs_per_s[n_train])
    traced = statistics.harmonic_mean(out.epoch_docs_per_s[n_train])
    metrics["trace.overhead_train_docs_per_s"] = (untraced - traced, "docs/s")
    metrics["trace.overhead_share"] = (1.0 - traced / untraced, "fraction")
    return metrics, out


# ---- command line ----------------------------------------------------------


def end_to_end(inputs: Inputs, out: Outcome, peak_rss_mb: float) -> dict:
    """End-to-end metrics as (value, unit); None where training diverged."""
    measured = out.losses is not None
    if measured:
        train_rate = statistics.harmonic_mean(
            out.epoch_docs_per_s[inputs.sample_docs])
        pass_seconds = (statistics.fmean(out.tune_seconds[1:])
                        + statistics.fmean(out.evaluate_seconds[1:]))
    metrics = {
        "setup_s": statistics.median(out.setup_seconds),
        "train_docs_per_s": train_rate if measured else None,
        "eval_docs_per_s": inputs.n_infer / pass_seconds if measured else None,
        "peak_rss_mb": peak_rss_mb,
        "test_f1": out.test_f1,
        "final_train_loss": out.losses[-1] if measured else None,
        "ok_share": 1.0 - out.failed / out.attempted,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the default 0 is the baseline")
    parser.add_argument("--seconds", type=float, default=44.0,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads
    if not (ROOT / "src" / "structrel").is_dir():
        print(f"benchmark: no structrel package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_work" / f"{tag}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(wl, args.seed, work)
        info = {"environment": environment(),
                "workload": describe_inputs(wl, inputs, args.seed)}
        if args.trace:
            # The untraced round is the reference for the traced one.
            reference = run_workload(inputs, 0.0)
            trace_path = ROOT / ".bench_out" / f"trace-{tag}.tsv"
            trace_path.parent.mkdir(exist_ok=True)
            metrics, out = run_traced(inputs, reference, trace_path)
            problems = reference.problems + out.problems
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            info["samples"] = {
                "untraced_epoch_docs_per_s": reference.epoch_docs_per_s[inputs.n_train],
                "traced_epoch_docs_per_s": out.epoch_docs_per_s[inputs.n_train]}
        else:
            out = run_workload(inputs, args.seconds)
            problems = out.problems
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(inputs, out, rss_kib / 1024)
            info["samples"] = {"setup_s": out.setup_seconds,
                               "epoch_docs_per_s":
                                   out.epoch_docs_per_s[inputs.sample_docs],
                               "tune_s": out.tune_seconds,
                               "evaluate_s": out.evaluate_seconds}
            info["sample_medians"] = {
                name: {"n": len(values), "median": statistics.median(values)}
                for name, values in info["samples"].items()}
        info["operations"] = {
            "attempted": out.attempted,
            "failed": out.failed,
            "failed_share": out.failed / out.attempted,
            "probe_share": len(inputs.probes) / out.attempted,
            "probe_outcomes": dict(out.probe_outcomes),
            "probe_messages": out.probe_messages,
        }
        info["problems"] = problems
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": not problems,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
