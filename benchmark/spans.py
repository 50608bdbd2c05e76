"""Outside-in span tracer for the structrel benchmark.

The tracer wraps public functions and methods of the ``structrel``
modules at the names their callers look them up by (for example
``harness.encode_document``, which ``harness`` imported from
``batching``), records one span per call, and restores every original
on exit.  Nothing under ``src/`` is edited.

A span is ``(name, phase, epoch, start, end, parent)``.  Spans stay in
memory until the run writes them out; self time is a span's duration
minus the durations of its direct children.  ``Tensor.__init__`` and
``encoder.type_bias`` are counted rather than spanned: a span per graph
node would cost more than the work it measures, and ``type_bias`` time
belongs to ``encoder.structured_scores``, whose cost the per-type bias
makes up.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from structrel import autodiff, batching, encoder, harness, model

# (owner, attribute, span name).  The owner is the namespace the caller
# resolves the name in, so a function imported into two modules appears
# twice under one span name.
SPANNED = (
    (harness, "make_batches", "harness.make_batches"),
    (batching, "encode_document", "batching.encode_document"),
    (harness, "encode_document", "batching.encode_document"),
    (batching, "build_structure_matrix", "batching.build_structure_matrix"),
    (batching, "truncate_document", "batching.truncate_document"),
    (model, "encoder_forward", "model.encoder_forward"),
    (encoder, "project_qkv", "encoder.project_qkv"),
    (encoder, "structured_scores", "encoder.structured_scores"),
    (encoder, "attend", "encoder.attend"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff.Adam, "step", "autodiff.adam_step"),
    (autodiff.Adam, "zero_grad", "autodiff.zero_grad"),
    (harness, "evaluate_facts", "metrics.evaluate_facts"),
) + tuple(
    (model.RelationExtractor, name, f"model.{name}")
    for name in ("embed_inputs", "pool_entities", "pair_features",
                 "score_relations", "forward", "compute_loss", "predict",
                 "make_optimizer", "parameter_arrays",
                 "load_parameter_arrays")
)

NA = 0  # structure.DependencyType.NA


class Tracer:
    """Spans and counts for one traced pass, tagged by phase and epoch.

    ``phase`` is set by the caller around each benchmark phase; spans and
    counts outside a phase are dropped.  In the ``train`` phase each call
    of ``harness.make_batches`` starts a new epoch, so per-epoch counts
    can be checked for exact repetition.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # (name, phase, epoch) -> total
        self.phase: str | None = None
        self.epoch = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ---- recording -------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            if name == "harness.make_batches" and tracer.phase == "train":
                tracer.epoch += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, tracer.phase, tracer.epoch,
                                       start, end, parent)

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        if self.phase is not None:
            self.counts[(name, self.phase, self.epoch)] += amount

    def measure(self, name: str, phase: str, fn, *args, **kwargs):
        """Run ``fn`` as a top-level span of ``phase``."""
        self.phase = phase
        self.epoch = -1
        try:
            return self.span(name, fn)(*args, **kwargs)
        finally:
            self.phase = None

    # ---- installing ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        tracer = self

        tensor_init = autodiff.Tensor.__init__

        @functools.wraps(tensor_init)
        def counted_init(node, *args, **kwargs):
            tensor_init(node, *args, **kwargs)
            tracer.count("autodiff.nodes")

        self._patch(autodiff.Tensor, "__init__", counted_init)

        type_bias = encoder.type_bias

        @functools.wraps(type_bias)
        def counted_type_bias(*args, **kwargs):
            out = type_bias(*args, **kwargs)
            tracer.count("encoder.bias_cells", out.values.size)
            return out

        self._patch(encoder, "type_bias", counted_type_bias)

        forward = model.encoder_forward  # already spanned above

        @functools.wraps(forward)
        def counted_forward(store, x, structure, *args, **kwargs):
            tracer.count("structure.structured_cells",
                         int(np.count_nonzero(structure.codes != NA)))
            return forward(store, x, structure, *args, **kwargs)

        self._patch(model, "encoder_forward", counted_forward)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- reading ---------------------------------------------------------

    def self_ms(self) -> dict[tuple[str, str], float]:
        """Summed self time in milliseconds per (span name, phase)."""
        child_time = defaultdict(float)
        for name, phase, epoch, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, phase, epoch, start, end, parent) in enumerate(self.spans):
            out[(name, phase)] += (end - start - child_time[i]) * 1e3
        return out

    def calls(self) -> Counter:
        """Span count per (name, phase, epoch)."""
        return Counter((s[0], s[1], s[2]) for s in self.spans)

    def totals(self, phase: str) -> Counter:
        """Counts and span calls of one phase, summed over epochs."""
        out = Counter()
        for (name, ph, _), n in self.counts.items():
            if ph == phase:
                out[name] += n
        for (name, ph, _), n in self.calls().items():
            if ph == phase:
                out[name + ".calls"] += n
        return out

    def per_epoch(self, phase: str = "train") -> dict[int, Counter]:
        """Counts and span calls of one phase, per epoch."""
        out: dict[int, Counter] = defaultdict(Counter)
        for (name, ph, epoch), n in self.counts.items():
            if ph == phase:
                out[epoch][name] += n
        for (name, ph, epoch), n in self.calls().items():
            if ph == phase:
                out[epoch][name + ".calls"] += n
        return out

    def write(self, path) -> None:
        """One span per line: name, phase, epoch, start and end in
        nanoseconds from the first span, and the parent's line index."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tphase\tepoch\tstart_ns\tend_ns\tparent\n")
            for i, (name, phase, epoch, start, end, parent) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{name}\t{phase}\t{epoch}\t"
                    f"{round((start - origin) * 1e9)}\t"
                    f"{round((end - origin) * 1e9)}\t{parent}\n"
                )
