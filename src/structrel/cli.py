"""Command-line entry point.

Subcommands: train, eval, tune-threshold, build-structure, stats, synth,
ablate-deps, ablate-terms, ablate-layers, export-bias.  Every model flag
mirrors a config field (kebab-case) and overrides the ``--config`` file.
The ablation subcommands differ only in their rows; one handler trains
them with :func:`harness.run_ablation` and writes one table.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import harness
from .config import ModelConfig, _parse_value, field_types, load_config
from .corpus import CorpusError, corpus_stats, parse_corpus, write_corpus
from .structure import build_structure_matrix, write_grid
from .synth import SynthSpec, generate_synthetic

_CONFIG_TYPES = field_types()

#: The ablation subcommands and their help; one handler serves them all.
_ABLATIONS = {
    "ablate-deps": "retrain with each dependency excluded",
    "ablate-terms": "retrain per bias-term toggle",
    "ablate-layers": "F1 versus number of structured top layers",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for name, ftype in _CONFIG_TYPES.items():
        # flags parse like config-file values; argparse names the type
        # in its error messages
        parse = functools.partial(_parse_value, ftype=ftype)
        parse.__name__ = ftype.__name__
        parser.add_argument("--" + name.replace("_", "-"), type=parse,
                            default=None,
                            metavar="BOOL" if ftype is bool else None)


def _resolve_config(args: argparse.Namespace) -> ModelConfig:
    overrides = {
        name: getattr(args, name)
        for name in _CONFIG_TYPES
        if getattr(args, name, None) is not None
    }
    if args.config:
        return load_config(args.config, overrides)
    return ModelConfig(**overrides)


def _sanitize(doc_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", doc_id) or "doc"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structrel",
        description="Structured self-attention relation extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save a run directory")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("eval", help="evaluate a saved run on a corpus")
    p.add_argument("--run", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--train-docs", help="corpus whose facts feed Ign metrics")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="directory for report and predictions")

    p = sub.add_parser("tune-threshold",
                       help="pick the F1-maximizing decision threshold")
    p.add_argument("--run", required=True)
    p.add_argument("--dev", required=True, dest="dev_path")
    p.add_argument("--out", help="file to write the threshold to")

    p = sub.add_parser("build-structure",
                       help="export dependency grids for every document")
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("--docs", required=True)
    p.add_argument("--out", help="file for the report (default stdout)")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, default=200)
    p.add_argument("--vocab-size", type=int, default=40)
    p.add_argument("--entities", type=int, default=4)
    p.add_argument("--bridge-fraction", type=float, default=1.0 / 3.0)
    p.add_argument("--sentence-len", default="5,8",
                   help="min,max tokens per sentence")
    p.add_argument("--seed", type=int, default=0)

    for name, help_text in _ABLATIONS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--train", required=True, dest="train_path")
        p.add_argument("--dev", required=True, dest="dev_path")
        if name == "ablate-layers":
            p.add_argument("--ks", required=True, help="comma list, e.g. 0,1,2")
        p.add_argument("--out", required=True, help="report file")
        _add_config_flags(p)

    p = sub.add_parser("export-bias",
                       help="mean attentive bias per layer and dependency")
    p.add_argument("--run", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True, help="heatmap file")
    return parser


def _write_report(out_dir, report, predictions) -> None:
    with open(os.path.join(out_dir, harness.REPORT_FILE), "w",
              encoding="utf-8") as fh:
        fh.write(report.render())
    harness.write_predictions(
        os.path.join(out_dir, harness.PREDICTIONS_FILE), predictions)


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    train_docs = parse_corpus(args.train_path)
    dev_docs = parse_corpus(args.dev_path) if args.dev_path else ()
    result = harness.train(config, train_docs, dev_docs,
                           quiet=not args.verbose)
    result.restore_best()
    harness.save_run(args.out, result)
    if dev_docs:
        report, predictions = harness.evaluate(
            result.model, dev_docs, train_docs=train_docs
        )
        _write_report(args.out, report, predictions)
        print(f"dev F1 {report.f1:.4f} (Ign {report.ign_f1:.4f})")
    print(f"run saved to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = harness.load_run(args.run)
    docs = parse_corpus(args.docs)
    train_docs = parse_corpus(args.train_docs) if args.train_docs else ()
    report, predictions = harness.evaluate(
        model, docs, train_docs=train_docs, threshold=args.threshold
    )
    print(report.render(), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_report(args.out, report, predictions)
    return 0


def _cmd_tune_threshold(args) -> int:
    model = harness.load_run(args.run)
    dev_docs = parse_corpus(args.dev_path)
    theta = harness.tune_threshold(model, dev_docs)
    print(f"{theta:.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"{theta:.6f}\n")
    return 0


def _cmd_build_structure(args) -> int:
    docs = parse_corpus(args.docs)
    os.makedirs(args.out, exist_ok=True)
    for i, doc in enumerate(docs):
        matrix = build_structure_matrix(doc)
        name = f"{i:04d}_{_sanitize(doc.doc_id)}.grid"
        write_grid(matrix, os.path.join(args.out, name))
    print(f"wrote {len(docs)} grids to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    docs = parse_corpus(args.docs)
    report = corpus_stats(docs).render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        print(report, end="")
    return 0


def _flag_int(flag: str, text: str) -> int:
    """One integer of a comma-list flag; a part that is not one names the
    flag."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {text.strip()!r} is not an integer") from None


def _cmd_synth(args) -> int:
    lo, _, hi = args.sentence_len.partition(",")
    spec = SynthSpec(
        n_docs=args.n_docs,
        vocab_size=args.vocab_size,
        entities_per_doc=args.entities,
        sentence_len=(_flag_int("--sentence-len", lo),
                      _flag_int("--sentence-len", hi or lo)),
        bridge_fraction=args.bridge_fraction,
        seed=args.seed,
    )
    docs = generate_synthetic(spec)
    write_corpus(docs, args.out)
    n_facts = sum(len(d.facts) for d in docs)
    print(f"wrote {len(docs)} documents ({n_facts} facts) to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    config = _resolve_config(args)
    if args.command == "ablate-deps":
        rows = harness.dependency_rows(config)
    elif args.command == "ablate-terms":
        rows = harness.term_rows(config)
    else:
        ks = [_flag_int("--ks", part) for part in args.ks.split(",")
              if part.strip()]
        rows = harness.layer_rows(config, ks)
    table = harness.render_ablation_table(harness.run_ablation(
        rows, parse_corpus(args.train_path), parse_corpus(args.dev_path)))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return 0


def _cmd_export_bias(args) -> int:
    model = harness.load_run(args.run)
    docs = parse_corpus(args.docs)
    heatmap = harness.collect_bias_heatmap(model, docs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(heatmap)
    print(f"wrote bias heatmap to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "tune-threshold": _cmd_tune_threshold,
    "build-structure": _cmd_build_structure,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    **dict.fromkeys(_ABLATIONS, _cmd_ablate),
    "export-bias": _cmd_export_bias,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CorpusError, ValueError, OSError, harness.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
