"""Every ``structrel`` subcommand, run through ``cli.main`` on a small
synthetic corpus, and the one-line error of a malformed corpus."""
import json
import shutil

import pytest

from structrel import cli
from structrel.batching import TruncationWarning
from structrel.config import ModelConfig
from structrel.encoder import dep_name
from structrel.model import RelationExtractor
from structrel.structure import STRUCTURED_TYPES

# One epoch of a one-layer, d_model 8 model keeps each training short.
MODEL_FLAGS = ["--epochs", "1", "--layers", "1", "--d-model", "8",
               "--heads", "2", "--d-dist", "4"]


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train, dev = root / "train.json", root / "dev.json"
    assert run(["synth", "--out", train, "--n-docs", 8, "--seed", 1]) == 0
    assert run(["synth", "--out", dev, "--n-docs", 4, "--seed", 2]) == 0
    return root, train, dev


@pytest.fixture(scope="module")
def run_dir(corpus):
    root, train, dev = corpus
    out = root / "run"
    assert run(["train", "--train", train, "--dev", dev, "--out", out]
               + MODEL_FLAGS) == 0
    return out


def test_synth(tmp_path):
    out = tmp_path / "synth.json"
    assert run(["synth", "--out", out, "--n-docs", 3, "--entities", 5,
                "--sentence-len", "4,6"]) == 0
    assert len(json.loads(out.read_text())) == 3


def test_train(run_dir):
    for name in ("config.txt", "vocab.txt", "etypes.txt", "schema.txt",
                 "checkpoint.bin", "train_log.tsv", "dev_report.txt",
                 "predictions.tsv"):
        assert (run_dir / name).is_file(), name


def test_eval(corpus, run_dir, tmp_path):
    _, train, dev = corpus
    out = tmp_path / "eval"
    assert run(["eval", "--run", run_dir, "--docs", dev, "--train-docs",
                train, "--out", out]) == 0
    assert (out / "dev_report.txt").is_file()
    assert (out / "predictions.tsv").is_file()


def test_tune_threshold(corpus, run_dir, tmp_path):
    out = tmp_path / "theta.txt"
    assert run(["tune-threshold", "--run", run_dir, "--dev", corpus[2],
                "--out", out]) == 0
    assert 0.0 < float(out.read_text()) < 1.0


def test_build_structure(corpus, tmp_path):
    out = tmp_path / "grids"
    assert run(["build-structure", "--docs", corpus[2], "--out", out]) == 0
    assert len(list(out.glob("*.grid"))) == 4


def test_stats(corpus, tmp_path):
    out = tmp_path / "stats.txt"
    assert run(["stats", "--docs", corpus[1], "--out", out]) == 0
    assert out.read_text()


@pytest.mark.parametrize("command, extra, rows", [
    ("ablate-deps", [], 7),
    ("ablate-terms", [], 7),
    ("ablate-layers", ["--ks", "0,1"], 2),
])
def test_ablations(corpus, tmp_path, command, extra, rows):
    _, train, dev = corpus
    out = tmp_path / "table.tsv"
    assert run([command, "--train", train, "--dev", dev, "--out", out]
               + extra + MODEL_FLAGS) == 0
    assert len(out.read_text().splitlines()) == 1 + rows


def test_export_bias(corpus, run_dir, tmp_path):
    out = tmp_path / "heatmap.tsv"
    assert run(["export-bias", "--run", run_dir, "--docs", corpus[2],
                "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6


ALL_DEPS = ",".join(dep_name(dep) for dep in STRUCTURED_TYPES)


@pytest.mark.parametrize("flags, setting", [
    (["--mode", "none"], "mode = none"),
    (["--mode", "decomp", "--bias-query", "false", "--bias-key", "false",
      "--bias-prior", "false"], "mode = decomp with every bias term false"),
    (["--structured-layers", "none"], "structured_layers = none"),
    (["--excluded-deps", ALL_DEPS], f"excluded_deps = {ALL_DEPS}"),
], ids=["mode", "terms", "layers", "deps"])
def test_export_bias_of_an_unbiased_run_names_config_and_setting(
        corpus, tmp_path, capsys, monkeypatch, flags, setting):
    _, train, dev = corpus
    out = tmp_path / "run"
    assert run(["train", "--train", train, "--out", out]
               + MODEL_FLAGS + flags) == 0
    capsys.readouterr()
    # refused before any forward pass
    monkeypatch.setattr(RelationExtractor, "forward", None)
    heatmap = tmp_path / "heatmap.tsv"
    assert run(["export-bias", "--run", out, "--docs", dev,
                "--out", heatmap]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'config.txt'}: {setting} gives no layer a "
        f"structural bias to export\n")
    assert not heatmap.exists()


def test_export_bias_over_a_corpus_without_structure_names_the_corpus(
        run_dir, tmp_path, capsys):
    # no entity, so every token pair is NA
    docs = tmp_path / "plain.json"
    docs.write_text(json.dumps([{"title": "plain", "sents": [["a", "b"]],
                                 "vertexSet": [], "labels": []}]))
    heatmap = tmp_path / "heatmap.tsv"
    assert run(["export-bias", "--run", run_dir, "--docs", docs,
                "--out", heatmap]) == 1
    assert capsys.readouterr().err == (
        f"error: {docs}: no document has a structured cell in a biased "
        f"layer; no bias records to export\n")
    assert not heatmap.exists()


MALFORMED = {
    "title": {"title": 5},
    "type": {"vertexSet": [
        [{"name": "Ada", "sent_id": 0, "pos": [0, 1], "type": 5}],
        [{"name": "math", "sent_id": 1, "pos": [2, 3], "type": "Y"}],
    ]},
}


@pytest.mark.parametrize("command", ["stats", "build-structure", "train"])
@pytest.mark.parametrize("field", sorted(MALFORMED))
def test_malformed_corpus_is_one_error_line(tmp_path, capsys, command,
                                            field):
    doc = {"title": "mini",
           "sents": [["Ada", "wrote", "programs"], ["Ada", "loved", "math"]],
           "vertexSet": [[{"name": "Ada", "sent_id": 0, "pos": [0, 1],
                           "type": "PER"}]],
           "labels": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{**doc, **MALFORMED[field]}]))
    argv = {
        "stats": ["stats", "--docs", path],
        "build-structure": ["build-structure", "--docs", path,
                            "--out", tmp_path / "grids"],
        "train": ["train", "--train", path, "--out", tmp_path / "run"]
                 + MODEL_FLAGS,
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, data, offset", [
    ("stats", b"[]\n\xff\n", 3),
    ("train", b"layers = 1\n\xff\n", 11),
])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, command, data,
                                          offset):
    path = tmp_path / "latin.txt"
    path.write_bytes(data)
    argv = {
        "stats": ["stats", "--docs", path],
        "train": ["train", "--train", path, "--config", path,
                  "--out", tmp_path / "run"],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}: byte 0xff at offset {offset} is not "
                   f"UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("data, message", [
    (b"r0\nr1\xff\n",
     "byte 0xff at offset 5 is not UTF-8 (invalid start byte)"),
    (b"r0\nr1\n\n r0 \n", "line 4 repeats line 1, 'r0'"),
    (b"r0\n", "training relations ['r1'] are not listed"),
], ids=["non-utf8", "repeat", "unlisted"])
def test_schema_file_errors_name_the_file(corpus, tmp_path, capsys, data,
                                          message):
    _, train, _ = corpus
    path = tmp_path / "schema.txt"
    path.write_bytes(data)
    assert run(["train", "--train", train, "--out", tmp_path / "run",
                "--schema-path", path] + MODEL_FLAGS) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_unknown_excluded_dependency_names_the_field(corpus, tmp_path,
                                                    capsys):
    _, train, _ = corpus
    assert run(["train", "--train", train, "--out", tmp_path / "run",
                "--excluded-deps", "foo"] + MODEL_FLAGS) == 1
    assert capsys.readouterr().err == (
        "error: excluded_deps: unknown dependency type 'foo'\n")


@pytest.mark.parametrize("mode, toggles", [
    # the file names no mode, so it is in the default mode, biaffine
    ("biaffine", (True, False, False, False)),
    ("decomp", (False, True, True, True)),
])
def test_mode_flag_over_a_config_without_mode(tmp_path, mode, toggles):
    path = tmp_path / "c.txt"
    path.write_text("bias_prior = false\n")
    args = cli.build_parser().parse_args(
        ["train", "--train", "t.json", "--out", "run", "--config", str(path),
         "--mode", mode])
    cfg = cli._resolve_config(args)
    assert (cfg.bias_core, cfg.bias_query, cfg.bias_key,
            cfg.bias_prior) == toggles


@pytest.mark.parametrize("argv, message", [
    (["ablate-layers", "--ks", "0,a"], "--ks: 'a' is not an integer"),
    (["synth", "--sentence-len", "5,x"],
     "--sentence-len: 'x' is not an integer"),
])
def test_integer_list_flag_names_flag(corpus, tmp_path, capsys, argv,
                                      message):
    _, train, dev = corpus
    extra = (["--train", train, "--dev", dev] if argv[0] == "ablate-layers"
             else [])
    assert run(argv + extra + ["--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


BELOW_MINIMUM = [("heads", 0, 1), ("heads", -2, 1), ("d_model", 0, 1),
                 ("max_len", 0, 1), ("batch_size", 0, 1), ("layers", -1, 0),
                 ("ffn_mult", -1, 0), ("d_dist", -1, 0), ("coref_cap", -1, 0),
                 ("epochs", -1, 0), ("vocab_min_count", -1, 0)]


@pytest.mark.parametrize("name, value, least", BELOW_MINIMUM)
def test_flag_below_its_minimum_names_the_field(corpus, tmp_path, capsys,
                                                name, value, least):
    _, train, _ = corpus
    out = tmp_path / "run"
    assert run(["train", "--train", train, "--out", out] + MODEL_FLAGS
               + ["--" + name.replace("_", "-"), value]) == 1
    assert capsys.readouterr().err == (
        f"error: {name} must be at least {least}, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("name, value, least", BELOW_MINIMUM)
def test_run_config_below_a_minimum_names_file_and_field(
        corpus, run_dir, tmp_path, capsys, name, value, least):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    config = copy / "config.txt"
    lines = config.read_text().splitlines()
    lines = [f"{name} = {value}" if line.startswith(f"{name} = ") else line
             for line in lines]
    config.write_text("\n".join(lines) + "\n")
    assert run(["eval", "--run", copy, "--docs", corpus[2]]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: {name} must be at least {least}, got {value}\n")


def with_entity_type(src, dest, etype):
    """A copy of the corpus ``src`` whose first document's second entity
    has the type ``etype``; returns that document's title."""
    docs = json.loads(src.read_text())
    for mention in docs[0]["vertexSet"][1]:
        mention["type"] = etype
    dest.write_text(json.dumps(docs))
    return docs[0]["title"]


@pytest.mark.parametrize("command", ["eval", "tune-threshold", "export-bias"])
def test_unseen_entity_type_names_corpus_document_and_run(
        corpus, run_dir, tmp_path, capsys, command):
    path = tmp_path / "loc.json"
    title = with_entity_type(corpus[2], path, "LOC")
    argv = {
        "eval": ["eval", "--run", run_dir, "--docs", path],
        "tune-threshold": ["tune-threshold", "--run", run_dir, "--dev", path],
        "export-bias": ["export-bias", "--run", run_dir, "--docs", path,
                        "--out", tmp_path / "heatmap.tsv"],
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: doc {title!r}: entity type 'LOC' is not in "
        f"{run_dir / 'etypes.txt'}\n")


@pytest.mark.parametrize("command", ["train", "ablate-deps"])
def test_dev_entity_type_unseen_in_training_names_both_corpora(
        corpus, tmp_path, capsys, monkeypatch, command):
    _, train, dev = corpus
    path = tmp_path / "loc.json"
    title = with_entity_type(dev, path, "LOC")
    # refused before any training
    monkeypatch.setattr(RelationExtractor, "forward", None)
    assert run([command, "--train", train, "--dev", path,
                "--out", tmp_path / "out"] + MODEL_FLAGS) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: doc {title!r}: entity type 'LOC' is not in "
        f"{train}\n")


@pytest.mark.parametrize("command", ["eval", "train"])
def test_unseen_entity_type_beyond_max_len_is_cut_not_refused(
        corpus, run_dir, tmp_path, command):
    _, train, dev = corpus
    docs = json.loads(dev.read_text())
    # a sentence as long as max_len, so beyond the cut, ending in a LOC
    cut = ModelConfig().max_len
    tokens = [f"w{i % 30}" for i in range(cut)]
    docs[0]["sents"].append(tokens)
    docs[0]["vertexSet"].append([{
        "name": tokens[-1], "sent_id": len(docs[0]["sents"]) - 1,
        "pos": [cut - 1, cut], "type": "LOC"}])
    path = tmp_path / "far_loc.json"
    path.write_text(json.dumps(docs))
    argv = {
        "eval": ["eval", "--run", run_dir, "--docs", path],
        "train": ["train", "--train", train, "--dev", path,
                  "--max-len", cut] + MODEL_FLAGS,
    }[command]
    with pytest.warns(TruncationWarning):
        assert run(argv + ["--out", tmp_path / "out"]) == 0


def test_more_entities_than_coref_cap_names_corpus_and_setting(tmp_path,
                                                              capsys):
    # 70 one-token entities on the even tokens of one 140-token sentence
    tokens = [f"w{i % 30}" for i in range(140)]
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps([{
        "title": "crowded", "sents": [tokens],
        "vertexSet": [[{"name": tokens[2 * i], "sent_id": 0,
                        "pos": [2 * i, 2 * i + 1], "type": "ENT"}]
                      for i in range(70)],
        "labels": [{"h": 0, "t": 1, "r": "r0"}]}]))
    argv = ["train", "--train", path, "--out", tmp_path / "run"] + MODEL_FLAGS
    assert run(argv + ["--max-len", 400]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: doc 'crowded': 70 entities within max_len = 400 "
        f"exceed coref_cap = 64\n")
    # the cut at 100 tokens leaves the first 50 entities
    assert run(argv + ["--max-len", 100, "--coref-cap", 49]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: doc 'crowded': 50 entities within max_len = 100 "
        f"exceed coref_cap = 49\n")
    with pytest.warns(UserWarning):
        assert run(argv + ["--max-len", 100, "--coref-cap", 50]) == 0


@pytest.mark.parametrize("compute_dtype", ["float32", "float64"],
                         indirect=True)
def test_eval_of_a_saved_run_repeats_the_training_report(corpus, tmp_path,
                                                         compute_dtype):
    _, train, dev = corpus
    out = tmp_path / "run"
    assert run(["train", "--train", train, "--dev", dev, "--out", out]
               + MODEL_FLAGS) == 0
    again = tmp_path / "eval"
    assert run(["eval", "--run", out, "--docs", dev, "--train-docs", train,
                "--out", again]) == 0
    for name in ("dev_report.txt", "predictions.tsv"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
