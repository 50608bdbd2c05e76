"""Every ``structrel`` subcommand, run through ``cli.main`` on a small
synthetic corpus, and the one-line error of a malformed corpus."""
import json

import pytest

from structrel import cli

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
