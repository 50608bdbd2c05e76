"""Seeded fuzzing of every reader: a valid file is cut short at seeded
offsets and has seeded bytes flipped.  A reader may accept the result;
if it rejects it, only a ``CorpusError`` or ``ValueError`` may escape, and
its message must name the file.  A run directory's name lists also get
one line repeated, which ``load_run`` must reject naming that list."""
import json
import re
import shutil

import numpy as np
import pytest

from structrel.autodiff import load_checkpoint, save_checkpoint
from structrel.config import load_config, save_config
from structrel.corpus import CorpusError, parse_corpus, write_corpus
from structrel.harness import load_run, save_run, train
from structrel.synth import SynthSpec, generate_synthetic

from test_harness import small_config


def mutations(data: bytes, seed: int, count: int):
    """``count`` truncations, then ``count`` single-bit flips, of
    ``data``, at offsets and bits drawn from ``seed``.  A flipped bit
    turns a digit into another digit about half the time, and a high bit
    makes the byte invalid UTF-8."""
    rng = np.random.default_rng(seed)
    for offset in rng.integers(0, len(data), size=count):
        yield data[:offset]
    for offset, bit in zip(rng.integers(0, len(data), size=count),
                           rng.integers(0, 8, size=count)):
        flipped = bytearray(data)
        flipped[offset] ^= 1 << bit
        yield bytes(flipped)


def check_reader(read, path, named, data: bytes, seed: int, count: int):
    """Write each mutation of ``data`` to ``path`` and read it back."""
    rejected = 0
    for mutated in mutations(data, seed, count):
        path.write_bytes(mutated)
        try:
            read()
        except (CorpusError, ValueError) as exc:
            assert str(named) in str(exc), (mutated, exc)
            rejected += 1
    assert rejected  # the fuzzing reached the readers' checks
    path.write_bytes(data)


@pytest.fixture(scope="module")
def docs():
    return generate_synthetic(SynthSpec(n_docs=3, seed=4))


@pytest.mark.parametrize("lines", [False, True], ids=["array", "jsonl"])
def test_parse_corpus(tmp_path, docs, lines):
    path = tmp_path / "corpus.json"
    write_corpus(docs, path)
    data = path.read_bytes()
    if lines:  # one object per line
        data = "\n".join(json.dumps(obj) for obj in json.loads(data))
        data = data.encode("utf-8")
    check_reader(lambda: parse_corpus(path), path, path, data, seed=1,
                 count=100)


def test_load_checkpoint(tmp_path):
    path = tmp_path / "checkpoint.bin"
    rng = np.random.default_rng(0)
    save_checkpoint(path, {"embed.word": rng.normal(size=(3, 2)),
                           "layer0.bias.b": rng.normal(size=(1, 5)),
                           "scalar": np.array(0.5)})
    check_reader(lambda: load_checkpoint(path), path, path,
                 path.read_bytes(), seed=2, count=150)


def test_load_config(tmp_path):
    path = tmp_path / "config.txt"
    save_config(small_config(), path)
    check_reader(lambda: load_config(path), path, path, path.read_bytes(),
                 seed=3, count=100)


def test_load_run(tmp_path, docs):
    saved = tmp_path / "saved"
    save_run(saved, train(small_config(epochs=1, d_model=8), docs))
    for i, path in enumerate(sorted(saved.iterdir())):
        if path.name == "train_log.tsv":  # not read back
            continue
        run_dir = tmp_path / f"run{i}"
        shutil.copytree(saved, run_dir)
        target = run_dir / path.name
        check_reader(lambda: load_run(run_dir), target, run_dir,
                     target.read_bytes(), seed=10 + i, count=12)


@pytest.mark.parametrize("name", ["vocab.txt", "etypes.txt", "schema.txt"])
def test_load_run_repeated_line(tmp_path, docs, name):
    # A list file with one of its lines copied to a seeded place, in
    # addition or in place of another line, is rejected naming that file.
    run_dir = tmp_path / "run"
    save_run(run_dir, train(small_config(epochs=1, d_model=8), docs))
    path = run_dir / name
    lines = path.read_text(encoding="utf-8").splitlines()
    rng = np.random.default_rng(5)
    for _ in range(8):
        source, target = rng.integers(0, len(lines), size=2)
        mutated = list(lines)
        if source != target and rng.random() < 0.5:
            mutated[target] = lines[source]
        else:
            mutated.insert(target, lines[source])
        path.write_text("\n".join(mutated) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line ")):
            load_run(run_dir)
