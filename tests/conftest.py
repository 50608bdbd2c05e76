import math

import numpy as np
import pytest

from structrel import model
from structrel.corpus import Document, Entity, Mention


@pytest.fixture
def compute_dtype(request, monkeypatch) -> np.dtype:
    """The dtype that models built in the test compute in: float64, as
    exact and finite-difference comparisons need, or the dtype the test
    parametrizes this fixture with indirectly."""
    dtype = np.dtype(getattr(request, "param", np.float64))
    monkeypatch.setattr(model, "COMPUTE_DTYPE", dtype)
    return dtype


#: Marks a test whose models compute in float64.
float64 = pytest.mark.usefixtures("compute_dtype")


@pytest.fixture
def two_sentence_doc() -> Document:
    """Two sentences, three entities, one cross-sentence coreference and
    one two-token mention; the canonical small worked example."""
    return Document(
        doc_id="two-sentence",
        sentences=(
            ("Alice", "visited", "Paris", "yesterday"),
            ("She", "loves", "Notre", "Dame"),
        ),
        entities=(
            Entity("PER", (
                Mention(sent_id=0, start=0, end=1, name="Alice"),
                Mention(sent_id=1, start=0, end=1, name="She"),
            )),
            Entity("LOC", (Mention(sent_id=0, start=2, end=3, name="Paris"),)),
            Entity("LOC", (Mention(sent_id=1, start=2, end=4, name="Notre Dame"),)),
        ),
        facts=(),
    )


# Hand-transcribed dependency grid for two_sentence_doc.  Tokens:
# 0 Alice(E0)  1 visited  2 Paris(E1)  3 yesterday
# 4 She(E0)    5 loves    6 Notre(E2)  7 Dame(E2)
# Codes: NA=0, NE=intraNE=1, XR=inter_relate=2, IR=intra_relate=3,
# XC=inter_coref=4, IC=intra_coref=5.
NA, NE, XR, IR, XC, IC = 0, 1, 2, 3, 4, 5
TWO_SENTENCE_GRID = [
    [IC, NE, IR, NE, XC, NA, XR, XR],
    [NE, NA, NE, NA, NA, NA, NA, NA],
    [IR, NE, IC, NE, XR, NA, XR, XR],
    [NE, NA, NE, NA, NA, NA, NA, NA],
    [XC, NA, XR, NA, IC, NE, IR, IR],
    [NA, NA, NA, NA, NE, NA, NE, NE],
    [XR, NA, XR, NA, IR, NE, IC, IC],
    [XR, NA, XR, NA, IR, NE, IC, IC],
]


def random_document(rng: np.random.Generator, doc_id: str = "random") -> Document:
    """Random sentences with random disjoint mention spans grouped into
    entities; facts stay empty."""
    n_sents = int(rng.integers(1, 5))
    sent_lens = [int(rng.integers(1, 9)) for _ in range(n_sents)]
    sentences = tuple(
        tuple(f"tok{s}_{i}" for i in range(length))
        for s, length in enumerate(sent_lens)
    )
    spans = []
    for s, length in enumerate(sent_lens):
        pos = 0
        while pos < length:
            if rng.random() < 0.35:
                span_len = int(rng.integers(1, min(3, length - pos) + 1))
                spans.append((s, pos, pos + span_len))
                pos += span_len + 1
            else:
                pos += 1
    entities = []
    if spans:
        n_groups = int(rng.integers(1, len(spans) + 1))
        assignment = rng.integers(0, n_groups, size=len(spans))
        for g in range(n_groups):
            mentions = tuple(
                Mention(sent_id=s, start=lo, end=hi, name=f"m{s}_{lo}")
                for (s, lo, hi), a in zip(spans, assignment)
                if a == g
            )
            if mentions:
                entities.append(Entity("ENT", mentions))
    return Document(doc_id, sentences, tuple(entities), ())


def raw_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Reference attention scores without structure: scaled query-key dot
    products, (n, n), in the operation order of the encoder."""
    return (q @ k.T) * (1.0 / math.sqrt(q.shape[-1]))
