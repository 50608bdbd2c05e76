"""Token-pair dependency classification and structure matrices.

Every ordered pair of document tokens is assigned one of six dependency
types.  Mention-mention pairs combine sentence co-occurrence (intra/inter)
with entity coreference (coref/relate); a mention token paired with a
non-entity token in the same sentence is ``INTRA_NE``; everything else,
including all pairs of non-entity tokens, is ``NA``.  ``NA`` carries no
parameters downstream, so an all-NA matrix makes the encoder behave exactly
like its unstructured baseline.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .corpus import validate_document


class DependencyType(IntEnum):
    """Six-way token-pair dependency taxonomy.

    Integer codes double as the on-disk byte encoding: 0 is NA,
    5 is INTRA_COREF.
    """

    NA = 0
    INTRA_NE = 1
    INTER_RELATE = 2
    INTRA_RELATE = 3
    INTER_COREF = 4
    INTRA_COREF = 5


#: The five types that carry learned bias parameters, in code order.
STRUCTURED_TYPES = (
    DependencyType.INTRA_NE,
    DependencyType.INTER_RELATE,
    DependencyType.INTRA_RELATE,
    DependencyType.INTER_COREF,
    DependencyType.INTRA_COREF,
)


@dataclass(frozen=True)
class TokenAnnotation:
    """Per-token view of sentence and mention membership.

    ``entity_index`` and ``mention_index`` are either both present or both
    absent; non-entity tokens carry neither.
    """

    sentence_index: int
    entity_index: Optional[int] = None
    mention_index: Optional[int] = None

    def __post_init__(self):
        if (self.entity_index is None) != (self.mention_index is None):
            raise ValueError(
                "entity_index and mention_index must be both set or both absent"
            )

    @property
    def in_mention(self) -> bool:
        return self.entity_index is not None


def classify_dependency(a: TokenAnnotation, b: TokenAnnotation) -> DependencyType:
    """Classify the dependency between two tokens of the same document.

    Total and symmetric: the decision table only consults sentence
    equality, mention membership, and entity equality.
    """
    if a.in_mention and b.in_mention:
        same_sentence = a.sentence_index == b.sentence_index
        same_entity = a.entity_index == b.entity_index
        if same_entity:
            return DependencyType.INTRA_COREF if same_sentence else DependencyType.INTER_COREF
        return DependencyType.INTRA_RELATE if same_sentence else DependencyType.INTER_RELATE
    if a.in_mention or b.in_mention:
        if a.sentence_index == b.sentence_index:
            return DependencyType.INTRA_NE
        return DependencyType.NA
    return DependencyType.NA


@dataclass(frozen=True)
class StructureMatrix:
    """n x n grid of dependency codes over a document's tokens."""

    doc_id: str
    codes: np.ndarray  # int8, shape (n, n)

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int8)
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1]:
            raise ValueError(f"structure matrix must be square, got {codes.shape}")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def dep(self, i: int, j: int) -> DependencyType:
        return DependencyType(int(self.codes[i, j]))

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-NA cells in row-major order, as ``(rows, cols, types)``.

        ``types[i]`` indexes :data:`STRUCTURED_TYPES`.  ``codes`` is
        read-only, so the arrays are computed once per matrix.
        """
        rows, cols = np.nonzero(self.codes)
        types = self.codes[rows, cols].astype(np.int64) - 1
        for arr in (rows, cols, types):
            arr.setflags(write=False)
        return rows, cols, types


def token_annotations(doc) -> list[TokenAnnotation]:
    """Flatten a document into one annotation per token.

    The document is checked by :func:`validate_document` first, which
    names the offending mention of any bad span or overlap.
    """
    validate_document(doc)
    n = doc.token_count()
    sent_of = []
    for s_idx, sent in enumerate(doc.sentences):
        sent_of.extend([s_idx] * len(sent))
    entity_of: list[Optional[int]] = [None] * n
    mention_of: list[Optional[int]] = [None] * n
    mention_counter = 0
    for e_idx, entity in enumerate(doc.entities):
        for mention in entity.mentions:
            lo, hi = doc.global_span(mention)
            for t in range(lo, hi):
                entity_of[t] = e_idx
                mention_of[t] = mention_counter
            mention_counter += 1
    return [
        TokenAnnotation(sent_of[t], entity_of[t], mention_of[t]) for t in range(n)
    ]


def build_structure_matrix(doc) -> StructureMatrix:
    """Materialize the dependency grid for a document.

    Vectorized over the same decision table as :func:`classify_dependency`.
    """
    anns = token_annotations(doc)
    n = len(anns)
    sent = np.array([a.sentence_index for a in anns], dtype=np.int64)
    ent = np.array(
        [a.entity_index if a.entity_index is not None else -1 for a in anns],
        dtype=np.int64,
    )
    in_mention = ent >= 0

    same_sent = sent[:, None] == sent[None, :]
    both = in_mention[:, None] & in_mention[None, :]
    one = in_mention[:, None] ^ in_mention[None, :]
    same_ent = (ent[:, None] == ent[None, :]) & both

    codes = np.full((n, n), DependencyType.NA, dtype=np.int8)
    codes[both & same_ent & same_sent] = DependencyType.INTRA_COREF
    codes[both & same_ent & ~same_sent] = DependencyType.INTER_COREF
    codes[both & ~same_ent & same_sent] = DependencyType.INTRA_RELATE
    codes[both & ~same_ent & ~same_sent] = DependencyType.INTER_RELATE
    codes[one & same_sent] = DependencyType.INTRA_NE
    return StructureMatrix(doc.doc_id, codes)


def apply_ablation(
    m: StructureMatrix, excluded: Iterable[DependencyType]
) -> StructureMatrix:
    """Replace every cell of an excluded type with NA.

    Idempotent and monotone; excluding nothing returns an equal matrix.
    NA itself cannot be excluded.
    """
    excluded = set(excluded)
    if DependencyType.NA in excluded:
        raise ValueError("NA cannot be excluded; it is the absence of structure")
    for dep in excluded:
        if dep not in STRUCTURED_TYPES:
            raise ValueError(f"unknown dependency type in exclusion set: {dep!r}")
    if not excluded:
        return StructureMatrix(m.doc_id, m.codes.copy())
    mask = np.isin(m.codes, [int(d) for d in excluded])
    codes = np.where(mask, np.int8(DependencyType.NA), m.codes)
    return StructureMatrix(m.doc_id, codes)


def dependency_histogram(m: StructureMatrix) -> dict[DependencyType, int]:
    """Count cells per dependency type; counts sum to n*n."""
    counts = np.bincount(m.codes.ravel(), minlength=len(DependencyType))
    return {dep: int(counts[dep.value]) for dep in DependencyType}


# On-disk grid format: one tab-separated text header line "doc_id<TAB>n",
# then n*n raw bytes, row-major, coded per DependencyType.

def write_grid(m: StructureMatrix, path) -> None:
    header = f"{m.doc_id}\t{m.n}\n".encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(m.codes.astype(np.uint8).tobytes(order="C"))


def read_grid(path) -> StructureMatrix:
    with open(path, "rb") as fh:
        header = bytearray()
        while True:
            ch = fh.read(1)
            if not ch:
                raise ValueError(f"{path}: truncated grid header")
            if ch == b"\n":
                break
            header.extend(ch)
        try:
            doc_id, n_text = header.decode("utf-8").rsplit("\t", 1)
            n = int(n_text)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed grid header") from exc
        body = fh.read(n * n)
    if len(body) != n * n:
        raise ValueError(f"{path}: expected {n * n} cells, found {len(body)}")
    codes = np.frombuffer(body, dtype=np.uint8).reshape(n, n).astype(np.int8)
    if codes.max(initial=0) >= len(DependencyType):
        raise ValueError(f"{path}: cell value outside the dependency code range")
    return StructureMatrix(doc_id, codes)
