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
from typing import Iterable, Iterator

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

    @cached_property
    def slots(self) -> QuerySlots:
        """The cells on a dense grid of the query slots they use."""
        rows, cols, types = self.cells
        used, inverse = np.unique(rows * len(STRUCTURED_TYPES) + types,
                                  return_inverse=True)
        flat = inverse * self.n + cols
        for arr in (used, flat):
            arr.setflags(write=False)
        return QuerySlots(used, flat)


@dataclass(frozen=True)
class PackedStructure:
    """The structures of documents whose tokens are stacked as rows:
    ``matrices[i]`` covers rows ``bounds[i]`` to ``bounds[i + 1]``.

    No cell joins two documents; their tokens never attend to each
    other.
    """

    matrices: tuple[StructureMatrix, ...]
    bounds: np.ndarray  # (len(matrices) + 1,) row offsets, from 0

    @classmethod
    def of(cls, matrices: Iterable[StructureMatrix]) -> PackedStructure:
        matrices = tuple(matrices)
        bounds = np.zeros(len(matrices) + 1, dtype=np.int64)
        np.cumsum([m.n for m in matrices], out=bounds[1:])
        bounds.setflags(write=False)
        return cls(matrices, bounds)

    @property
    def n(self) -> int:
        return int(self.bounds[-1])

    def segments(self) -> Iterator[tuple[int, int, StructureMatrix]]:
        """``(lo, hi, matrix)`` per document, in row order."""
        return zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist(),
                   self.matrices)

    @cached_property
    def codes(self) -> np.ndarray:
        """The (n, n) grid with every document's codes on its own block
        of the diagonal and NA elsewhere, read-only; built on first use,
        as nothing in the model reads it."""
        codes = np.zeros((self.n, self.n), dtype=np.int8)
        for lo, hi, matrix in self.segments():
            codes[lo:hi, lo:hi] = matrix.codes
        codes.setflags(write=False)
        return codes


@dataclass(frozen=True)
class QuerySlots:
    """The structured cells laid out on a grid whose rows are query slots.

    A query slot is a query token and a type, ``token * 5 + type``.
    ``used`` holds the slots that have at least one cell, ascending, and
    ``flat`` the position of each cell of :attr:`StructureMatrix.cells`
    in a (len(used), n) grid of those slots by key token.  No two cells
    share a position.  Both arrays are read-only.
    """

    used: np.ndarray
    flat: np.ndarray


def build_structure_matrix(doc) -> StructureMatrix:
    """Materialize the dependency grid for a document.

    The document is checked by :func:`validate_document` first, which
    names the offending mention of any bad span or overlap.  The decision
    table is evaluated for all pairs at once from two per-token arrays,
    the sentence index and the entity index (-1 outside every mention).
    """
    validate_document(doc)
    sent = np.repeat(np.arange(len(doc.sentences)),
                     [len(s) for s in doc.sentences])
    n = doc.token_count()
    ent = np.full(n, -1, dtype=np.int64)
    for e_idx, entity in enumerate(doc.entities):
        for mention in entity.mentions:
            lo, hi = doc.global_span(mention)
            ent[lo:hi] = e_idx
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


# On-disk grid format: one tab-separated text header line "doc_id<TAB>n",
# then n*n raw bytes, row-major, coded per DependencyType.

def write_grid(m: StructureMatrix, path) -> None:
    header = f"{m.doc_id}\t{m.n}\n".encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(m.codes.astype(np.uint8).tobytes(order="C"))
