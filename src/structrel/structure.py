"""Token-pair dependency classification and structure matrices.

Every ordered pair of document tokens is assigned one of six dependency
types.  Mention-mention pairs combine sentence co-occurrence (intra/inter)
with entity coreference (coref/relate); a mention token paired with a
non-entity token in the same sentence is ``INTRA_NE``; everything else,
including all pairs of non-entity tokens, is ``NA``.  ``NA`` carries no
parameters downstream, so an all-NA matrix makes the encoder behave exactly
like its unstructured baseline.

A matrix also names the tokens whose encoder output entity pooling reads
(``StructureMatrix.read``); the encoder's last block computes only their
queries, against the cells of :attr:`StructureMatrix.read_cells`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Optional

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


def _nonzero_cells(codes: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-NA cells of a grid of codes in row-major order, as
    ``(rows, cols, types)``, read-only; ``types[i]`` indexes
    :data:`STRUCTURED_TYPES`."""
    rows, cols = np.nonzero(codes)
    types = codes[rows, cols].astype(np.int64) - 1
    for arr in (rows, cols, types):
        arr.setflags(write=False)
    return rows, cols, types


def _query_slots(cells: tuple[np.ndarray, np.ndarray, np.ndarray],
                 n: int) -> QuerySlots:
    """The :class:`QuerySlots` of ``cells``, ``(rows, cols, types)``
    against ``n`` key tokens: one ``np.unique`` of the slots."""
    rows, cols, types = cells
    used, inverse = np.unique(rows * len(STRUCTURED_TYPES) + types,
                              return_inverse=True)
    flat = inverse * n + cols
    for arr in (used, flat):
        arr.setflags(write=False)
    return QuerySlots(used, flat)


@dataclass(frozen=True)
class StructureMatrix:
    """A document's dependency codes, an n x n grid of query token by key
    token, and ``read``, the tokens whose encoder output entity pooling
    reads, ascending: its entities' mention tokens, or every token when
    none are given.

    As the cells of its queries (:attr:`cells`, :attr:`slots`) a matrix
    has ``queries == n`` rows; :attr:`read_cells` gives the m read
    tokens' queries against every key.
    """

    doc_id: str
    codes: np.ndarray  # int8, shape (n, n)
    read: Optional[np.ndarray] = None  # (m,) int64 token indices

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int8)
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1]:
            raise ValueError(f"structure matrix must be square, got {codes.shape}")
        n = codes.shape[0]
        read = (np.arange(n) if self.read is None
                else np.asarray(self.read, dtype=np.int64))
        if read.ndim != 1 or (read.size and (
                read[0] < 0 or read[-1] >= n
                or not (read[1:] > read[:-1]).all())):
            raise ValueError(f"structure {self.doc_id!r}: read tokens must be "
                             f"distinct and ascending in range({n})")
        codes.setflags(write=False)
        read.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "read", read)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def queries(self) -> int:
        return self.n

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-NA cells in row-major order, as ``(rows, cols, types)``.

        ``types[i]`` indexes :data:`STRUCTURED_TYPES`.  ``codes`` is
        read-only, so the arrays are computed once per matrix.
        """
        return _nonzero_cells(self.codes)

    @cached_property
    def slots(self) -> QuerySlots:
        """The cells on a dense grid of the query slots they use."""
        return _query_slots(self.cells, self.n)

    @property
    def read_cells(self) -> StructureMatrix | ReadCells:
        """The cells of the read tokens' queries: the matrix itself when
        every token is read, else a :class:`ReadCells` built on first use
        and kept."""
        if self.read.size == self.n:
            return self
        return self._read_cells

    @cached_property
    def _read_cells(self) -> ReadCells:
        # The plan holds a copy of the read rows and no reference to the
        # matrix: a cycle between the two would keep every structure of a
        # dropped pack alive until the cyclic garbage collector ran.
        codes = self.codes[self.read]
        codes.setflags(write=False)
        return ReadCells(codes)


@dataclass(frozen=True)
class ReadCells:
    """The cells of a structure's read tokens' queries against its n key
    tokens.  ``codes`` are the read tokens' rows of the structure's codes,
    (m, n), read-only.

    ``cells`` are their non-NA cells, each query numbered by its place
    among the read tokens: the structure's
    :attr:`~StructureMatrix.cells` whose query is read, in the same
    order.  ``slots`` are their query slots.  Each is computed on first
    use, which only a biased layer makes.
    """

    codes: np.ndarray

    @property
    def n(self) -> int:
        return self.codes.shape[1]

    @property
    def queries(self) -> int:
        return self.codes.shape[0]

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _nonzero_cells(self.codes)

    @cached_property
    def slots(self) -> QuerySlots:
        return _query_slots(self.cells, self.n)


@dataclass(frozen=True)
class PackedStructure:
    """The structures of documents whose tokens are stacked as rows:
    ``matrices[i]`` covers rows ``bounds[i]`` to ``bounds[i + 1]``, and
    its read tokens are rows ``read_bounds[i]`` to ``read_bounds[i + 1]``
    of :attr:`read_rows`.

    No cell joins two documents; their tokens never attend to each
    other.
    """

    matrices: tuple[StructureMatrix, ...]
    bounds: np.ndarray  # (len(matrices) + 1,) row offsets, from 0
    read_bounds: np.ndarray  # (len(matrices) + 1,) read-row offsets

    @classmethod
    def of(cls, matrices: Iterable[StructureMatrix]) -> PackedStructure:
        matrices = tuple(matrices)
        return cls(matrices, _offsets([m.n for m in matrices]),
                   _offsets([m.read.size for m in matrices]))

    @property
    def n(self) -> int:
        return int(self.bounds[-1])

    def segments(self) -> Iterator[tuple[int, int, StructureMatrix]]:
        """``(lo, hi, matrix)`` per document, in row order."""
        return zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist(),
                   self.matrices)

    @cached_property
    def read_rows(self) -> np.ndarray:
        """Every document's read tokens as rows of the pack, ascending,
        (Σm,); read-only."""
        rows = np.concatenate([np.empty(0, np.int64)]
                              + [m.read for m in self.matrices])
        rows += np.repeat(self.bounds[:-1], np.diff(self.read_bounds))
        rows.setflags(write=False)
        return rows

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


def _offsets(sizes: list[int]) -> np.ndarray:
    """``0`` and the running sums of ``sizes``, read-only."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    offsets.setflags(write=False)
    return offsets


@dataclass(frozen=True)
class QuerySlots:
    """The structured cells laid out on a grid whose rows are query slots.

    A query slot is a query row and a type, ``row * 5 + type``.
    ``used`` holds the slots that have at least one cell, ascending, and
    ``flat`` the position of each cell of the ``cells`` they were built
    from in a (len(used), n) grid of those slots by key token.  No two
    cells share a position.  Both arrays are read-only.
    """

    used: np.ndarray
    flat: np.ndarray


#: The decision table: the code of a token pair (i, j), keyed by
#: ``(in_i * 2 + in_j) * 4 + same_sentence * 2 + same_entity``, where
#: ``in_i`` says that token i lies in a mention.  Read-only.
DEPENDENCY_TABLE = np.array([
    # neither token in a mention
    DependencyType.NA, DependencyType.NA, DependencyType.NA, DependencyType.NA,
    # only j in a mention; i and j are never one entity
    DependencyType.NA, DependencyType.NA,
    DependencyType.INTRA_NE, DependencyType.INTRA_NE,
    # only i in a mention
    DependencyType.NA, DependencyType.NA,
    DependencyType.INTRA_NE, DependencyType.INTRA_NE,
    # both in mentions: other sentence, other sentence and one entity,
    # one sentence, one sentence and one entity
    DependencyType.INTER_RELATE, DependencyType.INTER_COREF,
    DependencyType.INTRA_RELATE, DependencyType.INTRA_COREF,
], dtype=np.int8)
DEPENDENCY_TABLE.setflags(write=False)


def dependency_table(excluded: Iterable[DependencyType] = ()) -> np.ndarray:
    """:data:`DEPENDENCY_TABLE` with every excluded type mapped to NA,
    read-only.  ``excluded`` is refused as :func:`apply_ablation`
    refuses it."""
    table = _ablation_map(excluded)[DEPENDENCY_TABLE]
    table.setflags(write=False)
    return table


def dependency_codes(sentence: np.ndarray, entity: np.ndarray,
                     table: np.ndarray = DEPENDENCY_TABLE) -> np.ndarray:
    """The (n, n) int8 codes of a document's tokens, looked up in
    ``table`` (:func:`dependency_table`) from two per-token arrays: the
    sentence index and the entity index, -1 outside every mention.  Any
    numbering works for either as long as it tells equal from unequal."""
    in_mention = (entity >= 0).astype(np.int8)
    key = np.add.outer(in_mention * np.int8(8), in_mention * np.int8(4))
    same_sentence = np.equal.outer(sentence, sentence).view(np.int8)
    key += same_sentence
    key += same_sentence
    key += np.equal.outer(entity, entity).view(np.int8)
    return table[key]


def build_structure_matrix(doc) -> StructureMatrix:
    """Materialize the dependency grid for a document.

    The document is checked by :func:`validate_document` first, which
    names the offending mention of any bad span or overlap.  The codes
    are one lookup in :data:`DEPENDENCY_TABLE` for all pairs at once
    (:func:`dependency_codes`).
    """
    validate_document(doc)
    sent = np.repeat(np.arange(len(doc.sentences)),
                     [len(s) for s in doc.sentences])
    ent = np.full(doc.token_count(), -1, dtype=np.int64)
    for e_idx, entity in enumerate(doc.entities):
        for mention in entity.mentions:
            lo, hi = doc.global_span(mention)
            ent[lo:hi] = e_idx
    return StructureMatrix(doc.doc_id, dependency_codes(sent, ent))


def _ablation_map(excluded: Iterable[DependencyType]) -> np.ndarray:
    """Every code, indexed by itself, with each excluded type's set to
    NA; NA itself and anything but a structured type are refused."""
    excluded = set(excluded)
    if DependencyType.NA in excluded:
        raise ValueError("NA cannot be excluded; it is the absence of structure")
    for dep in excluded:
        if dep not in STRUCTURED_TYPES:
            raise ValueError(f"unknown dependency type in exclusion set: {dep!r}")
    codes = np.arange(len(DependencyType), dtype=np.int8)
    codes[[int(dep) for dep in excluded]] = DependencyType.NA
    return codes


def apply_ablation(
    m: StructureMatrix, excluded: Iterable[DependencyType]
) -> StructureMatrix:
    """Replace every cell of an excluded type with NA.

    Idempotent and monotone; excluding nothing returns an equal matrix.
    NA itself cannot be excluded.
    """
    return StructureMatrix(m.doc_id, _ablation_map(excluded)[m.codes], m.read)


# On-disk grid format: one tab-separated text header line "doc_id<TAB>n",
# then n*n raw bytes, row-major, coded per DependencyType.

def write_grid(m: StructureMatrix, path) -> None:
    header = f"{m.doc_id}\t{m.n}\n".encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(m.codes.astype(np.uint8).tobytes(order="C"))
