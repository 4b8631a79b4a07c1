"""Bit-packed GF(2) linear algebra over ``uint64`` lanes.

The reference implementation in :mod:`repro.gf2.matrix` /
:mod:`repro.gf2.linalg` stores one bit per ``numpy.uint8`` — simple and
convenient, but an order of magnitude slower than the hardware allows on the
hot paths (syndrome computation, bulk decoding, RREF).  This module packs each
row into ``uint64`` lanes (column ``j`` lives in lane ``j // 64`` at bit
``j % 64``, LSB first, matching the library-wide LSB-first integer encoding)
so that row XOR touches 64 columns per machine word and inner products become
AND + popcount.

The packed routines mirror the reference API bit for bit:

* :func:`pack_rows` / :func:`unpack_rows` — lossless dense ↔ packed
  conversion;
* :class:`PackedGF2Matrix` — a packed matrix with ``rref``/``rank``/
  ``null_space``/``solve``/``matvec``;
* :func:`packed_gf2_rref`, :func:`packed_gf2_rank`,
  :func:`packed_gf2_null_space`, :func:`packed_gf2_solve`,
  :func:`packed_matmul` — drop-in equivalents of the :mod:`repro.gf2.linalg`
  functions returning identical reference types;
* :func:`batched_syndrome_values` — a batched AND/popcount syndrome kernel
  over ``uint64`` lanes (general form of :meth:`PackedGF2Matrix.matvec`);
* :func:`byte_fold_table` / :func:`fold_bytes` — cached per-byte XOR tables,
  the kernel the ``fast`` simulation backend
  (:mod:`repro.einsim.engine`) uses for batched syndromes and parity bits.

Equivalence with the reference path is enforced by the differential test
suite (``tests/test_gf2_bitpack.py`` and ``tests/test_differential_backends.py``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2.matrix import GF2Matrix, GF2Vector

#: Number of columns stored per packed lane.
LANE_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

# Per-byte popcount table used when numpy lacks ``bitwise_count`` (< 2.0).
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values)
    as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.uint8)


def popcount_bytes(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint8`` array."""
    values = np.asarray(values, dtype=np.uint8)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values)
    return _POPCOUNT_TABLE[values]


def num_lanes(num_cols: int) -> int:
    """Number of ``uint64`` lanes needed to hold ``num_cols`` bits."""
    return (num_cols + LANE_BITS - 1) // LANE_BITS


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a 2-D ``{0,1}`` array into ``uint64`` lanes, one row per row.

    Column ``j`` of the input maps to bit ``j % 64`` of lane ``j // 64``
    (LSB first).
    """
    bits = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8) & 1)
    if bits.ndim != 2:
        raise DimensionError(f"pack_rows expects a 2-D array, got shape {bits.shape}")
    rows, cols = bits.shape
    lanes = num_lanes(cols)
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((rows, lanes * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8").reshape(rows, lanes)


def pack_bool_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean mask into ``uint64`` lanes (see :func:`pack_rows`).

    Same layout as :func:`pack_rows` without the ``uint8``-coercion pass —
    the fused simulation path packs freshly drawn boolean error masks, which
    ``numpy.packbits`` consumes directly.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DimensionError(
            f"pack_bool_rows expects a 2-D array, got shape {mask.shape}"
        )
    rows, cols = mask.shape
    lanes = num_lanes(cols)
    packed_bytes = np.packbits(mask, axis=1, bitorder="little")
    if packed_bytes.shape[1] == lanes * 8:
        return packed_bytes.view("<u8").reshape(rows, lanes)
    padded = np.zeros((rows, lanes * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8").reshape(rows, lanes)


def lanes_to_bytes(lanes: np.ndarray, num_cols: int) -> np.ndarray:
    """View packed lanes as the per-byte columns covering ``num_cols`` bits.

    The returned array has shape ``(rows, ceil(num_cols / 8))`` and shares
    memory with ``lanes`` where possible; byte ``b`` holds columns
    ``8*b .. 8*b+7`` LSB first, exactly the layout
    ``np.packbits(..., bitorder="little")`` produces.
    """
    lanes = np.ascontiguousarray(np.asarray(lanes, dtype="<u8"))
    if lanes.ndim != 2:
        raise DimensionError(
            f"lanes_to_bytes expects a 2-D array, got shape {lanes.shape}"
        )
    if lanes.shape[1] != num_lanes(num_cols):
        raise DimensionError(
            f"{lanes.shape[1]} lanes cannot hold exactly {num_cols} columns"
        )
    num_bytes = (num_cols + 7) // 8
    return lanes.view(np.uint8).reshape(lanes.shape[0], -1)[:, :num_bytes]


def bytes_to_lanes(packed_bytes: np.ndarray, num_cols: int) -> np.ndarray:
    """View byte-packed rows as ``uint64`` lanes covering ``num_cols`` bits.

    Inverse direction of :func:`lanes_to_bytes`: pads the byte columns of a
    ``np.packbits(..., bitorder="little")`` batch up to a lane multiple (no
    copy when the byte count already is one) and reinterprets them as
    little-endian ``uint64`` lanes.
    """
    packed_bytes = np.ascontiguousarray(packed_bytes, dtype=np.uint8)
    if packed_bytes.ndim != 2 or packed_bytes.shape[1] != (num_cols + 7) // 8:
        raise DimensionError(
            f"byte array of shape {packed_bytes.shape} does not pack exactly "
            f"{num_cols} columns"
        )
    rows = packed_bytes.shape[0]
    lanes = num_lanes(num_cols)
    if packed_bytes.shape[1] == lanes * 8:
        return packed_bytes.view("<u8").reshape(rows, lanes)
    padded = np.zeros((rows, lanes * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8").reshape(rows, lanes)


#: ``_BYTE_BIT_TABLE[v, b]`` is bit ``b`` of byte value ``v`` — turns a
#: per-byte-value histogram into per-column set-bit counts with one matmul.
_BYTE_BIT_TABLE = ((np.arange(256)[:, np.newaxis] >> np.arange(8)) & 1).astype(
    np.int64
)


def packed_column_counts(packed_bytes: np.ndarray, num_cols: int) -> np.ndarray:
    """Count set bits per column over a batch of byte-packed rows.

    Equivalent to ``unpack(...).sum(axis=0)`` but works directly on the
    packed representation: one 256-bin histogram per byte column, dotted with
    the byte→bit table.
    """
    packed_bytes = np.asarray(packed_bytes, dtype=np.uint8)
    if packed_bytes.ndim != 2 or packed_bytes.shape[1] < (num_cols + 7) // 8:
        raise DimensionError(
            f"byte array of shape {packed_bytes.shape} cannot hold "
            f"{num_cols} columns"
        )
    counts = np.zeros(((num_cols + 7) // 8) * 8, dtype=np.int64)
    for byte_index in range((num_cols + 7) // 8):
        histogram = np.bincount(packed_bytes[:, byte_index], minlength=256)
        counts[byte_index * 8 : byte_index * 8 + 8] = histogram @ _BYTE_BIT_TABLE
    return counts[:num_cols]


def unpack_rows(packed: np.ndarray, num_cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a ``uint8`` array of given width."""
    packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
    if packed.ndim != 2:
        raise DimensionError(
            f"unpack_rows expects a 2-D array, got shape {packed.shape}"
        )
    if packed.shape[1] != num_lanes(num_cols):
        raise DimensionError(
            f"{packed.shape[1]} lanes cannot hold exactly {num_cols} columns"
        )
    rows = packed.shape[0]
    as_bytes = packed.view(np.uint8).reshape(rows, -1)
    if num_cols == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=num_cols, bitorder="little")


def pack_vector(bits: np.ndarray) -> np.ndarray:
    """Pack a 1-D ``{0,1}`` array into a ``uint64`` lane vector."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise DimensionError(f"pack_vector expects a 1-D array, got shape {bits.shape}")
    return pack_rows(bits.reshape(1, -1))[0]


def unpack_vector(packed: np.ndarray, num_cols: int) -> np.ndarray:
    """Inverse of :func:`pack_vector`."""
    packed = np.asarray(packed, dtype=np.uint64)
    return unpack_rows(packed.reshape(1, -1), num_cols)[0]


def _get_bit(packed_row: np.ndarray, col: int) -> int:
    lane, bit = divmod(col, LANE_BITS)
    return int((packed_row[lane] >> np.uint64(bit)) & np.uint64(1))


def _rref_packed(packed: np.ndarray, num_cols: int) -> Tuple[np.ndarray, List[int]]:
    """In-place-style RREF over packed rows; returns (rref, pivot columns)."""
    matrix = packed.copy()
    num_rows = matrix.shape[0]
    pivot_cols: List[int] = []
    pivot_row = 0
    for col in range(num_cols):
        if pivot_row >= num_rows:
            break
        lane, bit = divmod(col, LANE_BITS)
        mask = np.uint64(1) << np.uint64(bit)
        candidates = np.flatnonzero(matrix[pivot_row:, lane] & mask) + pivot_row
        if candidates.size == 0:
            continue
        swap = int(candidates[0])
        if swap != pivot_row:
            matrix[[pivot_row, swap], :] = matrix[[swap, pivot_row], :]
        rows_to_clear = np.flatnonzero(matrix[:, lane] & mask)
        rows_to_clear = rows_to_clear[rows_to_clear != pivot_row]
        if rows_to_clear.size:
            matrix[rows_to_clear, :] ^= matrix[pivot_row, :]
        pivot_cols.append(col)
        pivot_row += 1
    return matrix, pivot_cols


class PackedGF2Matrix:
    """A GF(2) matrix stored as bit-packed ``uint64`` rows.

    Supports exactly the operations the fast backend needs; conversion to
    and from the dense reference types is lossless.
    """

    __slots__ = ("_packed", "_num_cols")

    def __init__(self, packed: np.ndarray, num_cols: int):
        packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
        if packed.ndim != 2:
            raise DimensionError(
                f"expected a 2-D lane array, got shape {packed.shape}"
            )
        if packed.shape[1] != num_lanes(num_cols):
            raise DimensionError(
                f"{packed.shape[1]} lanes cannot hold exactly {num_cols} columns"
            )
        self._packed = packed
        self._num_cols = int(num_cols)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_dense(cls, matrix) -> "PackedGF2Matrix":
        """Pack a :class:`GF2Matrix` (or any 2-D 0/1 array) into lanes."""
        dense = matrix.to_numpy() if isinstance(matrix, GF2Matrix) else np.asarray(matrix)
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got shape {dense.shape}")
        return cls(pack_rows(dense), dense.shape[1])

    # -- accessors --------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return int(self._packed.shape[0])

    @property
    def num_cols(self) -> int:
        """Number of (logical) columns."""
        return self._num_cols

    @property
    def shape(self) -> tuple:
        """(rows, columns)."""
        return (self.num_rows, self._num_cols)

    @property
    def lanes(self) -> np.ndarray:
        """The raw packed lane array (a copy)."""
        return self._packed.copy()

    def to_numpy(self) -> np.ndarray:
        """Unpack into a dense ``uint8`` array."""
        return unpack_rows(self._packed, self._num_cols)

    def to_dense(self) -> GF2Matrix:
        """Unpack into the reference :class:`GF2Matrix` type."""
        return GF2Matrix(self.to_numpy())

    def get_bit(self, row: int, col: int) -> int:
        """Return entry ``(row, col)``."""
        if not (0 <= row < self.num_rows and 0 <= col < self._num_cols):
            raise DimensionError(f"index ({row}, {col}) out of range for {self.shape}")
        return _get_bit(self._packed[row], col)

    # -- linear algebra ---------------------------------------------------
    def matvec(self, vector) -> np.ndarray:
        """Return ``A @ x`` over GF(2) as a dense ``uint8`` array.

        ``vector`` may be a :class:`GF2Vector`, a dense 0/1 array of length
        ``num_cols`` or an already-packed ``uint64`` lane vector.
        """
        packed_x = self._coerce_packed_vector(vector)
        products = popcount_u64(self._packed & packed_x[np.newaxis, :])
        return (products.sum(axis=1) & 1).astype(np.uint8)

    def rref(self) -> Tuple["PackedGF2Matrix", Tuple[int, ...]]:
        """Return ``(rref, pivot_columns)``; both stay packed."""
        reduced, pivots = _rref_packed(self._packed, self._num_cols)
        return PackedGF2Matrix(reduced, self._num_cols), tuple(pivots)

    def rank(self) -> int:
        """Return the rank."""
        _, pivots = _rref_packed(self._packed, self._num_cols)
        return len(pivots)

    def null_space(self) -> List[GF2Vector]:
        """Return a basis of the null space as reference vectors."""
        reduced, pivots = _rref_packed(self._packed, self._num_cols)
        pivot_set = set(pivots)
        basis: List[GF2Vector] = []
        for free in range(self._num_cols):
            if free in pivot_set:
                continue
            vector = np.zeros(self._num_cols, dtype=np.uint8)
            vector[free] = 1
            for row_index, pivot in enumerate(pivots):
                if _get_bit(reduced[row_index], free):
                    vector[pivot] = 1
            basis.append(GF2Vector(vector))
        return basis

    def solve(self, rhs) -> GF2Vector:
        """Solve ``A @ x = rhs``; raises :class:`SingularMatrixError` if inconsistent."""
        rhs_bits = (
            rhs.to_numpy() if isinstance(rhs, GF2Vector) else np.asarray(rhs, dtype=np.uint8) & 1
        )
        if rhs_bits.ndim != 1 or rhs_bits.shape[0] != self.num_rows:
            raise DimensionError(
                f"matrix with {self.num_rows} rows cannot equal a vector of "
                f"shape {rhs_bits.shape}"
            )
        augmented_dense = np.hstack([self.to_numpy(), rhs_bits.reshape(-1, 1)])
        augmented = pack_rows(augmented_dense)
        reduced, pivots = _rref_packed(augmented, self._num_cols + 1)
        if self._num_cols in pivots:
            raise SingularMatrixError("linear system is inconsistent over GF(2)")
        solution = np.zeros(self._num_cols, dtype=np.uint8)
        for row_index, col in enumerate(pivots):
            solution[col] = _get_bit(reduced[row_index], self._num_cols)
        return GF2Vector(solution)

    # -- protocol methods -------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedGF2Matrix):
            return NotImplemented
        return self._num_cols == other._num_cols and bool(
            np.array_equal(self._packed, other._packed)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"PackedGF2Matrix(shape={self.shape}, lanes={self._packed.shape[1]})"

    def _coerce_packed_vector(self, vector) -> np.ndarray:
        if isinstance(vector, GF2Vector):
            bits = vector.to_numpy()
        else:
            bits = np.asarray(vector)
        if bits.dtype == np.uint64 and bits.ndim == 1:
            if bits.shape[0] != self._packed.shape[1]:
                raise DimensionError(
                    f"packed vector has {bits.shape[0]} lanes, expected "
                    f"{self._packed.shape[1]}"
                )
            return np.ascontiguousarray(bits)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.shape[0] != self._num_cols:
            raise DimensionError(
                f"matrix with {self._num_cols} columns cannot multiply vector "
                f"of shape {bits.shape}"
            )
        return pack_vector(bits)


# ---------------------------------------------------------------------------
# Drop-in equivalents of the repro.gf2.linalg reference functions.
# ---------------------------------------------------------------------------
def _coerce_matrix(matrix) -> PackedGF2Matrix:
    if isinstance(matrix, PackedGF2Matrix):
        return matrix
    return PackedGF2Matrix.from_dense(
        matrix if isinstance(matrix, GF2Matrix) else GF2Matrix(matrix)
    )


def packed_gf2_rref(matrix) -> Tuple[GF2Matrix, Tuple[int, ...]]:
    """Packed equivalent of :func:`repro.gf2.linalg.gf2_rref`."""
    packed = _coerce_matrix(matrix)
    reduced, pivots = packed.rref()
    return reduced.to_dense(), pivots


def packed_gf2_rank(matrix) -> int:
    """Packed equivalent of :func:`repro.gf2.linalg.gf2_rank`."""
    return _coerce_matrix(matrix).rank()


def packed_gf2_null_space(matrix) -> List[GF2Vector]:
    """Packed equivalent of :func:`repro.gf2.linalg.gf2_null_space`."""
    return _coerce_matrix(matrix).null_space()


def packed_gf2_solve(matrix, rhs) -> GF2Vector:
    """Packed equivalent of :func:`repro.gf2.linalg.gf2_solve`."""
    vec = rhs if isinstance(rhs, GF2Vector) else GF2Vector(rhs)
    return _coerce_matrix(matrix).solve(vec)


def packed_matmul(first, second) -> GF2Matrix:
    """Compute ``A @ B`` over GF(2) via packed AND/popcount inner products."""
    a = first if isinstance(first, GF2Matrix) else GF2Matrix(first)
    b = second if isinstance(second, GF2Matrix) else GF2Matrix(second)
    if a.num_cols != b.num_rows:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    packed_a = pack_rows(a.to_numpy())
    packed_bt = pack_rows(b.to_numpy().T)
    products = popcount_u64(packed_a[:, np.newaxis, :] & packed_bt[np.newaxis, :, :])
    return GF2Matrix((products.sum(axis=2) & 1).astype(np.uint8))


# ---------------------------------------------------------------------------
# Batched syndrome kernels (the fast simulation backend's hot loop).
# ---------------------------------------------------------------------------
def byte_fold_table(column_ints) -> np.ndarray:
    """Precompute per-byte partial syndromes for a set of integer columns.

    Entry ``[b, v]`` is the XOR of ``column_ints[8*b + j]`` over the set bits
    ``j`` of the byte value ``v``.  Folding a bit-packed word's bytes through
    this table with XOR yields exactly ``sum_{i set} column_ints[i]`` over
    GF(2) — the word's integer syndrome — while touching eight columns per
    lookup instead of one.
    """
    column_ints = [int(value) for value in column_ints]
    num_cols = len(column_ints)
    num_bytes = (num_cols + 7) // 8
    table = np.zeros((num_bytes, 256), dtype=np.int64)
    byte_values = np.arange(256)
    for byte_index in range(num_bytes):
        for bit in range(8):
            col = byte_index * 8 + bit
            if col >= num_cols:
                break
            table[byte_index, ((byte_values >> bit) & 1) == 1] ^= column_ints[col]
    return table


def fold_bytes(table: np.ndarray, packed_bytes: np.ndarray) -> np.ndarray:
    """XOR-fold each row of ``packed_bytes`` through a :func:`byte_fold_table`."""
    packed_bytes = np.asarray(packed_bytes, dtype=np.uint8)
    if packed_bytes.ndim != 2 or packed_bytes.shape[1] != table.shape[0]:
        raise DimensionError(
            f"expected byte array of shape (*, {table.shape[0]}), "
            f"got {packed_bytes.shape}"
        )
    if table.shape[0] == 0:
        return np.zeros(packed_bytes.shape[0], dtype=np.int64)
    values = table[0][packed_bytes[:, 0]]
    for byte_index in range(1, table.shape[0]):
        values ^= table[byte_index][packed_bytes[:, byte_index]]
    return values


#: Cap on the intermediate (batch × rows × lanes) broadcast size, in elements.
_SYNDROME_CHUNK_ELEMENTS = 1 << 22


def batched_syndrome_values(
    packed_check_rows: np.ndarray, packed_words: np.ndarray
) -> np.ndarray:
    """Return per-word syndrome integers for a batch of packed codewords.

    ``packed_check_rows`` holds the ``r`` rows of a parity-check matrix in
    packed form (shape ``(r, lanes)``); ``packed_words`` holds the batch
    (shape ``(batch, lanes)``).  Row ``i`` of the result is the integer whose
    bit ``j`` (LSB first) is ``popcount(H_j & w_i) mod 2`` — identical to the
    reference ``(w @ H.T) % 2`` dotted with powers of two.  (The simulation
    engine's fast backend uses the even faster :func:`fold_bytes` tables;
    this kernel is the lane-level alternative for ad-hoc packed operands.)
    """
    check = np.ascontiguousarray(np.asarray(packed_check_rows, dtype=np.uint64))
    words = np.ascontiguousarray(np.asarray(packed_words, dtype=np.uint64))
    if check.ndim != 2 or words.ndim != 2 or check.shape[1] != words.shape[1]:
        raise DimensionError(
            f"incompatible packed shapes {check.shape} and {words.shape}"
        )
    num_rows = check.shape[0]
    lanes = max(check.shape[1], 1)
    batch = words.shape[0]
    weights = (1 << np.arange(num_rows)).astype(np.int64)
    values = np.empty(batch, dtype=np.int64)
    chunk = max(1, _SYNDROME_CHUNK_ELEMENTS // (num_rows * lanes))
    for start in range(0, batch, chunk):
        block = words[start : start + chunk]
        products = popcount_u64(block[:, np.newaxis, :] & check[np.newaxis, :, :])
        bits = products.sum(axis=2) & 1
        values[start : start + block.shape[0]] = bits.astype(np.int64) @ weights
    if batch == 0:
        return np.zeros(0, dtype=np.int64)
    return values
