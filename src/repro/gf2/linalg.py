"""Algorithms over GF(2): elimination, rank, solving, span arithmetic.

All routines operate on :class:`~repro.gf2.matrix.GF2Matrix` /
:class:`~repro.gf2.matrix.GF2Vector` instances (or anything convertible to
them) and return new objects; nothing is mutated in place.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import DimensionError, SingularMatrixError, ValidationError
from repro.gf2.matrix import GF2Matrix, GF2Vector


def popcount(value: int) -> int:
    """Return the number of set bits in a non-negative integer."""
    if value < 0:
        raise ValidationError("popcount is only defined for non-negative integers")
    return bin(value).count("1")


def support(value: int) -> Tuple[int, ...]:
    """Return the indices of the set bits of ``value`` (LSB = index 0)."""
    if value < 0:
        raise ValidationError("support is only defined for non-negative integers")
    indices = []
    index = 0
    while value:
        if value & 1:
            indices.append(index)
        value >>= 1
        index += 1
    return tuple(indices)


def vector_from_int(value: int, length: int) -> GF2Vector:
    """Return the length-``length`` vector whose bit ``i`` is bit ``i`` of ``value``."""
    return GF2Vector.from_int(value, length)


def int_from_vector(vector: GF2Vector) -> int:
    """Return the integer encoding of ``vector`` (element ``i`` → bit ``i``)."""
    vec = vector if isinstance(vector, GF2Vector) else GF2Vector(vector)
    return vec.to_int()


def _rref_array(array: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Compute the reduced row echelon form of a uint8 array over GF(2).

    Returns the RREF array and the list of pivot column indices.
    """
    matrix = array.copy()
    num_rows, num_cols = matrix.shape
    pivot_cols: List[int] = []
    pivot_row = 0
    for col in range(num_cols):
        if pivot_row >= num_rows:
            break
        candidates = np.flatnonzero(matrix[pivot_row:, col]) + pivot_row
        if candidates.size == 0:
            continue
        swap = int(candidates[0])
        if swap != pivot_row:
            matrix[[pivot_row, swap], :] = matrix[[swap, pivot_row], :]
        rows_to_clear = np.flatnonzero(matrix[:, col])
        for row in rows_to_clear:
            if row != pivot_row:
                matrix[row, :] ^= matrix[pivot_row, :]
        pivot_cols.append(col)
        pivot_row += 1
    return matrix, pivot_cols


def gf2_rref(matrix: GF2Matrix) -> Tuple[GF2Matrix, Tuple[int, ...]]:
    """Return ``(rref, pivot_columns)`` for a GF(2) matrix."""
    mat = matrix if isinstance(matrix, GF2Matrix) else GF2Matrix(matrix)
    rref, pivots = _rref_array(mat.to_numpy())
    return GF2Matrix(rref), tuple(pivots)


def gf2_rank(matrix: GF2Matrix) -> int:
    """Return the rank of a GF(2) matrix."""
    _, pivots = gf2_rref(matrix)
    return len(pivots)


def gf2_solve(matrix: GF2Matrix, rhs: GF2Vector) -> GF2Vector:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one particular solution.  Raises
    :class:`~repro.exceptions.SingularMatrixError` if the system is
    inconsistent.
    """
    mat = matrix if isinstance(matrix, GF2Matrix) else GF2Matrix(matrix)
    vec = rhs if isinstance(rhs, GF2Vector) else GF2Vector(rhs)
    if mat.num_rows != len(vec):
        raise DimensionError(
            f"matrix with {mat.num_rows} rows cannot equal a vector of length {len(vec)}"
        )
    augmented = np.hstack([mat.to_numpy(), vec.to_numpy().reshape(-1, 1)])
    rref, pivots = _rref_array(augmented)
    num_cols = mat.num_cols
    if num_cols in pivots:
        raise SingularMatrixError("linear system is inconsistent over GF(2)")
    solution = np.zeros(num_cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = rref[row_index, num_cols]
    return GF2Vector(solution)


def gf2_solve_affine(
    matrix: GF2Matrix, rhs: GF2Vector
) -> Tuple[GF2Vector, List[GF2Vector]]:
    """Solve ``matrix @ x = rhs`` and also return a basis of the solution space.

    Returns ``(particular, homogeneous_basis)`` so callers can enumerate or
    sample from the full affine solution set.  Raises
    :class:`~repro.exceptions.SingularMatrixError` when inconsistent.
    """
    particular = gf2_solve(matrix, rhs)
    basis = gf2_null_space(matrix)
    return particular, basis


def gf2_null_space(matrix: GF2Matrix) -> List[GF2Vector]:
    """Return a basis (possibly empty) of the null space of a GF(2) matrix."""
    mat = matrix if isinstance(matrix, GF2Matrix) else GF2Matrix(matrix)
    rref, pivots = _rref_array(mat.to_numpy())
    num_cols = mat.num_cols
    pivot_set = set(pivots)
    free_cols = [c for c in range(num_cols) if c not in pivot_set]
    basis: List[GF2Vector] = []
    for free in free_cols:
        vector = np.zeros(num_cols, dtype=np.uint8)
        vector[free] = 1
        for row_index, pivot in enumerate(pivots):
            if rref[row_index, free]:
                vector[pivot] = 1
        basis.append(GF2Vector(vector))
    return basis


def gf2_inverse(matrix: GF2Matrix) -> GF2Matrix:
    """Return the inverse of a square, full-rank GF(2) matrix."""
    mat = matrix if isinstance(matrix, GF2Matrix) else GF2Matrix(matrix)
    if mat.num_rows != mat.num_cols:
        raise DimensionError("only square matrices can be inverted")
    size = mat.num_rows
    augmented = np.hstack([mat.to_numpy(), np.eye(size, dtype=np.uint8)])
    rref, pivots = _rref_array(augmented)
    if list(pivots[:size]) != list(range(size)):
        raise SingularMatrixError("matrix is singular over GF(2)")
    return GF2Matrix(rref[:, size:])


def span(vectors: Iterable[GF2Vector]) -> List[GF2Vector]:
    """Return every element of the span of the given vectors (including zero).

    The result has ``2**rank`` elements; intended for small vector sets such
    as the CHARGED-cell columns examined by BEER.
    """
    vector_list = [v if isinstance(v, GF2Vector) else GF2Vector(v) for v in vectors]
    if not vector_list:
        return []
    length = len(vector_list[0])
    for vec in vector_list:
        if len(vec) != length:
            raise DimensionError("span requires vectors of equal length")
    elements = {0}
    for value in _xor_basis(vec.to_int() for vec in vector_list):
        elements |= {existing ^ value for existing in elements}
    return [GF2Vector.from_int(value, length) for value in sorted(elements)]


def _xor_basis(values: Iterable[int]) -> List[int]:
    """Reduce integer-encoded vectors to an XOR basis, largest pivot first."""
    basis: List[int] = []
    for value in values:
        for pivot in basis:
            value = min(value, value ^ pivot)
        if value:
            basis.append(value)
            basis.sort(reverse=True)
    return basis


def int_in_span(target: int, vectors: Iterable[int]) -> bool:
    """Return True if ``target`` is a GF(2) combination of integer-encoded vectors.

    The one span-membership test: :func:`in_span` and BEER's constraint
    checks both reduce to it.
    """
    for pivot in _xor_basis(vectors):
        target = min(target, target ^ pivot)
    return target == 0


def in_span(target: GF2Vector, vectors: Iterable[GF2Vector]) -> bool:
    """Return True if ``target`` lies in the GF(2) span of ``vectors``."""
    target_vec = target if isinstance(target, GF2Vector) else GF2Vector(target)
    vector_list = [v if isinstance(v, GF2Vector) else GF2Vector(v) for v in vectors]
    return int_in_span(target_vec.to_int(), [v.to_int() for v in vector_list])


def row_space_equal(first: GF2Matrix, second: GF2Matrix) -> bool:
    """Return True if two matrices have identical row spaces."""
    first_mat = first if isinstance(first, GF2Matrix) else GF2Matrix(first)
    second_mat = second if isinstance(second, GF2Matrix) else GF2Matrix(second)
    if first_mat.num_cols != second_mat.num_cols:
        return False
    rref_first, _ = gf2_rref(first_mat)
    rref_second, _ = gf2_rref(second_mat)
    nonzero_first = [r for r in rref_first.rows() if not r.is_zero()]
    nonzero_second = [r for r in rref_second.rows() if not r.is_zero()]
    return nonzero_first == nonzero_second


def random_full_rank_matrix(
    rows: int, cols: int, rng: Optional[np.random.Generator] = None
) -> GF2Matrix:
    """Return a uniformly random GF(2) matrix of full row rank.

    Useful for generating randomised test fixtures; raises
    :class:`~repro.exceptions.DimensionError` when ``rows > cols`` since full
    row rank is then impossible.
    """
    if rows > cols:
        raise DimensionError("cannot build a full-row-rank matrix with rows > cols")
    generator = rng if rng is not None else np.random.default_rng(0)
    while True:
        candidate = GF2Matrix(generator.integers(0, 2, size=(rows, cols)))
        if gf2_rank(candidate) == rows:
            return candidate
