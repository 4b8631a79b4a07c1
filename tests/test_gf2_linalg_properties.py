"""Randomised property tests for the GF(2) linear-algebra invariants.

Each property is checked over ~100 seeded random matrices spanning tall,
wide, square, sparse and dense shapes: on the one GF(2) linear-algebra
implementation, :mod:`repro.gf2.linalg`, and on the bit-packed kernels of
:mod:`repro.gf2.bitpack`, which the dense ``uint8`` arithmetic checks as the
reference oracle.
"""

import numpy as np
import pytest

from repro.exceptions import SingularMatrixError
from repro.gf2 import (
    GF2Matrix,
    GF2Vector,
    gf2_null_space,
    gf2_rank,
    gf2_rref,
    gf2_solve,
    in_span,
    int_in_span,
    pack_rows,
    popcount_u64,
    row_space_equal,
    unpack_rows,
)
from repro.gf2.bitpack import (
    byte_fold_table,
    bytes_to_lanes,
    fold_bytes,
    lanes_to_bytes,
    packed_column_counts,
)
from repro.gf2.linalg import gf2_solve_affine

#: 100 seeded random instances: (seed, rows, cols, density).
CASES = [
    (seed, int(rows), int(cols), density)
    for seed, (rows, cols, density) in enumerate(
        (
            rng_shape
            for rng_shape in (
                (
                    np.random.default_rng(1234 + i).integers(1, 24),
                    np.random.default_rng(5678 + i).integers(1, 90),
                    [0.1, 0.3, 0.5, 0.8][i % 4],
                )
                for i in range(100)
            )
        )
    )
]

IMPLEMENTATIONS = {
    "reference": (gf2_rref, gf2_rank, gf2_null_space, gf2_solve),
}


def _matrix(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    return GF2Matrix((rng.random((rows, cols)) < density).astype(np.uint8))


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
@pytest.mark.parametrize("seed,rows,cols,density", CASES)
class TestLinalgInvariants:
    def test_rank_is_rref_invariant(self, implementation, seed, rows, cols, density):
        rref_fn, rank_fn, _, _ = IMPLEMENTATIONS[implementation]
        matrix = _matrix(seed, rows, cols, density)
        rref, pivots = rref_fn(matrix)
        # rank(A) == rank(RREF(A)) == number of pivots
        assert rank_fn(matrix) == rank_fn(rref) == len(pivots)
        # RREF is idempotent.
        rref_again, pivots_again = rref_fn(rref)
        assert rref_again == rref
        assert pivots_again == pivots

    def test_rank_nullity_theorem(self, implementation, seed, rows, cols, density):
        _, rank_fn, null_space_fn, _ = IMPLEMENTATIONS[implementation]
        matrix = _matrix(seed, rows, cols, density)
        assert rank_fn(matrix) + len(null_space_fn(matrix)) == cols

    def test_null_space_vectors_are_annihilated(
        self, implementation, seed, rows, cols, density
    ):
        _, _, null_space_fn, _ = IMPLEMENTATIONS[implementation]
        matrix = _matrix(seed, rows, cols, density)
        for vector in null_space_fn(matrix):
            assert (matrix @ vector).is_zero()
            assert not vector.is_zero()

    def test_solve_round_trips(self, implementation, seed, rows, cols, density):
        _, _, _, solve_fn = IMPLEMENTATIONS[implementation]
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 10_000)
        # Build a consistent system: rhs = A @ x0 for a random x0.
        x0 = GF2Vector(rng.integers(0, 2, size=cols))
        rhs = matrix @ x0
        solution = solve_fn(matrix, rhs)
        assert matrix @ solution == rhs

    def test_inconsistent_systems_raise(self, implementation, seed, rows, cols, density):
        _, rank_fn, _, solve_fn = IMPLEMENTATIONS[implementation]
        base = _matrix(seed, rows, cols, density).to_numpy()
        rng = np.random.default_rng(seed + 20_000)
        # Append the XOR of a random nonempty subset of rows: the system is
        # now rank-deficient, and a rhs whose new entry breaks the same XOR
        # relation lies outside the column space.
        subset = rng.integers(0, 2, size=rows).astype(bool)
        subset[rng.integers(0, rows)] = True
        matrix = GF2Matrix(np.vstack([base, np.bitwise_xor.reduce(base[subset])]))
        values = rng.integers(0, 2, size=rows)
        rhs = GF2Vector(np.append(values, (values[subset].sum() + 1) % 2))
        rank = rank_fn(matrix)
        assert rank <= rows
        augmented = GF2Matrix(
            np.hstack([matrix.to_numpy(), rhs.to_numpy().reshape(-1, 1)])
        )
        assert rank_fn(augmented) == rank + 1
        with pytest.raises(SingularMatrixError):
            solve_fn(matrix, rhs)


@pytest.mark.parametrize("seed,rows,cols,density", CASES)
class TestSpanInvariants:
    def test_rank_is_transpose_invariant(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        assert gf2_rank(matrix) == gf2_rank(matrix.T)

    def test_row_space_survives_elimination_and_reordering(
        self, seed, rows, cols, density
    ):
        matrix = _matrix(seed, rows, cols, density)
        rref, _ = gf2_rref(matrix)
        assert row_space_equal(matrix, rref)
        order = np.random.default_rng(seed + 30_000).permutation(rows)
        assert row_space_equal(matrix, matrix.with_row_order(order))

    def test_span_membership_matches_rank(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 40_000)
        row_vectors = matrix.rows()
        row_ints = [row.to_int() for row in row_vectors]
        rank = gf2_rank(matrix)
        # Every row and every XOR of a row subset lies in the row space.
        combination = GF2Vector(
            rng.integers(0, 2, size=rows).astype(np.uint8) @ matrix.to_numpy()
        )
        targets = row_vectors + [combination]
        targets += [GF2Vector(rng.integers(0, 2, size=cols)) for _ in range(4)]
        for target in targets:
            extended = matrix.vstack(GF2Matrix(target.to_numpy().reshape(1, -1)))
            expected = gf2_rank(extended) == rank
            assert in_span(target, row_vectors) == expected
            assert int_in_span(target.to_int(), row_ints) == expected
        assert in_span(combination, row_vectors)

    def test_null_space_basis_is_independent(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        basis = gf2_null_space(matrix)
        if basis:
            assert gf2_rank(GF2Matrix.from_rows(basis)) == len(basis)

    def test_affine_solution_set_is_closed(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 50_000)
        rhs = matrix @ GF2Vector(rng.integers(0, 2, size=cols))
        particular, basis = gf2_solve_affine(matrix, rhs)
        solution = particular
        for vector in basis:
            if rng.integers(0, 2):
                solution = solution + vector
        assert matrix @ solution == rhs


@pytest.mark.parametrize("seed,rows,cols,density", CASES)
class TestPackedKernelInvariants:
    def test_packing_round_trips_through_lanes_and_bytes(
        self, seed, rows, cols, density
    ):
        bits = _matrix(seed, rows, cols, density).to_numpy()
        lanes = pack_rows(bits)
        assert np.array_equal(unpack_rows(lanes, cols), bits)
        packed_bytes = lanes_to_bytes(lanes, cols)
        assert np.array_equal(
            packed_bytes, np.packbits(bits, axis=1, bitorder="little")
        )
        assert np.array_equal(bytes_to_lanes(packed_bytes, cols), lanes)
        assert np.array_equal(
            popcount_u64(lanes).sum(axis=1, dtype=np.int64), bits.sum(axis=1)
        )
        assert np.array_equal(
            packed_column_counts(packed_bytes, cols), bits.sum(axis=0)
        )

    def test_fold_syndromes_match_dense_product(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 60_000)
        errors = (rng.random((32, cols)) < density).astype(np.uint8)
        table = byte_fold_table(column.to_int() for column in matrix.columns())
        folded = fold_bytes(table, np.packbits(errors, axis=1, bitorder="little"))
        expected = [(matrix @ GF2Vector(error)).to_int() for error in errors]
        assert folded.tolist() == expected
