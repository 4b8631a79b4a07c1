"""Randomised property tests for the GF(2) linear-algebra invariants.

Each property is checked over ~100 seeded random matrices spanning tall,
wide, square, sparse and dense shapes — on both the reference and the
bit-packed implementations.
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
    packed_gf2_null_space,
    packed_gf2_rank,
    packed_gf2_rref,
    packed_gf2_solve,
)

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
    "packed": (packed_gf2_rref, packed_gf2_rank, packed_gf2_null_space, packed_gf2_solve),
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
