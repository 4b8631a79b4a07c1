"""Unit and property tests for GF(2) linear-algebra algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2 import (
    GF2Matrix,
    GF2Vector,
    gf2_inverse,
    gf2_null_space,
    gf2_rank,
    gf2_rref,
    gf2_solve,
    in_span,
    int_from_vector,
    int_in_span,
    popcount,
    row_space_equal,
    span,
    support,
    vector_from_int,
)
from repro.gf2.linalg import gf2_solve_affine, random_full_rank_matrix


def random_matrix(rng, rows, cols):
    return GF2Matrix(rng.integers(0, 2, size=(rows, cols)))


class TestBitHelpers:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(0b1011) == 3

    def test_popcount_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)

    def test_support(self):
        assert support(0) == ()
        assert support(0b1010) == (1, 3)

    def test_support_negative(self):
        with pytest.raises(ValueError):
            support(-2)

    def test_vector_int_round_trip(self):
        vec = vector_from_int(0b1101, 6)
        assert vec.to_list() == [1, 0, 1, 1, 0, 0]
        assert int_from_vector(vec) == 0b1101


class TestRrefAndRank:
    def test_rref_identity(self):
        rref, pivots = gf2_rref(GF2Matrix.identity(4))
        assert rref == GF2Matrix.identity(4)
        assert pivots == (0, 1, 2, 3)

    def test_rref_dependent_rows(self):
        matrix = GF2Matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        rref, pivots = gf2_rref(matrix)
        assert pivots == (0, 1)
        assert rref.row(2).is_zero()

    def test_rank_zero_matrix(self):
        assert gf2_rank(GF2Matrix.zeros(3, 5)) == 0

    def test_rank_full(self):
        assert gf2_rank(GF2Matrix.identity(5)) == 5

    def test_rank_bounded_by_dimensions(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            matrix = random_matrix(rng, rows, cols)
            assert 0 <= gf2_rank(matrix) <= min(rows, cols)


class TestSolve:
    def test_solve_identity(self):
        rhs = GF2Vector([1, 0, 1])
        assert gf2_solve(GF2Matrix.identity(3), rhs) == rhs

    def test_solve_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            matrix = random_matrix(rng, rows, cols)
            x_true = GF2Vector(rng.integers(0, 2, size=cols))
            rhs = matrix @ x_true
            solution = gf2_solve(matrix, rhs)
            assert matrix @ solution == rhs

    def test_solve_inconsistent_raises(self):
        matrix = GF2Matrix([[1, 0], [1, 0]])
        rhs = GF2Vector([1, 0])
        with pytest.raises(SingularMatrixError):
            gf2_solve(matrix, rhs)

    def test_solve_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gf2_solve(GF2Matrix.identity(2), GF2Vector([1, 0, 1]))

    def test_solve_affine_spans_all_solutions(self):
        matrix = GF2Matrix([[1, 1, 0], [0, 0, 1]])
        rhs = GF2Vector([1, 1])
        particular, basis = gf2_solve_affine(matrix, rhs)
        assert matrix @ particular == rhs
        assert len(basis) == 1
        shifted = particular + basis[0]
        assert matrix @ shifted == rhs


class TestNullSpaceAndInverse:
    def test_null_space_dimension(self):
        matrix = GF2Matrix([[1, 0, 1, 1], [0, 1, 1, 0]])
        basis = gf2_null_space(matrix)
        assert len(basis) == 2
        for vec in basis:
            assert (matrix @ vec).is_zero()

    def test_null_space_of_full_rank_square(self):
        assert gf2_null_space(GF2Matrix.identity(4)) == []

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            size = int(rng.integers(1, 7))
            matrix = random_full_rank_matrix(size, size, rng)
            inverse = gf2_inverse(matrix)
            assert matrix @ inverse == GF2Matrix.identity(size)

    def test_inverse_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            gf2_inverse(GF2Matrix([[1, 1], [1, 1]]))

    def test_inverse_non_square_raises(self):
        with pytest.raises(DimensionError):
            gf2_inverse(GF2Matrix([[1, 0, 1]]))

    def test_random_full_rank_rejects_impossible_shape(self):
        with pytest.raises(DimensionError):
            random_full_rank_matrix(3, 2)


class TestSpan:
    def test_span_of_empty_set(self):
        assert span([]) == []

    def test_span_enumerates_all_combinations(self):
        vectors = [GF2Vector([1, 0, 0]), GF2Vector([0, 1, 0])]
        elements = {v.to_int() for v in span(vectors)}
        assert elements == {0b000, 0b001, 0b010, 0b011}

    def test_span_handles_dependent_vectors(self):
        vectors = [GF2Vector([1, 1]), GF2Vector([1, 1])]
        assert len(span(vectors)) == 2

    def test_span_length_mismatch(self):
        with pytest.raises(DimensionError):
            span([GF2Vector([1, 0]), GF2Vector([1, 0, 1])])

    def test_in_span_positive_and_negative(self):
        basis = [GF2Vector([1, 0, 1]), GF2Vector([0, 1, 1])]
        assert in_span(GF2Vector([1, 1, 0]), basis)
        assert not in_span(GF2Vector([0, 0, 1]), basis)

    def test_in_span_empty_basis(self):
        assert in_span(GF2Vector([0, 0]), [])
        assert not in_span(GF2Vector([1, 0]), [])

    def test_row_space_equal(self):
        first = GF2Matrix([[1, 0, 1], [0, 1, 1]])
        second = GF2Matrix([[1, 1, 0], [0, 1, 1]])
        assert row_space_equal(first, second)
        third = GF2Matrix([[1, 0, 0], [0, 1, 0]])
        assert not row_space_equal(first, third)

    def test_row_space_different_widths(self):
        assert not row_space_equal(GF2Matrix([[1, 0]]), GF2Matrix([[1, 0, 0]]))


@st.composite
def matrix_and_vector(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    matrix = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    x_vec = draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols))
    return GF2Matrix(matrix), GF2Vector(x_vec)


class TestProperties:
    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_solve_recovers_consistent_rhs(self, pair):
        matrix, x_vec = pair
        rhs = matrix @ x_vec
        solution = gf2_solve(matrix, rhs)
        assert matrix @ solution == rhs

    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_theorem(self, pair):
        matrix, _ = pair
        rank = gf2_rank(matrix)
        nullity = len(gf2_null_space(matrix))
        assert rank + nullity == matrix.num_cols

    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_matrix_vector_product_is_column_combination(self, pair):
        matrix, x_vec = pair
        product = matrix @ x_vec
        accumulator = GF2Vector.zeros(matrix.num_rows)
        for index, bit in enumerate(x_vec):
            if bit:
                accumulator = accumulator + matrix.column(index)
        assert product == accumulator

    @given(st.lists(st.integers(0, 255), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_in_span_agrees_with_enumerated_span(self, values):
        vectors = [GF2Vector.from_int(v, 8) for v in values]
        enumerated = {v.to_int() for v in span(vectors)} if vectors else {None}
        for target_value in range(0, 256, 17):
            target = GF2Vector.from_int(target_value, 8)
            expected = (
                target_value in enumerated if vectors else target.is_zero()
            )
            assert in_span(target, vectors) == expected

    @given(
        st.lists(st.integers(0, 255), min_size=0, max_size=6),
        st.integers(0, 255),
    )
    @settings(max_examples=60, deadline=None)
    def test_int_in_span_agrees_with_subset_xors(self, values, target):
        reachable = {0}
        for value in values:
            reachable |= {existing ^ value for existing in reachable}
        assert int_in_span(target, values) == (target in reachable)
