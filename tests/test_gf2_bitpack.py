"""Unit tests for the bit-packed GF(2) kernels: packing and popcount.

Packing must round-trip losslessly across every uint64 lane boundary and
popcount must agree with Python's on both the numpy and the table route.
"""

import numpy as np
import pytest

import repro.gf2.bitpack as bitpack
from repro.exceptions import DimensionError
from repro.gf2 import pack_rows, pack_vector, popcount_u64, unpack_rows, unpack_vector

# Widths straddling the uint64 lane boundaries.
LANE_EDGE_WIDTHS = [1, 2, 7, 63, 64, 65, 127, 128, 129, 136]


class TestPacking:
    @pytest.mark.parametrize("num_cols", LANE_EDGE_WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pack_unpack_round_trip(self, num_cols, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(5, num_cols)).astype(np.uint8)
        packed = pack_rows(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, (num_cols + 63) // 64)
        assert np.array_equal(unpack_rows(packed, num_cols), bits)

    def test_pack_vector_round_trip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=130).astype(np.uint8)
        assert np.array_equal(unpack_vector(pack_vector(bits), 130), bits)

    def test_bit_positions_are_lsb_first(self):
        bits = np.zeros((1, 70), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 65] = 1
        packed = pack_rows(bits)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 2  # bit 65 → lane 1, bit 1

    def test_zero_width_matrix(self):
        packed = pack_rows(np.zeros((3, 0), dtype=np.uint8))
        assert packed.shape == (3, 0)
        assert unpack_rows(packed, 0).shape == (3, 0)

    def test_pack_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            pack_rows(np.zeros(4, dtype=np.uint8))
        with pytest.raises(DimensionError):
            pack_vector(np.zeros((2, 2), dtype=np.uint8))

    def test_unpack_rejects_lane_mismatch(self):
        with pytest.raises(DimensionError):
            unpack_rows(np.zeros((2, 2), dtype=np.uint64), 64)


class TestPopcount:
    def test_matches_python_popcount(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        expected = np.array([bin(int(v)).count("1") for v in values])
        assert np.array_equal(popcount_u64(values), expected)

    def test_table_fallback_matches(self, monkeypatch):
        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        expected = np.array([bin(int(v)).count("1") for v in values])
        assert np.array_equal(bitpack.popcount_u64(values), expected)

    def test_fallback_handles_all_ones(self, monkeypatch):
        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        assert bitpack.popcount_u64(np.array([2**64 - 1], dtype=np.uint64))[0] == 64
