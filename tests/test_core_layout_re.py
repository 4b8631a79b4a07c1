"""Tests for cell-type and dataword-layout reverse engineering (Sections 5.1.1-5.1.2)."""

from repro.dram import (
    CellType,
    CellTypeLayout,
    ChipGeometry,
    DataRetentionModel,
    SimulatedDramChip,
    VENDOR_C,
)
from repro.dram.layout import ByteInterleavedWordLayout, SequentialWordLayout
from repro.dram.retention import RetentionCalibration
from repro.ecc import hamming_code
from repro.core import discover_cell_types, discover_dataword_layout
from repro.core.layout_re import _row_error_counts, estimate_dataword_bits
from repro.gf2 import GF2Vector


#: Retention model with very frequent failures so small chips expose layout
#: information quickly during tests.
AGGRESSIVE = DataRetentionModel(RetentionCalibration(1.0, 0.02, 100.0, 0.6))


def make_chip(cell_layout=None, word_layout=None, num_rows=8, words_per_row=4, seed=0):
    code = hamming_code(16)
    return SimulatedDramChip(
        code,
        ChipGeometry(num_rows, words_per_row),
        cell_layout=cell_layout,
        word_layout=word_layout,
        retention_model=AGGRESSIVE,
        seed=seed,
    )


class TestDiscoverCellTypes:
    def test_all_true_cell_chip(self):
        chip = make_chip(cell_layout=CellTypeLayout.uniform(CellType.TRUE_CELL))
        classification = discover_cell_types(chip, refresh_pause_s=80.0)
        assert all(v is CellType.TRUE_CELL for v in classification.values())
        assert len(classification) == chip.geometry.num_rows

    def test_all_anti_cell_chip(self):
        chip = make_chip(cell_layout=CellTypeLayout.uniform(CellType.ANTI_CELL), seed=1)
        classification = discover_cell_types(chip, refresh_pause_s=80.0)
        anti_rows = sum(1 for v in classification.values() if v is CellType.ANTI_CELL)
        assert anti_rows >= chip.geometry.num_rows - 1

    def test_alternating_blocks_recovered(self):
        layout = CellTypeLayout.alternating([2, 2])
        chip = make_chip(cell_layout=layout, num_rows=8, words_per_row=8, seed=2)
        classification = discover_cell_types(chip, refresh_pause_s=90.0)
        correct = sum(
            1
            for row, cell_type in classification.items()
            if cell_type is layout.cell_type_for_row(row)
        )
        assert correct >= 7  # allow one inconclusive row

    def test_vendor_c_chip_has_both_types(self):
        chip = VENDOR_C.make_chip(
            num_data_bits=16,
            geometry=ChipGeometry(16, 4),
            seed=3,
            retention_model=AGGRESSIVE,
        )
        classification = discover_cell_types(chip, refresh_pause_s=90.0)
        assert CellType.TRUE_CELL in classification.values()
        assert CellType.ANTI_CELL in classification.values()

    def test_row_error_counts_sum_each_rows_words(self):
        # Two chips with the same seed see the same decay; one is tallied by
        # the library, the other word by word through ``row_of_word``.
        def make():
            return VENDOR_C.make_chip(
                num_data_bits=16, geometry=ChipGeometry(16, 4), seed=8,
                retention_model=AGGRESSIVE,
            )

        ones = GF2Vector.ones(16)
        counts = _row_error_counts(make(), ones, 90.0, 80.0)
        chip = make()
        chip.fill(ones)
        chip.pause_refresh(90.0, 80.0)
        per_word = (chip.read_all_datawords() != ones.to_numpy()).sum(axis=1)
        expected = [0] * chip.geometry.num_rows
        for word_index, errors in enumerate(per_word):
            expected[chip.row_of_word(word_index)] += int(errors)
        assert counts.tolist() == expected
        assert sum(expected) > 0


class TestDiscoverDatawordLayout:
    def test_byte_interleaved_layout_groups_alternating_bytes(self):
        word_layout = ByteInterleavedWordLayout(dataword_bytes=2, words_per_region=2)
        chip = make_chip(word_layout=word_layout, num_rows=16, words_per_row=8, seed=4)
        groups = discover_dataword_layout(chip, refresh_pause_s=95.0)
        # Region = 4 bytes; words are {0, 2} and {1, 3}.
        groups_as_sets = [set(group) for group in groups if len(group) > 1]
        for group in groups_as_sets:
            assert group in ({0, 2}, {1, 3})
        assert len(groups_as_sets) >= 1

    def test_sequential_layout_groups_adjacent_bytes(self):
        word_layout = SequentialWordLayout(dataword_bytes=2)
        chip = make_chip(word_layout=word_layout, num_rows=16, words_per_row=8, seed=5)
        groups = discover_dataword_layout(chip, region_bytes=4, refresh_pause_s=95.0)
        for group in groups:
            if len(group) > 1:
                assert set(group) in ({0, 1}, {2, 3})

    def test_groups_partition_the_region(self):
        chip = make_chip(
            word_layout=ByteInterleavedWordLayout(2, 2), num_rows=8, words_per_row=8, seed=6
        )
        groups = discover_dataword_layout(chip, refresh_pause_s=95.0)
        flattened = sorted(offset for group in groups for offset in group)
        assert flattened == list(range(4))

    def test_estimate_dataword_bits(self):
        assert estimate_dataword_bits([[0, 2], [1, 3]]) == 16
        assert estimate_dataword_bits([[0, 2], [1]]) == 16

    def test_anti_cell_rows_handled_with_classification(self):
        layout = CellTypeLayout.uniform(CellType.ANTI_CELL)
        chip = make_chip(
            cell_layout=layout,
            word_layout=ByteInterleavedWordLayout(2, 2),
            num_rows=8,
            words_per_row=8,
            seed=7,
        )
        cell_types = {row: CellType.ANTI_CELL for row in range(8)}
        groups = discover_dataword_layout(
            chip, refresh_pause_s=95.0, cell_types=cell_types
        )
        for group in groups:
            if len(group) > 1:
                assert set(group) in ({0, 2}, {1, 3})
