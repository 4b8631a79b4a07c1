"""Dense linear algebra over GF(2).

This package provides the finite-field substrate that every other part of the
library builds on: ECC generator/parity-check matrices, syndrome computation,
span-membership tests used by the BEER constraint solver, and the affine
solves used by BEEP's test-pattern crafting.

The central type is :class:`~repro.gf2.matrix.GF2Matrix`, a thin wrapper
around a ``numpy`` ``uint8`` array whose entries are always 0 or 1 and whose
arithmetic is performed modulo 2; :mod:`repro.gf2.linalg` holds the one
implementation of elimination, solving and span tests.  :mod:`repro.gf2.bitpack`
provides the bit-packed kernels (rows packed into ``uint64`` lanes with
AND/XOR/popcount and per-byte fold tables) behind the ``fast`` simulation
backend, which the uint8 implementation checks as the reference oracle.
"""

from repro.gf2.matrix import GF2Matrix, GF2Vector
from repro.gf2.bitpack import (
    pack_rows,
    pack_vector,
    popcount_u64,
    unpack_rows,
    unpack_vector,
)
from repro.gf2.linalg import (
    gf2_rank,
    gf2_rref,
    gf2_solve,
    gf2_null_space,
    gf2_inverse,
    in_span,
    int_in_span,
    span,
    row_space_equal,
    vector_from_int,
    int_from_vector,
    popcount,
    support,
)

__all__ = [
    "GF2Matrix",
    "GF2Vector",
    "gf2_rank",
    "gf2_rref",
    "gf2_solve",
    "gf2_null_space",
    "gf2_inverse",
    "in_span",
    "int_in_span",
    "span",
    "row_space_equal",
    "vector_from_int",
    "int_from_vector",
    "popcount",
    "support",
    "pack_rows",
    "pack_vector",
    "popcount_u64",
    "unpack_rows",
    "unpack_vector",
]
