// Ternary pair classes and the 16-entry product tables built over them —
// the one definition shared by the emulated ARM TBL scheme (armkern,
// DESIGN.md Sec. 16) and the native AVX2 LUT scheme at 2 bit (hal). Both
// kernels fold TWO depth positions of the ternary side into one byte index
// and answer it with a single 16-entry table shuffle (TBL.16B on ARM,
// pshufb on x86), accumulating the looked-up entries in 8-bit lanes that
// widen every tbl_flush_interval steps.
#pragma once

#include "common/types.h"

namespace lbc {

/// Ternary pair class of (v0, v1), both in {-1,0,1}:
///   idx = (v0+1)*4 + (v1+1)  in {0,1,2, 4,5,6, 8,9,10}.
/// idx % 4 == 3 and idx > 10 never occur; the shuffle's out-of-range
/// behavior makes the unused tail of the 16-entry table harmless.
constexpr u8 tbl_pair_index(i32 v0, i32 v1) {
  return static_cast<u8>((v0 + 1) * 4 + (v1 + 1));
}

/// The (0,0) pair class: the neutral padding index. Its table entry is 0 in
/// every table, so padded rows/cols and odd-K tails contribute nothing.
constexpr u8 kTblNeutralPairIndex = tbl_pair_index(0, 0);

/// Largest |entry| a product table can hold for b-bit operands: ternary
/// pair mode sums two {-1,0,1}-scaled operands (2*qmax), the generic
/// one-value-per-index form holds one full product (qmax^2).
constexpr i32 tbl_entry_bound(int bits, bool ternary_pairs) {
  const i32 q = qmax_for_bits(bits);
  return ternary_pairs ? 2 * q : q * q;
}

/// Byte-add accumulations of looked-up table entries into one fresh 8-bit
/// lane between widenings into the 32-bit accumulators: the lane's headroom
/// divided by the entry bound. This two-level accumulation (paper Sec. 3.4)
/// keeps the per-step ALU work at one shuffle plus one byte add.
constexpr int tbl_flush_interval(int bits, bool ternary_pairs) {
  return 127 / tbl_entry_bound(bits, ternary_pairs);
}

static_assert(tbl_pair_index(1, 1) == 10 && tbl_pair_index(1, 1) < 16);
static_assert(kTblNeutralPairIndex == 5);
static_assert(tbl_entry_bound(2, true) == 2 && tbl_entry_bound(3, true) == 6);
static_assert(tbl_entry_bound(3, false) == 9);
static_assert(tbl_flush_interval(2, true) == 63);
static_assert(tbl_flush_interval(3, true) == 21);
static_assert(tbl_flush_interval(3, false) == 14);
static_assert(tbl_flush_interval(2, true) * tbl_entry_bound(2, true) <= 127);
static_assert(tbl_flush_interval(3, false) * tbl_entry_bound(3, false) <= 127);

/// Build one 16-entry product table for the non-index side's operands
/// (b0, b1): in pair mode out[idx] = d0(idx)*b0 + d1(idx)*b1 over the
/// decoded ternary pair (d0, d1); in generic mode out[idx] = (idx-qmax)*b0
/// (b1 ignored). Invalid indices get 0. The only table builder: both ARM
/// TBL pack orientations, the native 2-bit pair tables and 3-4 bit product
/// rows, and the kernel prover's exhaustive table check all call it.
void tbl_build_table(int bits, bool ternary_pairs, i8 b0, i8 b1, i8 out[16]);

}  // namespace lbc
