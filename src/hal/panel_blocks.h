// The one loop the native panel kernels run under — the 2-bit pair-class
// kernel and the DOT kernel, AVX2 and scalar alike. Private to src/hal:
// each kernel supplies only its register block; tiling, edge handling and
// the write-back live here once.
#pragma once

#include <algorithm>
#include <cstring>

#include "hal/native_gemm.h"

namespace lbc::hal {

/// Largest register block (rows x columns) any scheme declares; the edge
/// tile holds one.
constexpr i64 kMaxRegisterBlockElems = 256;
static_assert(kLutPairRows * kLutPanelCols <= kMaxRegisterBlockElems &&
                  kDotRows * kDotPanels * kDotPanelCols <=
                      kMaxRegisterBlockElems,
              "the edge tile holds every scheme's register block");

/// Run `block(blk, p, np, out, ldo)` over every register block of an
/// m x n output C (row-major, row stride n). A call computes row block
/// `blk` (rows blk * rbk.rows ...) against the `np` panels starting at
/// panel `p`, writing rbk.rows x np * rbk.panel_cols i32 values at `out`
/// with row stride `ldo`.
///
/// Loop order: {rb, cb} tiles (rounded up to whole register blocks; panels
/// outer), then column groups of rbk.panels panels, then row blocks. Only
/// the last group of a tile may hold fewer panels; it runs a narrower
/// block (np < rbk.panels) instead of a full-width block over padding.
/// Whole blocks store straight into C; a block that overhangs m or n goes
/// through a local tile and only its live part is copied out.
template <class Block>
void for_each_register_block(const NativeRegisterBlock& rbk, i64 m, i64 n,
                             const NativeBlocking& blocking, i32* c,
                             Block&& block) {
  const i64 pc = rbk.panel_cols;
  const i64 panels = ceil_div(n, pc);
  const i64 blocks = ceil_div(m, rbk.rows);
  const i64 tile_blocks = ceil_div(std::max<i64>(blocking.rb, 1), rbk.rows);
  const i64 tile_panels =
      ceil_div(std::max<i64>(blocking.cb, 1), rbk.cols()) * rbk.panels;
  alignas(32) i32 tile[kMaxRegisterBlockElems];
  for (i64 p0 = 0; p0 < panels; p0 += tile_panels) {
    const i64 p1 = std::min(panels, p0 + tile_panels);
    for (i64 b0 = 0; b0 < blocks; b0 += tile_blocks) {
      const i64 b1 = std::min(blocks, b0 + tile_blocks);
      for (i64 p = p0; p < p1; p += rbk.panels) {
        const i64 np = std::min(rbk.panels, p1 - p);
        const i64 j0 = p * pc;
        const i64 w = std::min(np * pc, n - j0);
        for (i64 blk = b0; blk < b1; ++blk) {
          const i64 i0 = blk * rbk.rows;
          const i64 rows = std::min(rbk.rows, m - i0);
          if (rows == rbk.rows && w == np * pc) {
            block(blk, p, np, c + i0 * n + j0, n);
            continue;
          }
          block(blk, p, np, tile, np * pc);
          for (i64 r = 0; r < rows; ++r)
            std::memcpy(c + (i0 + r) * n + j0, tile + r * np * pc,
                        static_cast<size_t>(w) * sizeof(i32));
        }
      }
    }
  }
}

}  // namespace lbc::hal
