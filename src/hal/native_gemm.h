// Native host low-bit GEMM — the x86 implementation of the packed GEMM
// contract the emulated ARM backend defines (armkern/gemm_lowbit.h), built
// for real wall-clock speed instead of modeled Cortex-A53 cycles.
//
// Two instruction schemes, dispatched by bit width (the same split the
// paper makes between the MLA and SMLAL schemes on ARM):
//
//  * LUT scheme (2-4 bit) — DeepGEMM-style product lookup: one `pshufb`
//    answers 32 lookups into a 16-entry signed-byte table.
//    - 2 bit runs the ternary pair-class form of the ARM TBL scheme
//      (common/pair_classes.h, DESIGN.md Sec. 16): every activation byte
//      is a pair index over two depths, every weight pair selects one of
//      9 tables with entries w0*d0 + w1*d1 in [-2, 2], so one pshufb is
//      64 MACs. Entries accumulate in i8 lanes (one `paddb` per shuffle)
//      and widen into an i32 tile every kLutPairFlushInterval = 63 steps
//      (63 * 2 <= 127) — the two-level accumulation of paper Sec. 3.4.
//    - 3-4 bit index one product table row per weight value; products
//      accumulate in i16 lanes and flush to i32 every kLutFlushInterval
//      steps (256 * qmax^2 <= 32767).
//  * DOT scheme (5-8 bit) — maddubs-style dp accumulation over depth
//    quads: the ggml sign trick (|a| as unsigned times sign(a)-adjusted b)
//    keeps every `pmaddubsw` pair sum within int16, then `pmaddwd` against
//    ones folds each column's 4 depths to 32-bit — exact for operands in
//    the adjusted range [-(2^(b-1)-1), 2^(b-1)-1]. A register block is
//    kDotRows weight rows x kDotPanels 8-column panels: one B load per
//    panel and one `vpbroadcastd` weight quad per row feed kDotRows *
//    kDotPanels i32 accumulators, with no horizontal sum.
//
// Both schemes have a portable scalar fallback consuming the identical
// packed layouts, selected automatically when AVX2 is absent or disabled
// (LBC_HAL_DISABLE=avx2); the DOT fallback runs a 2-row x 8-column block
// per panel with SSE2 `pmaddwd` on i16-widened operands where the x86-64
// baseline provides it — results are bit-exact across AVX2 / scalar /
// the emulated ARM kernels / the reference GEMM, which the cross-backend
// sweep in tests/test_hal_backend.cpp enforces. check::prove_native_scheme
// proves the overflow argument of each scheme at plan time.
//
// Layouts (chosen per scheme at prepack time, consumed by both kernels):
//  * LUT 2 bit (pair classes):
//    - A packs to one pair-class table per two depths, stored as the
//      table's byte offset (native_pair_table_offset = id * 16, id 0..8),
//      K padded to even and M to kLutPairRows. Rows interleave in blocks
//      of 8: byte [(blk * K/2 + t) * 8 + r] is row blk*8+r's pair t.
//      Padded rows and the odd-K tail use the (0, 0) table, all zeros.
//    - B packs to 32-column panels of ceil(K/2) x 32 pair indices
//      (tbl_pair_index of depths 2t and 2t+1). Odd-K tails and the N % 32
//      columns hold the neutral index 5, which reads 0 in every table.
//  * LUT 3-4 bit: A packs to row-major u8 table indices (value + qmax), B
//    stays row-major K x N (the kernel vectorizes across 32 columns).
//  * DOT (depth quads, the x86 analogue of the ARM SDOT packing in
//    armkern/pack.cpp):
//    - A packs to kDotRows-row blocks of ceil(K/4) quads at one byte per
//      weight: byte [(blk * K/4 + q) * kDotRows * 4 + r * 4 + d] is
//      A[blk*kDotRows + r][4q + d]. M pads to kDotRows and K to a multiple
//      of 4 with zeros. |a| is computed in-kernel, not stored.
//    - B packs to 8-column panels of ceil(K/4) steps of 32 bytes: byte
//      [c * 4 + d] of panel p's step q is B[4q + d][8p + c]. Depths past K
//      and the N % 8 columns hold 0.
//
// Blocking: {row_block, col_block} loop tiles over M and N (the
// gemm-config.h row/col-blocking idiom; see DESIGN.md §13). The panel
// kernels (2-bit LUT, DOT) round them up to whole register blocks
// (native_register_block). The winner per (GEMM view, scheme) comes from
// search_native_blocking — candidates priced by *measured nanoseconds*,
// not modeled cycles — and persists in TuningCache v5 under the "x86"
// backend key.
#pragma once

#include "common/align.h"
#include "common/conv_shape.h"
#include "common/pair_classes.h"
#include "common/status.h"
#include "common/tensor.h"
#include "common/types.h"

namespace lbc {
class Workspace;
}  // namespace lbc

namespace lbc::hal {

/// Instruction scheme of the native kernel family, by bit width.
enum class NativeScheme { kLut, kDot };

/// LUT for 2-4 bit (products fit a signed byte, values fit a 16-entry
/// table), DOT for 5-8 bit.
NativeScheme native_scheme_for(int bits);

/// Whether the LUT scheme runs its ternary pair-class form (2 bit).
constexpr bool native_lut_pairs(int bits) { return bits == 2; }

/// Stable id of the kernel + layout pair for the persistent tuning cache
/// ("x86" rows): 0 = LUT 3-4 bit, 2 = LUT 2-bit pair classes, 3 = DOT on
/// depth-quad panels. Id 1 (the retired DOT patch layout) is no longer
/// issued. A blocking measured on one kernel is never replayed onto
/// another.
int native_scheme_id(int bits);

/// LUT-scheme 16-bit flush cadence (3-4 bit): i16 lanes absorb this many
/// products before the kernel widens to 32-bit. Shared between the AVX2
/// kernel and the symbolic prover (check/kernel_prover.h), which proves
/// kLutFlushInterval * qmax(bits)^2 <= 32767 for every such width.
constexpr i64 kLutFlushInterval = 256;

/// 2-bit pair-class cadence: i8 lanes absorb this many table entries
/// (|entry| <= 2) before the kernel widens them into its i32 tile. The
/// AVX2 kernel compiles with it; the prover checks it against the shared
/// tbl_flush_interval / tbl_entry_bound declaration.
constexpr i64 kLutPairFlushInterval = tbl_flush_interval(2, true);

/// 2-bit register block: weight rows per block (one i8 accumulator each)
/// and activation columns per panel (one 256-bit register of indices).
constexpr i64 kLutPairRows = 8;
constexpr i64 kLutPanelCols = 32;

/// DOT register block: weight rows per block (one broadcast quad each),
/// activation columns per panel (the 8 i32 lanes of one accumulator),
/// panels per block, and the depths one maddubs + madd pair reduces.
constexpr i64 kDotRows = 2;
constexpr i64 kDotPanelCols = 8;
constexpr i64 kDotPanels = 4;
constexpr i64 kDotDepthQuad = 4;

/// Register-block shape of a native kernel: `rows` weight rows by up to
/// `panels` activation panels of `panel_cols` columns. {rb, cb} tilings
/// round up to whole blocks of it. The 3-4 bit LUT kernel is not a panel
/// kernel; its shape is 1 x 1 (no rounding).
struct NativeRegisterBlock {
  i64 rows = 1;
  i64 panel_cols = 1;
  i64 panels = 1;

  i64 cols() const { return panel_cols * panels; }
};

/// 2 bit: kLutPairRows x one kLutPanelCols panel; DOT: kDotRows x
/// kDotPanels panels of kDotPanelCols; 3-4 bit LUT: 1 x 1.
NativeRegisterBlock native_register_block(int bits);

/// Table id of a 2-bit weight pair (w0, w1) in {-1,0,1}^2: (w0+1)*3 +
/// (w1+1) in [0, 9). Id 4, the (0, 0) pair, is the all-zero pad table.
constexpr u8 native_pair_table_id(i32 w0, i32 w1) {
  return static_cast<u8>((w0 + 1) * 3 + (w1 + 1));
}

/// What the packed 2-bit A stores per weight pair: the table id scaled to
/// the table's byte offset in native_pair_tables(), so the kernel's table
/// load needs no address arithmetic. Fits a byte (8 * 16 = 128).
constexpr u8 native_pair_table_offset(i32 w0, i32 w1) {
  return static_cast<u8>(native_pair_table_id(w0, w1) * 16);
}

/// {row_block, col_block} loop tiling of the native GEMM. row_block tiles
/// the M (weight-row) loop, col_block the N (output-pixel) loop; both in
/// raw elements, clamped to the problem by the driver.
struct NativeBlocking {
  i64 rb = 8;
  i64 cb = 256;

  bool operator==(const NativeBlocking&) const = default;
};

/// Default tiling when no search ran (sized for a ~32KB L1d).
NativeBlocking default_native_blocking(i64 m, i64 n, i64 k, int bits);

/// Weights prepacked for the native kernels. Immutable after packing; safe
/// to share across threads (the serving tier executes concurrent batches
/// against one packed buffer).
struct NativePackedA {
  int bits = 8;
  NativeScheme scheme = NativeScheme::kDot;
  i64 m = 0, k = 0;
  /// k rounded up to a multiple of 4 (kDot) or to even (2-bit kLut); == k
  /// for 3-4 bit.
  i64 k_pad = 0;
  /// kDot: depth quads in kDotRows-row blocks, m padded to a whole block,
  /// one byte per weight (layout in the file header).
  /// kLut 3-4 bit: row-major u8 table indices (weight value + qmax), m x k.
  /// kLut 2 bit: pair table offsets in 8-row blocks, m padded to a whole
  /// block (layout in the file header).
  AlignedVector<i8> data;

  i64 bytes() const { return static_cast<i64>(data.size()); }
  /// Row i of the 3-4 bit kLut row-major layout.
  const i8* row(i64 i) const { return data.data() + i * k_pad; }
  /// kDotRows-row block `blk` of the kDot layout: k_pad/4 quads of
  /// kDotRows * 4 weights.
  const i8* dot_block(i64 blk) const {
    return data.data() + blk * k_pad * kDotRows;
  }
  /// 8-row block `blk` of the 2-bit layout: k_pad/2 steps of 8 table
  /// offsets.
  const u8* pair_block(i64 blk) const {
    return reinterpret_cast<const u8*>(data.data()) +
           blk * (k_pad / 2) * kLutPairRows;
  }
};

/// Pack an M x K row-major i8 weight matrix for the scheme of `bits`.
/// Values must lie in the adjusted range [-qmax, qmax] of `bits`
/// (kInvalidArgument otherwise — an out-of-range weight would index
/// outside the product table).
StatusOr<NativePackedA> native_pack_a(const i8* a, i64 m, i64 k, int bits);

/// Bytes of activation scratch one native GEMM over a K x N problem needs
/// (the packed-B staging buffer; cache-line rounded like Workspace).
i64 native_packed_b_bytes(i64 k, i64 n, int bits);

/// Pack a row-major K x N activation matrix into the scheme's B layout at
/// `dst` (native_packed_b_bytes big). 2-bit kLut encodes 32-column pair
/// panels; 3-4 bit kLut copies rows verbatim; kDot interleaves depth quads
/// into 8-column panels. Every byte of the layout is written.
void native_pack_b(const i8* b, i64 k, i64 n, int bits, i8* dst);

/// Fused im2col pack: gather the conv input straight into the scheme's B
/// layout (2-bit kLut: the pair panels; 3-4 bit kLut: the K x N im2col
/// matrix; kDot: the depth-quad panels), padding taps reading as value 0.
/// Byte-identical to materializing im2col and calling native_pack_b.
void native_pack_b_from_conv(const ConvShape& s, const Tensor<i8>& input,
                             int bits, i8* dst);

/// What one native GEMM execution reports: real wall-clock nanoseconds
/// (activation pack + multiply; weight prepack excluded, mirroring the
/// modeled-cycle accounting) and the kernel that ran.
struct NativeGemmResult {
  double ns = 0;
  const char* kernel = "";  ///< "avx2-lut" | "avx2-dot" | "scalar-lut" | "scalar-dot"
};

/// C[M x N] (i32, row-major) = A * B with B already in the scheme's packed
/// layout (native_pack_b / native_pack_b_from_conv). Bit-exact with
/// ref::gemm_s8s32 for operands in the adjusted range of pa.bits.
NativeGemmResult native_gemm_packed_b(const NativePackedA& pa, const i8* pb,
                                      i32* c, i64 n,
                                      const NativeBlocking& blocking);

/// One-shot convenience: packs row-major B into `ws` (or a temporary) and
/// multiplies; ns covers pack + multiply.
NativeGemmResult native_gemm_s8s32(const NativePackedA& pa, const i8* b,
                                   i32* c, i64 n,
                                   const NativeBlocking& blocking,
                                   Workspace* ws = nullptr);

/// Measured-nanosecond blocking search: run each {rb, cb} candidate of a
/// fixed grid against synthetic operands of the problem's shape and keep
/// the fastest (one warm-up rep, then the best of 2 per candidate; the
/// same discipline as the ARM tile search but priced by the wall clock).
/// Memoized per (m, n, k, native_scheme_id); deterministic candidate
/// order, measured winners — persist them through TuningCache v5 to
/// amortize across process runs.
NativeBlocking search_native_blocking(i64 m, i64 n, i64 k, int bits);

struct NativeSearchStats {
  i64 searches = 0;   ///< cold searches (full measured sweeps)
  i64 memo_hits = 0;  ///< served from the in-process memo
};
NativeSearchStats native_search_stats();

// ---- kernel entry points (exposed for the dispatch layer and tests) ----

/// Portable scalar kernels (always available; consume the packed layouts).
void native_gemm_scalar_lut(const NativePackedA& pa, const i8* b, i32* c,
                            i64 n, const NativeBlocking& blocking);
void native_gemm_scalar_dot(const NativePackedA& pa, const i8* pb, i32* c,
                            i64 n, const NativeBlocking& blocking);

/// AVX2 kernels (x86-64 only; callers must check hal::avx2_enabled()).
/// Defined in x86/gemm_avx2.cpp, compiled with -mavx2; on other
/// architectures these are stubs that abort.
void native_gemm_avx2_lut(const NativePackedA& pa, const i8* b, i32* c,
                          i64 n, const NativeBlocking& blocking);
void native_gemm_avx2_dot(const NativePackedA& pa, const i8* pb, i32* c,
                          i64 n, const NativeBlocking& blocking);

/// The 3-4 bit signed product table for `bits`: row (weight index) x col
/// (activation index), each padded to 16 entries so a row is exactly one
/// pshufb table. Exposed for tests and the prover.
const i8* native_product_lut(int bits);

/// The 9 x 16 pair tables of the 2-bit kernel: table id
/// native_pair_table_id(w0, w1) is tbl_build_table(2, true, w0, w1).
/// Exposed for tests and the prover.
const i8* native_pair_tables();

}  // namespace lbc::hal
