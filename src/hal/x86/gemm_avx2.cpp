// AVX2 kernels of the native backend — the only translation unit compiled
// with -mavx2 (runtime dispatch in native_gemm.cpp keeps these off machines
// without AVX2). Layout contracts and overflow arguments in native_gemm.h.

#include "hal/native_gemm.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "hal/panel_blocks.h"

namespace lbc::hal {

namespace {

// The 16-bit flush cadence (kLutFlushInterval, native_gemm.h) is safe for
// every 3-4 bit LUT width: 256 * qmax(4)^2 = 12544 < 32767, and the 2-bit
// i8 cadence kLutPairFlushInterval * 2 = 126 <= 127 — both proved
// symbolically per bit width by check::prove_all_schemes().

/// Widen the 32 i8 lanes of `acc` into 32 i32 lanes at `dst`: stored on
/// the first flush of a block, added on every later one.
void widen_i8(__m256i acc, i32* dst, bool first) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i parts[4] = {lo, _mm_srli_si128(lo, 8), hi,
                            _mm_srli_si128(hi, 8)};
  for (int q = 0; q < 4; ++q) {
    __m256i* out = reinterpret_cast<__m256i*>(dst + 8 * q);
    const __m256i w = _mm256_cvtepi8_epi32(parts[q]);
    _mm256_storeu_si256(
        out, first ? w : _mm256_add_epi32(_mm256_loadu_si256(out), w));
  }
}

/// Steps [t0, t1) of one 2-bit register block: 8 weight rows (pair table
/// offsets, 8 per step) against one 32-column panel of pair indices. Per
/// step one index load feeds 8 shuffles, each answering 64 MACs into an i8
/// accumulator. Kept out of line so the 8 accumulators stay in registers.
__attribute__((noinline)) void lut_pairs_steps(const u8* offs,
                                               const u8* panel, i64 t0,
                                               i64 t1, const i8* tables,
                                               __m256i acc[kLutPairRows]) {
  static_assert(kLutPairRows == 8, "one named accumulator per row");
  __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0, a4 = a0,
          a5 = a0, a6 = a0, a7 = a0;
  for (i64 t = t0; t < t1; ++t) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(panel + t * kLutPanelCols));
    const u8* off = offs + t * kLutPairRows;
    const auto lookup = [&](i64 r) {
      return _mm256_shuffle_epi8(
          _mm256_broadcastsi128_si256(_mm_load_si128(
              reinterpret_cast<const __m128i*>(tables + off[r]))),
          idx);
    };
    a0 = _mm256_add_epi8(lookup(0), a0);
    a1 = _mm256_add_epi8(lookup(1), a1);
    a2 = _mm256_add_epi8(lookup(2), a2);
    a3 = _mm256_add_epi8(lookup(3), a3);
    a4 = _mm256_add_epi8(lookup(4), a4);
    a5 = _mm256_add_epi8(lookup(5), a5);
    a6 = _mm256_add_epi8(lookup(6), a6);
    a7 = _mm256_add_epi8(lookup(7), a7);
  }
  acc[0] = a0, acc[1] = a1, acc[2] = a2, acc[3] = a3;
  acc[4] = a4, acc[5] = a5, acc[6] = a6, acc[7] = a7;
}

/// One 2-bit register block over the full depth into 8 rows x 32 i32
/// columns at `out` (row stride `ldo`): the i8 accumulators widen into it
/// every kLutPairFlushInterval steps, so it stays L1-resident.
void lut_pairs_block(const u8* offs, const u8* panel, i64 k2,
                     const i8* tables, i32* out, i64 ldo) {
  alignas(32) __m256i acc[kLutPairRows];
  for (i64 t0 = 0; t0 < k2; t0 += kLutPairFlushInterval) {
    lut_pairs_steps(offs, panel, t0, std::min(k2, t0 + kLutPairFlushInterval),
                    tables, acc);
    for (i64 r = 0; r < kLutPairRows; ++r)
      widen_i8(acc[r], out + r * ldo, t0 == 0);
  }
}

/// 2-bit pair-class GEMM: one 8-row block x one 32-column panel per
/// register block.
void lut_pairs(const NativePackedA& pa, const i8* pb, i32* c, i64 n,
               const NativeBlocking& blocking) {
  const i64 k2 = pa.k_pad / 2;
  const i8* tables = native_pair_tables();
  for_each_register_block(
      native_register_block(pa.bits), pa.m, n, blocking, c,
      [&](i64 blk, i64 p, i64, i32* out, i64 ldo) {
        const u8* panel =
            reinterpret_cast<const u8*>(pb) + p * k2 * kLutPanelCols;
        lut_pairs_block(pa.pair_block(blk), panel, k2, tables, out, ldo);
      });
}

/// One DOT register block over the full depth: kDotRows weight rows (`a`,
/// kq quads of kDotRows * 4 bytes) against kNp 8-column panels (`b`, panel
/// stride `panel_bytes`), kDotRows x kNp * 8 i32 results to `out` (row
/// stride `ldo`). Per quad: one B load per panel, one weight broadcast and
/// |a| per row, then per (row, panel) the sign trick — |a| as the unsigned
/// maddubs operand, sign(a) folded into b — and pmaddwd against ones. Pair
/// sums stay <= 2*127*127 < 2^15 because packing rejects -128 (adjusted
/// range), so no i16 saturation. Each i32 lane is one column's 4-depth sum,
/// so the accumulators store as they are.
template <int kNp>
void dot_block(const i8* a, const i8* b, i64 kq, i64 panel_bytes, i32* out,
               i64 ldo) {
  static_assert(kDotRows == 2 && kDotPanelCols == 8 && kDotDepthQuad == 4,
                "two named accumulator rows of 8-lane panels");
  static_assert(kNp >= 1 && kNp <= kDotPanels, "one to four panels");
  constexpr i64 kStep = kDotPanelCols * kDotDepthQuad;
  const __m256i ones = _mm256_set1_epi16(1);
  const auto dp = [&ones](__m256i acc, __m256i ax, __m256i va, __m256i bv) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(ax, _mm256_sign_epi8(bv, va)), ones));
  };
  // Named accumulators (row r, panel p) so they stay in registers; the
  // panels past kNp compile away.
  __m256i c00 = _mm256_setzero_si256(), c01 = c00, c02 = c00, c03 = c00;
  __m256i c10 = c00, c11 = c00, c12 = c00, c13 = c00;
  for (i64 q = 0; q < kq; ++q) {
    const i8* bq = b + q * kStep;
    const auto load = [&](int p) {
      return _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bq + p * panel_bytes));
    };
    const __m256i b0 = load(0);
    __m256i b1 = b0, b2 = b0, b3 = b0;
    if constexpr (kNp > 1) b1 = load(1);
    if constexpr (kNp > 2) b2 = load(2);
    if constexpr (kNp > 3) b3 = load(3);
    const i8* aq = a + q * kDotRows * kDotDepthQuad;
    i32 w0, w1;
    std::memcpy(&w0, aq, sizeof(w0));
    std::memcpy(&w1, aq + kDotDepthQuad, sizeof(w1));
    const __m256i va0 = _mm256_set1_epi32(w0);
    const __m256i ax0 = _mm256_abs_epi8(va0);
    c00 = dp(c00, ax0, va0, b0);
    if constexpr (kNp > 1) c01 = dp(c01, ax0, va0, b1);
    if constexpr (kNp > 2) c02 = dp(c02, ax0, va0, b2);
    if constexpr (kNp > 3) c03 = dp(c03, ax0, va0, b3);
    const __m256i va1 = _mm256_set1_epi32(w1);
    const __m256i ax1 = _mm256_abs_epi8(va1);
    c10 = dp(c10, ax1, va1, b0);
    if constexpr (kNp > 1) c11 = dp(c11, ax1, va1, b1);
    if constexpr (kNp > 2) c12 = dp(c12, ax1, va1, b2);
    if constexpr (kNp > 3) c13 = dp(c13, ax1, va1, b3);
  }
  const auto store = [&](i64 r, int p, __m256i v) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + r * ldo + p * kDotPanelCols), v);
  };
  store(0, 0, c00);
  store(1, 0, c10);
  if constexpr (kNp > 1) store(0, 1, c01), store(1, 1, c11);
  if constexpr (kNp > 2) store(0, 2, c02), store(1, 2, c12);
  if constexpr (kNp > 3) store(0, 3, c03), store(1, 3, c13);
}

}  // namespace

void native_gemm_avx2_lut(const NativePackedA& pa, const i8* b, i32* c,
                          i64 n, const NativeBlocking& blocking) {
  if (native_lut_pairs(pa.bits)) {
    lut_pairs(pa, b, c, n, blocking);
    return;
  }
  const i64 m = pa.m, k = pa.k;
  const i8* lut = native_product_lut(pa.bits);
  const i32 q = qmax_for_bits(pa.bits);
  const __m256i qvec = _mm256_set1_epi8(static_cast<char>(q));
  const i64 rb = std::max<i64>(blocking.rb, 1);
  const i64 cb = std::max<i64>(blocking.cb, 1);
  // Staging for tail columns (N % 32 != 0): the tail's activation bytes
  // are copied into a zero-padded k x 32 block once per column block and
  // the full-width kernel runs over it. Padding with zero is value-safe:
  // index 0 + q hits the LUT's w * 0 entry, so pad lanes accumulate 0.
  std::vector<i8> stage;
  for (i64 j0 = 0; j0 < n; j0 += cb) {
    const i64 jend = std::min(n, j0 + cb);
    const i64 jvec_end = j0 + ((jend - j0) / 32) * 32;
    const i64 tail_w = jend - jvec_end;
    if (tail_w > 0) {
      stage.assign(static_cast<size_t>(k) * 32, 0);
      for (i64 kk = 0; kk < k; ++kk)
        std::memcpy(stage.data() + kk * 32, b + kk * n + jvec_end,
                    static_cast<size_t>(tail_w));
    }
    // One 32-column group: k pshufb rounds of `arow` against the activation
    // block at `bcol` (row stride `bstride`), i32 results to out[0..31].
    const auto lut_group32 = [&](const i8* arow, const i8* bcol, i64 bstride,
                                 i32* out) {
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      __m256i s16lo = _mm256_setzero_si256();
      __m256i s16hi = _mm256_setzero_si256();
      const auto flush = [&]() {
        acc0 = _mm256_add_epi32(
            acc0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s16lo)));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s16lo, 1)));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s16hi)));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s16hi, 1)));
        s16lo = _mm256_setzero_si256();
        s16hi = _mm256_setzero_si256();
      };
      i64 pending = 0;
      for (i64 kk = 0; kk < k; ++kk) {
        // One pshufb = 32 products: the weight's table row against 32
        // activation indices (value + qmax, low nibble in range).
        const __m256i tbl = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                lut + static_cast<u8>(arow[kk]) * 16)));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bcol + kk * bstride));
        const __m256i prod =
            _mm256_shuffle_epi8(tbl, _mm256_add_epi8(bv, qvec));
        s16lo = _mm256_add_epi16(
            s16lo, _mm256_cvtepi8_epi16(_mm256_castsi256_si128(prod)));
        s16hi = _mm256_add_epi16(
            s16hi, _mm256_cvtepi8_epi16(_mm256_extracti128_si256(prod, 1)));
        if (++pending == kLutFlushInterval) {
          flush();
          pending = 0;
        }
      }
      if (pending != 0) flush();
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), acc1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16), acc2);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 24), acc3);
    };
    for (i64 i0 = 0; i0 < m; i0 += rb) {
      const i64 iend = std::min(m, i0 + rb);
      for (i64 i = i0; i < iend; ++i) {
        const i8* arow = pa.row(i);  // table-row indices
        i32* crow = c + i * n;
        for (i64 jg = j0; jg < jvec_end; jg += 32)
          lut_group32(arow, b + jg, n, crow + jg);
        if (tail_w > 0) {
          // Tail columns run the same vector kernel over the staged block;
          // only the live lanes are written back.
          alignas(32) i32 tail_c[32];
          lut_group32(arow, stage.data(), 32, tail_c);
          std::memcpy(crow + jvec_end, tail_c,
                      static_cast<size_t>(tail_w) * sizeof(i32));
        }
      }
    }
  }
}

void native_gemm_avx2_dot(const NativePackedA& pa, const i8* pb, i32* c,
                          i64 n, const NativeBlocking& blocking) {
  static_assert(kDotPanels == 4, "one dot_block instance per group width");
  const i64 kq = pa.k_pad / kDotDepthQuad;
  const i64 panel_bytes = kq * kDotPanelCols * kDotDepthQuad;
  for_each_register_block(
      native_register_block(pa.bits), pa.m, n, blocking, c,
      [&](i64 blk, i64 p, i64 np, i32* out, i64 ldo) {
        const i8* a = pa.dot_block(blk);
        const i8* b = pb + p * panel_bytes;
        switch (np) {
          case 4: dot_block<4>(a, b, kq, panel_bytes, out, ldo); break;
          case 3: dot_block<3>(a, b, kq, panel_bytes, out, ldo); break;
          case 2: dot_block<2>(a, b, kq, panel_bytes, out, ldo); break;
          default: dot_block<1>(a, b, kq, panel_bytes, out, ldo); break;
        }
      });
}

}  // namespace lbc::hal

#else  // !__AVX2__

#include <cstdlib>

namespace lbc::hal {

// This TU was built without AVX2 codegen (non-x86 target); the dispatch
// layer never routes here because avx2_enabled() is false.
void native_gemm_avx2_lut(const NativePackedA&, const i8*, i32*, i64,
                          const NativeBlocking&) {
  std::abort();
}
void native_gemm_avx2_dot(const NativePackedA&, const i8*, i32*, i64,
                          const NativeBlocking&) {
  std::abort();
}

}  // namespace lbc::hal

#endif
