// Scheme dispatch, packing, scalar kernels, and the measured-ns blocking
// search of the native GEMM. The AVX2 kernels live in x86/gemm_avx2.cpp
// (own translation unit so only it is compiled with -mavx2).

#include "hal/native_gemm.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/workspace.h"
#include "hal/cpu_features.h"
#include "hal/panel_blocks.h"

namespace lbc::hal {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bytes of one DOT panel step: kDotPanelCols columns x one depth quad.
constexpr i64 kDotStepBytes = kDotPanelCols * kDotDepthQuad;

i64 dot_k_pad(i64 k) { return round_up(k, kDotDepthQuad); }

}  // namespace

NativeScheme native_scheme_for(int bits) {
  return bits <= 4 ? NativeScheme::kLut : NativeScheme::kDot;
}

int native_scheme_id(int bits) {
  if (native_lut_pairs(bits)) return 2;
  return native_scheme_for(bits) == NativeScheme::kLut ? 0 : 3;
}

NativeRegisterBlock native_register_block(int bits) {
  if (native_lut_pairs(bits)) return {kLutPairRows, kLutPanelCols, 1};
  if (native_scheme_for(bits) == NativeScheme::kDot)
    return {kDotRows, kDotPanelCols, kDotPanels};
  return {};
}

NativeBlocking default_native_blocking(i64 m, i64 n, i64 k, int bits) {
  // Size the B tile for a ~32KB L1d: the LUT kernel streams K (2 bit:
  // K/2 pair) bytes per column, the DOT kernel K_pad bytes per column.
  const i64 kk = std::max<i64>(k, 1);
  i64 depth = dot_k_pad(kk);
  if (native_lut_pairs(bits))
    depth = ceil_div(kk, 2);
  else if (native_scheme_for(bits) == NativeScheme::kLut)
    depth = kk;
  i64 cb = (32 * 1024) / depth;
  cb = std::clamp<i64>(cb, 32, 512);
  NativeBlocking b{8, cb};
  b.rb = std::clamp<i64>(b.rb, 1, std::max<i64>(m, 1));
  b.cb = std::clamp<i64>(b.cb, 1, std::max<i64>(round_up(n, 32), 32));
  return b;
}

const i8* native_product_lut(int bits) {
  // One signed-byte table per 3-4 bit width: row = weight index
  // (value + qmax), column = activation index. Each 16-byte row is the
  // shared builder's generic table for that weight — exactly one pshufb
  // table, zero beyond 2*qmax (an in-range activation never indexes it).
  static const auto tables = [] {
    // 15 rows x 16 cols covers the widest LUT width (4-bit, qmax 7).
    std::array<std::array<i8, 15 * 16>, 2> t{};
    for (int bits_i = 3; bits_i <= 4; ++bits_i) {
      const i32 q = qmax_for_bits(bits_i);
      for (i32 w = -q; w <= q; ++w)
        tbl_build_table(bits_i, /*ternary_pairs=*/false, static_cast<i8>(w),
                        0, t[static_cast<size_t>(bits_i - 3)].data() +
                               (w + q) * 16);
    }
    return t;
  }();
  return tables[static_cast<size_t>(std::clamp(bits, 3, 4) - 3)].data();
}

const i8* native_pair_tables() {
  alignas(64) static const auto tables = [] {
    std::array<i8, 9 * 16> t{};
    for (i32 w0 = -1; w0 <= 1; ++w0)
      for (i32 w1 = -1; w1 <= 1; ++w1)
        tbl_build_table(2, /*ternary_pairs=*/true, static_cast<i8>(w0),
                        static_cast<i8>(w1),
                        t.data() + native_pair_table_offset(w0, w1));
    return t;
  }();
  return tables.data();
}

StatusOr<NativePackedA> native_pack_a(const i8* a, i64 m, i64 k, int bits) {
  LBC_VALIDATE(a != nullptr && m > 0 && k > 0, kInvalidArgument,
               "native_pack_a: need a non-empty " << m << "x" << k
                                                  << " matrix");
  LBC_VALIDATE(bits >= 2 && bits <= 8, kInvalidArgument,
               "native_pack_a: bits must be in [2, 8], got " << bits);
  const i32 q = qmax_for_bits(bits);
  NativePackedA pa;
  pa.bits = bits;
  pa.scheme = native_scheme_for(bits);
  pa.m = m;
  pa.k = k;
  for (i64 i = 0; i < m * k; ++i)
    LBC_VALIDATE(a[i] >= -q && a[i] <= q, kInvalidArgument,
                 "native_pack_a: weight " << static_cast<i32>(a[i])
                                          << " outside the adjusted " << bits
                                          << "-bit range [" << -q << ", " << q
                                          << "]");
  if (native_lut_pairs(bits)) {
    // One table offset per weight pair, 8-row blocks interleaved so a
    // kernel step reads the offsets of all 8 rows from one 8-byte run.
    // Padded rows and the odd-K tail use the all-zero (0, 0) table.
    pa.k_pad = round_up(k, 2);
    const i64 k2 = pa.k_pad / 2;
    pa.data.assign(static_cast<size_t>(round_up(m, kLutPairRows) * k2),
                   static_cast<i8>(native_pair_table_offset(0, 0)));
    u8* offs = reinterpret_cast<u8*>(pa.data.data());
    for (i64 i = 0; i < m; ++i) {
      const i8* src = a + i * k;
      u8* blk =
          offs + (i / kLutPairRows) * k2 * kLutPairRows + i % kLutPairRows;
      for (i64 t = 0; t < k2; ++t) {
        const i32 w1 = 2 * t + 1 < k ? src[2 * t + 1] : 0;
        blk[t * kLutPairRows] = native_pair_table_offset(src[2 * t], w1);
      }
    }
  } else if (pa.scheme == NativeScheme::kLut) {
    // Table-row indices: value + qmax in [0, 2*qmax].
    pa.k_pad = k;
    pa.data.assign(static_cast<size_t>(m * k), 0);
    for (i64 i = 0; i < m * k; ++i)
      pa.data[static_cast<size_t>(i)] = static_cast<i8>(a[i] + q);
  } else {
    // Depth quads in kDotRows-row blocks: a kernel step broadcasts each
    // row's 4 weights from one 4-byte run. Padded rows and depths are 0,
    // so they add nothing whatever the B byte they meet.
    pa.k_pad = dot_k_pad(k);
    pa.data.assign(static_cast<size_t>(round_up(m, kDotRows) * pa.k_pad), 0);
    for (i64 i = 0; i < m; ++i) {
      i8* blk = pa.data.data() + (i / kDotRows) * pa.k_pad * kDotRows +
                i % kDotRows * kDotDepthQuad;
      for (i64 kk = 0; kk < k; ++kk)
        blk[kk / kDotDepthQuad * kDotRows * kDotDepthQuad +
            kk % kDotDepthQuad] = a[i * k + kk];
    }
  }
  return pa;
}

namespace {

/// Raw bytes of the scheme's B layout (before cache-line rounding).
i64 packed_b_raw_bytes(i64 k, i64 n, int bits) {
  if (native_lut_pairs(bits))
    return round_up(n, kLutPanelCols) * ceil_div(k, 2);
  return native_scheme_for(bits) == NativeScheme::kLut
             ? k * n
             : round_up(n, kDotPanelCols) * dot_k_pad(k);
}

/// Add the pair digits of `count` values src[j * stride] to out[j]: x4 for
/// the pair's first depth, x1 for its second. Starting from the neutral
/// index 5, both digits give tbl_pair_index in u8 arithmetic, so the two B
/// packers agree byte for byte on any input. The constant multipliers and
/// the stride-1 case are split out so the loops vectorize.
void add_pair_digits(u8* out, const i8* src, i64 count, i64 stride,
                     bool first) {
  const auto run = [&](auto mul) {
    if (stride == 1) {
      for (i64 j = 0; j < count; ++j)
        out[j] = static_cast<u8>(out[j] + static_cast<u8>(src[j]) * mul);
    } else {
      for (i64 j = 0; j < count; ++j)
        out[j] =
            static_cast<u8>(out[j] + static_cast<u8>(src[j * stride]) * mul);
    }
  };
  if (first)
    run(std::integral_constant<u8, 4>{});
  else
    run(std::integral_constant<u8, 1>{});
}

/// Write columns [j0, j1) of one DOT depth quad into the panels: rows[d]
/// holds depth d of the quad at index j - j0, `dst_q` is the quad's step
/// in panel 0, and panel p's step sits kq steps further per panel. The
/// vector body is a 4-way byte interleave (punpcklbw, then punpcklwd) of
/// 16 columns into two panels' 32-byte steps; ragged ends go column by
/// column.
void interleave_quad(const i8* const rows[kDotDepthQuad], i64 j0, i64 j1,
                     i64 kq, i8* dst_q) {
  const i64 panel_bytes = kq * kDotStepBytes;
  const auto step = [&](i64 j) {
    return dst_q + j / kDotPanelCols * panel_bytes;
  };
  const auto column = [&](i64 j) {
    i8* out = step(j) + j % kDotPanelCols * kDotDepthQuad;
    for (i64 d = 0; d < kDotDepthQuad; ++d) out[d] = rows[d][j - j0];
  };
  i64 j = j0;
  for (; j < j1 && j % kDotPanelCols != 0; ++j) column(j);
#if defined(__SSE2__)
  static_assert(kDotPanelCols == 8 && kDotDepthQuad == 4,
                "the interleave writes 8 columns x 4 depths per step");
  const auto load = [&](i64 d) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rows[d] + (j - j0)));
  };
  // Depth pairs (0,1) and (2,3) byte-interleaved, then the two word-
  // interleaved: 4 bytes per column, 4 columns per 16-byte store.
  const auto store = [](i8* out, __m128i d01, __m128i d23) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm_unpacklo_epi16(d01, d23));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16),
                     _mm_unpackhi_epi16(d01, d23));
  };
  for (; j + 2 * kDotPanelCols <= j1; j += 2 * kDotPanelCols) {
    const __m128i r0 = load(0), r1 = load(1), r2 = load(2), r3 = load(3);
    store(step(j), _mm_unpacklo_epi8(r0, r1), _mm_unpacklo_epi8(r2, r3));
    store(step(j) + panel_bytes, _mm_unpackhi_epi8(r0, r1),
          _mm_unpackhi_epi8(r2, r3));
  }
#endif
  for (; j < j1; ++j) column(j);
}

/// DOT-pack columns [j0, j1) from a row-major source: depth kr of column j
/// at src[kr * ld + j - j0], depths past k read from `zeros` (j1 - j0
/// zero bytes).
void pack_dot_rows(const i8* src, i64 ld, i64 k, i64 j0, i64 j1,
                   const i8* zeros, i8* dst) {
  const i64 kq = ceil_div(k, kDotDepthQuad);
  for (i64 q = 0; q < kq; ++q) {
    const i8* rows[kDotDepthQuad];
    for (i64 d = 0; d < kDotDepthQuad; ++d) {
      const i64 kr = q * kDotDepthQuad + d;
      rows[d] = kr < k ? src + kr * ld : zeros;
    }
    interleave_quad(rows, j0, j1, kq, dst + q * kDotStepBytes);
  }
}

/// Zero the last DOT panel when N % 8 columns leave part of it unwritten.
void clear_dot_tail_panel(i64 k, i64 n, i8* dst) {
  if (n % kDotPanelCols == 0) return;
  const i64 panel_bytes = ceil_div(k, kDotDepthQuad) * kDotStepBytes;
  std::memset(dst + n / kDotPanelCols * panel_bytes, 0,
              static_cast<size_t>(panel_bytes));
}

}  // namespace

i64 native_packed_b_bytes(i64 k, i64 n, int bits) {
  return round_up(std::max<i64>(packed_b_raw_bytes(k, n, bits), 1),
                  static_cast<i64>(kCacheLineBytes));
}

void native_pack_b(const i8* b, i64 k, i64 n, int bits, i8* dst) {
  if (native_lut_pairs(bits)) {
    // 32-column panels of ceil(K/2) pair-index rows; tails stay neutral.
    const i64 k2 = ceil_div(k, 2);
    u8* out = reinterpret_cast<u8*>(dst);
    std::memset(out, kTblNeutralPairIndex,
                static_cast<size_t>(packed_b_raw_bytes(k, n, bits)));
    for (i64 j0 = 0; j0 < n; j0 += kLutPanelCols) {
      const i64 w = std::min(kLutPanelCols, n - j0);
      for (i64 kr = 0; kr < k; ++kr)
        add_pair_digits(
            out + (j0 / kLutPanelCols * k2 + kr / 2) * kLutPanelCols,
            b + kr * n + j0, w, 1, (kr & 1) == 0);
    }
    return;
  }
  if (native_scheme_for(bits) == NativeScheme::kLut) {
    // The LUT kernel consumes row-major K x N directly.
    std::memcpy(dst, b, static_cast<size_t>(k * n));
    return;
  }
  clear_dot_tail_panel(k, n, dst);
  const std::vector<i8> zeros(static_cast<size_t>(k % kDotDepthQuad ? n : 0));
  pack_dot_rows(b, n, k, 0, n, zeros.data(), dst);
}

namespace {

/// The outputs [lo, hi) of `out` whose input coordinate
/// o * stride - pad + tap lands inside [0, extent); empty when none do.
std::pair<i64, i64> live_outputs(const ConvShape& s, i64 tap, i64 extent,
                                 i64 out) {
  const i64 off = s.pad - tap;
  const i64 lo = off > 0 ? ceil_div(off, s.stride) : 0;
  const i64 hi = std::min(
      out, extent - 1 + off >= 0 ? (extent - 1 + off) / s.stride + 1 : 0);
  return {lo, std::max(lo, hi)};
}

/// Im2col row `kr` (all N = batch * oh * ow columns) into `row`, padding
/// taps 0: one contiguous input run per output row, the row cleared first
/// only when some of its taps are padding.
void im2col_row(const ConvShape& s, const Tensor<i8>& input, i64 kr,
                i8* row) {
  const i64 oh = s.out_h(), ow = s.out_w();
  const i64 hw = s.in_h * s.in_w;
  const i64 c = kr / (s.kernel * s.kernel);
  const i64 ky = kr / s.kernel % s.kernel, kx = kr % s.kernel;
  const auto [oy_lo, oy_hi] = live_outputs(s, ky, s.in_h, oh);
  const auto [ox_lo, ox_hi] = live_outputs(s, kx, s.in_w, ow);
  if (oy_lo > 0 || oy_hi < oh || ox_lo > 0 || ox_hi < ow)
    std::memset(row, 0, static_cast<size_t>(s.gemm_n()));
  const i64 count = ox_hi - ox_lo;
  if (count == 0) return;
  for (i64 img = 0; img < s.batch; ++img)
    for (i64 oy = oy_lo; oy < oy_hi; ++oy) {
      const i8* src = input.data() + (img * s.in_c + c) * hw +
                      (oy * s.stride - s.pad + ky) * s.in_w +
                      ox_lo * s.stride - s.pad + kx;
      i8* out = row + (img * oh + oy) * ow + ox_lo;
      if (s.stride == 1) {
        std::memcpy(out, src, static_cast<size_t>(count));
      } else {
        for (i64 j = 0; j < count; ++j) out[j] = src[j * s.stride];
      }
    }
}

/// 2-bit fused im2col pack into the pair panels, one pair row (depths 2t,
/// 2t+1) at a time: each depth adds its pair digit to an N-long index row
/// (contiguous input reads at stride 1), then the row scatters to the
/// panels in 32-byte runs.
void pack_pairs_from_conv(const ConvShape& s, const Tensor<i8>& input,
                          u8* dst) {
  const i64 k = s.gemm_k(), n = s.gemm_n(), k2 = ceil_div(k, 2);
  const i64 oh = s.out_h(), ow = s.out_w();
  const i64 hw = s.in_h * s.in_w;
  const i64 chw = s.in_c * hw;
  const i64 full = n / kLutPanelCols;  // panels every column of is live
  // Only the last panel has columns no index row writes (N % 32).
  if (full * kLutPanelCols < n)
    std::memset(dst + full * k2 * kLutPanelCols, kTblNeutralPairIndex,
                static_cast<size_t>(k2 * kLutPanelCols));
  std::vector<u8> code(static_cast<size_t>(n));
  for (i64 t = 0; t < k2; ++t) {
    std::fill(code.begin(), code.end(), kTblNeutralPairIndex);
    for (i64 kr = 2 * t; kr < std::min(k, 2 * t + 2); ++kr) {
      const i64 c = kr / (s.kernel * s.kernel);
      const i64 ky = kr / s.kernel % s.kernel, kx = kr % s.kernel;
      const auto [ox_lo, ox_hi] = live_outputs(s, kx, s.in_w, ow);
      if (ox_lo == ox_hi) continue;
      for (i64 img = 0; img < s.batch; ++img) {
        for (i64 oy = 0; oy < oh; ++oy) {
          const i64 iy = oy * s.stride - s.pad + ky;
          if (iy < 0 || iy >= s.in_h) continue;
          add_pair_digits(code.data() + (img * oh + oy) * ow + ox_lo,
                          input.data() + img * chw + c * hw + iy * s.in_w +
                              ox_lo * s.stride - s.pad + kx,
                          ox_hi - ox_lo, s.stride, (kr & 1) == 0);
        }
      }
    }
    u8* panel_row = dst + t * kLutPanelCols;
    for (i64 p = 0; p < full; ++p)
      std::memcpy(panel_row + p * k2 * kLutPanelCols,
                  code.data() + p * kLutPanelCols,
                  static_cast<size_t>(kLutPanelCols));
    if (full * kLutPanelCols < n)
      std::memcpy(panel_row + full * k2 * kLutPanelCols,
                  code.data() + full * kLutPanelCols,
                  static_cast<size_t>(n - full * kLutPanelCols));
  }
}

/// DOT fused im2col pack: the 4 im2col rows of each depth quad, then the
/// quad interleave into the panels. A 1x1 stride-1 unpadded layer's im2col
/// matrix is its input, image by image, so its rows are read in place.
void pack_dot_from_conv(const ConvShape& s, const Tensor<i8>& input,
                        i8* dst) {
  const i64 k = s.gemm_k(), n = s.gemm_n();
  clear_dot_tail_panel(k, n, dst);
  if (s.kernel == 1 && s.stride == 1 && s.pad == 0) {
    const i64 hw = s.in_h * s.in_w;
    const std::vector<i8> zeros(
        static_cast<size_t>(k % kDotDepthQuad ? hw : 0));
    for (i64 img = 0; img < s.batch; ++img)
      pack_dot_rows(input.data() + img * k * hw, hw, k, img * hw,
                    (img + 1) * hw, zeros.data(), dst);
    return;
  }
  const i64 kq = ceil_div(k, kDotDepthQuad);
  std::vector<i8> buf(static_cast<size_t>(kDotDepthQuad * n));
  for (i64 q = 0; q < kq; ++q) {
    const i8* rows[kDotDepthQuad];
    for (i64 d = 0; d < kDotDepthQuad; ++d) {
      i8* row = buf.data() + d * n;
      const i64 kr = q * kDotDepthQuad + d;
      if (kr < k)
        im2col_row(s, input, kr, row);
      else
        std::memset(row, 0, static_cast<size_t>(n));
      rows[d] = row;
    }
    interleave_quad(rows, 0, n, kq, dst + q * kDotStepBytes);
  }
}

}  // namespace

void native_pack_b_from_conv(const ConvShape& s, const Tensor<i8>& input,
                             int bits, i8* dst) {
  if (native_lut_pairs(bits)) {
    pack_pairs_from_conv(s, input, reinterpret_cast<u8*>(dst));
  } else if (native_scheme_for(bits) == NativeScheme::kDot) {
    pack_dot_from_conv(s, input, dst);
  } else {
    for (i64 kr = 0; kr < s.gemm_k(); ++kr)
      im2col_row(s, input, kr, dst + kr * s.gemm_n());
  }
}

// ---- scalar kernels ---------------------------------------------------

void native_gemm_scalar_lut(const NativePackedA& pa, const i8* b, i32* c,
                            i64 n, const NativeBlocking& blocking) {
  if (native_lut_pairs(pa.bits)) {
    // 2-bit pair classes, one register block at a time; accumulates
    // straight into i32 (no narrow lanes to flush).
    const i64 k2 = pa.k_pad / 2;
    const i8* tables = native_pair_tables();
    for_each_register_block(
        native_register_block(pa.bits), pa.m, n, blocking, c,
        [&](i64 blk, i64 p, i64, i32* out, i64 ldo) {
          const u8* offs = pa.pair_block(blk);
          const u8* panel =
              reinterpret_cast<const u8*>(b) + p * k2 * kLutPanelCols;
          for (i64 r = 0; r < kLutPairRows; ++r) {
            i32* crow = out + r * ldo;
            std::fill(crow, crow + kLutPanelCols, 0);
            for (i64 t = 0; t < k2; ++t) {
              const i8* tab = tables + offs[t * kLutPairRows + r];
              const u8* idx = panel + t * kLutPanelCols;
              // pshufb semantics: bit 7 zeroes the lane, else low nibble.
              for (i64 l = 0; l < kLutPanelCols; ++l)
                crow[l] += (idx[l] & 0x80u) != 0 ? 0 : tab[idx[l] & 0x0Fu];
            }
          }
        });
    return;
  }
  const i64 m = pa.m, k = pa.k;
  const i8* lut = native_product_lut(pa.bits);
  const i32 q = qmax_for_bits(pa.bits);
  const i64 rb = std::max<i64>(blocking.rb, 1);
  const i64 cb = std::max<i64>(blocking.cb, 1);
  // Same pshufb semantics as the AVX2 kernel (low-nibble select, zero when
  // bit 7 of the index is set) so the two paths are byte-identical even on
  // out-of-range activations.
  for (i64 j0 = 0; j0 < n; j0 += cb) {
    const i64 jend = std::min(n, j0 + cb);
    for (i64 i0 = 0; i0 < m; i0 += rb) {
      const i64 iend = std::min(m, i0 + rb);
      for (i64 i = i0; i < iend; ++i) {
        const i8* arow = pa.row(i);  // table-row indices
        i32* crow = c + i * n;
        for (i64 j = j0; j < jend; ++j) crow[j] = 0;
        for (i64 kk = 0; kk < k; ++kk) {
          const i8* tab = lut + static_cast<u8>(arow[kk]) * 16;
          const i8* brow = b + kk * n;
          for (i64 j = j0; j < jend; ++j) {
            const u8 idx = static_cast<u8>(static_cast<i8>(
                static_cast<i8>(brow[j]) + static_cast<i8>(q)));
            crow[j] += (idx & 0x80u) != 0 ? 0 : tab[idx & 0x0Fu];
          }
        }
      }
    }
  }
}

namespace {

/// One kDotRows x kDotPanelCols block of C (row stride ldo) from a packed
/// A row block and one B panel, both kq depth quads deep. With SSE2 (the
/// x86-64 baseline) both operands widen to i16 and pmaddwd sums depth
/// pairs into i32 lanes, exact for every i8 operand; the two lanes of each
/// column fold once per block. Elsewhere a plain loop does the same sums.
void dot_panel(const i8* a, const i8* b, i64 kq, i32* out, i64 ldo) {
#if defined(__SSE2__)
  static_assert(kDotRows == 2 && kDotStepBytes == 32,
                "one 8-byte A load holds both rows' quads, two 16-byte B "
                "loads one step");
  const auto widen_lo = [](__m128i v) {
    return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
  };
  const auto widen_hi = [](__m128i v) {
    return _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
  };
  // acc[r][h]: row r, columns 2h and 2h+1, depth pairs (0,1) and (2,3).
  __m128i acc[kDotRows][4] = {};
  for (i64 q = 0; q < kq; ++q) {
    const __m128i aw = widen_lo(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(a + q * kDotRows * kDotDepthQuad)));
    const __m128i ar[kDotRows] = {_mm_unpacklo_epi64(aw, aw),
                                  _mm_unpackhi_epi64(aw, aw)};
    const i8* bq = b + q * kDotStepBytes;
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bq));
    const __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bq + 16));
    const __m128i bw[4] = {widen_lo(b0), widen_hi(b0), widen_lo(b1),
                           widen_hi(b1)};
    for (i64 r = 0; r < kDotRows; ++r)
      for (i64 h = 0; h < 4; ++h)
        acc[r][h] = _mm_add_epi32(acc[r][h], _mm_madd_epi16(bw[h], ar[r]));
  }
  for (i64 r = 0; r < kDotRows; ++r) {
    i32 lane[2 * kDotPanelCols];
    std::memcpy(lane, acc[r], sizeof(lane));
    for (i64 col = 0; col < kDotPanelCols; ++col)
      out[r * ldo + col] = lane[2 * col] + lane[2 * col + 1];
  }
#else
  for (i64 r = 0; r < kDotRows; ++r)
    for (i64 col = 0; col < kDotPanelCols; ++col) {
      i32 acc = 0;
      for (i64 q = 0; q < kq; ++q)
        for (i64 d = 0; d < kDotDepthQuad; ++d)
          acc += a[(q * kDotRows + r) * kDotDepthQuad + d] *
                 b[q * kDotStepBytes + col * kDotDepthQuad + d];
      out[r * ldo + col] = acc;
    }
#endif
}

}  // namespace

void native_gemm_scalar_dot(const NativePackedA& pa, const i8* pb, i32* c,
                            i64 n, const NativeBlocking& blocking) {
  const i64 kq = pa.k_pad / kDotDepthQuad;
  const i64 panel_bytes = kq * kDotStepBytes;
  for_each_register_block(
      native_register_block(pa.bits), pa.m, n, blocking, c,
      [&](i64 blk, i64 p, i64 np, i32* out, i64 ldo) {
        for (i64 pp = 0; pp < np; ++pp)
          dot_panel(pa.dot_block(blk), pb + (p + pp) * panel_bytes, kq,
                    out + pp * kDotPanelCols, ldo);
      });
}

// ---- driver -----------------------------------------------------------

namespace {

NativeBlocking clamp_blocking(const NativeBlocking& b, i64 m, i64 n) {
  NativeBlocking r = b;
  r.rb = std::clamp<i64>(r.rb, 1, std::max<i64>(m, 1));
  r.cb = std::clamp<i64>(r.cb, 1, std::max<i64>(n, 1));
  return r;
}

const char* run_kernel(const NativePackedA& pa, const i8* pb, i32* c, i64 n,
                       const NativeBlocking& blocking) {
  const bool avx2 = avx2_enabled();
  if (pa.scheme == NativeScheme::kLut) {
    if (avx2) {
      native_gemm_avx2_lut(pa, pb, c, n, blocking);
      return "avx2-lut";
    }
    native_gemm_scalar_lut(pa, pb, c, n, blocking);
    return "scalar-lut";
  }
  if (avx2) {
    native_gemm_avx2_dot(pa, pb, c, n, blocking);
    return "avx2-dot";
  }
  native_gemm_scalar_dot(pa, pb, c, n, blocking);
  return "scalar-dot";
}

}  // namespace

NativeGemmResult native_gemm_packed_b(const NativePackedA& pa, const i8* pb,
                                      i32* c, i64 n,
                                      const NativeBlocking& blocking) {
  const NativeBlocking blk = clamp_blocking(blocking, pa.m, n);
  const double t0 = now_ns();
  NativeGemmResult r;
  r.kernel = run_kernel(pa, pb, c, n, blk);
  r.ns = now_ns() - t0;
  return r;
}

NativeGemmResult native_gemm_s8s32(const NativePackedA& pa, const i8* b,
                                   i32* c, i64 n,
                                   const NativeBlocking& blocking,
                                   Workspace* ws) {
  const NativeBlocking blk = clamp_blocking(blocking, pa.m, n);
  const i64 pb_bytes = native_packed_b_bytes(pa.k, n, pa.bits);
  AlignedVector<i8> own;
  i8* pb;
  if (ws != nullptr) {
    pb = ws->alloc_n<i8>(pb_bytes);
  } else {
    own.resize(static_cast<size_t>(pb_bytes));
    pb = own.data();
  }
  const double t0 = now_ns();
  native_pack_b(b, pa.k, n, pa.bits, pb);
  NativeGemmResult r;
  r.kernel = run_kernel(pa, pb, c, n, blk);
  r.ns = now_ns() - t0;
  return r;
}

// ---- measured-ns blocking search --------------------------------------

namespace {

struct SearchState {
  std::mutex mu;
  std::map<std::tuple<i64, i64, i64, int>, NativeBlocking> memo;
  NativeSearchStats stats;
};

SearchState& search_state() {
  static SearchState s;
  return s;
}

}  // namespace

NativeBlocking search_native_blocking(i64 m, i64 n, i64 k, int bits) {
  if (m <= 0 || n <= 0 || k <= 0)
    return default_native_blocking(std::max<i64>(m, 1), std::max<i64>(n, 1),
                                   std::max<i64>(k, 1), bits);
  const auto key = std::make_tuple(m, n, k, native_scheme_id(bits));
  SearchState& st = search_state();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    const auto it = st.memo.find(key);
    if (it != st.memo.end()) {
      ++st.stats.memo_hits;
      return it->second;
    }
  }

  // Candidate grid in the gemm-config.h row/col-blocking idiom: small fixed
  // grid, clamped to the problem, deduplicated. The probe problem caps N so
  // a one-off search never costs more than a few milliseconds per shape.
  const i64 probe_n = std::min<i64>(n, 1024);
  std::vector<NativeBlocking> cands;
  cands.push_back(default_native_blocking(m, probe_n, k, bits));
  for (const i64 rb : {2LL, 8LL, 32LL})
    for (const i64 cb : {64LL, 256LL, 1024LL})
      cands.push_back(NativeBlocking{rb, cb});
  // The panel kernels tile whole register blocks, so candidates that
  // round to the same tiling are measured once.
  const NativeRegisterBlock rbk = native_register_block(bits);
  for (NativeBlocking& b : cands)
    b = clamp_blocking(
        NativeBlocking{round_up(b.rb, rbk.rows), round_up(b.cb, rbk.cols())},
        m, probe_n);
  std::sort(cands.begin(), cands.end(),
            [](const NativeBlocking& a, const NativeBlocking& b) {
              return std::tie(a.rb, a.cb) < std::tie(b.rb, b.cb);
            });
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

  // Synthetic operands in the adjusted range (deterministic LCG fill).
  const i32 q = qmax_for_bits(bits);
  std::vector<i8> a(static_cast<size_t>(m * k));
  std::vector<i8> b_mat(static_cast<size_t>(k * probe_n));
  u64 lcg = 0x9e3779b97f4a7c15ULL;
  const auto next = [&lcg, q]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<i8>(static_cast<i64>((lcg >> 33) % (2 * static_cast<u64>(q) + 1)) - q);
  };
  for (i8& v : a) v = next();
  for (i8& v : b_mat) v = next();
  StatusOr<NativePackedA> pa = native_pack_a(a.data(), m, k, bits);
  if (!pa.ok()) return default_native_blocking(m, n, k, bits);

  std::vector<i8> pb(static_cast<size_t>(native_packed_b_bytes(k, probe_n, bits)));
  native_pack_b(b_mat.data(), k, probe_n, bits, pb.data());
  std::vector<i32> c(static_cast<size_t>(m * probe_n));

  NativeBlocking best = cands.front();
  double best_ns = 0;
  bool first = true;
  for (const NativeBlocking& cand : cands) {
    // Best-of-2 after one warmup rep: the warmup pulls operands into cache
    // so candidates are compared on the same footing.
    native_gemm_packed_b(*pa, pb.data(), c.data(), probe_n, cand);
    double cand_ns = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const NativeGemmResult r =
          native_gemm_packed_b(*pa, pb.data(), c.data(), probe_n, cand);
      if (rep == 0 || r.ns < cand_ns) cand_ns = r.ns;
    }
    if (first || cand_ns < best_ns) {
      best = cand;
      best_ns = cand_ns;
      first = false;
    }
  }

  std::lock_guard<std::mutex> lock(st.mu);
  ++st.stats.searches;
  st.memo[key] = best;
  return best;
}

NativeSearchStats native_search_stats() {
  SearchState& st = search_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.stats;
}

}  // namespace lbc::hal
