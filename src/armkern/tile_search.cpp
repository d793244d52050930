#include "armkern/tile_search.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "armkern/micro.h"
#include "armsim/cache.h"
#include "armsim/cost_model.h"
#include "common/status.h"

namespace lbc::armkern {

using namespace armsim;

namespace {

std::mutex g_mu;
TileSearchStats g_stats;
std::map<std::string, GemmBlocking> g_winners;
// Per-(geometry, kc, nc, layout) replay result, shared across bits and
// schemes: the SMLAL/MLA/ncnn kernels issue an identical load pattern.
struct ReplayMisses {
  u64 l1 = 0, l2 = 0;
};
std::map<std::string, ReplayMisses> g_replays;

std::string geometry_key(const ConvShape& s) {
  std::ostringstream os;
  os << s.batch << 'x' << s.in_c << 'x' << s.in_h << 'x' << s.in_w << ">"
     << s.out_c << "k" << s.kernel << "s" << s.stride << "p" << s.pad;
  return os.str();
}


// Instruction mix of ONE micro-kernel call at depth kc, measured by
// running the emulated kernel on dummy zeroed buffers with the cache
// model off (issue cost only; stalls come from the replay). For the TBL
// kernel `tbl_groups` is the per-call group-step count and `tbl_group` the
// depth positions per group (both orientations issue the identical
// pattern; the group size sets the byte-lane flush cadence).
Counters probe_micro(ArmKernel kernel, int bits, i64 kc, i64 kstride,
                     i64 tbl_groups = 0, int tbl_group = 0) {
  AlignedVector<i8> a(static_cast<size_t>(std::max<i64>(kstride, 1) * kMr));
  AlignedVector<i8> b(static_cast<size_t>(std::max<i64>(kstride, 1) * kNr));
  alignas(64) i32 tile[kMr * kNr];
  Ctx ctx;
  ctx.model_cache = false;
  switch (kernel) {
    case ArmKernel::kOursGemm:
      if (bits <= 3)
        micro_mla_16x4(ctx, a.data(), b.data(), kc, mla_flush_interval(bits),
                       tile);
      else
        micro_smlal_16x4(ctx, a.data(), b.data(), kc,
                         smlal_flush_interval(bits), tile);
      break;
    case ArmKernel::kNcnn:
      micro_ncnn_16x4(ctx, a.data(), b.data(), kc, tile);
      break;
    case ArmKernel::kSdotExt:
      micro_sdot_16x4(ctx, a.data(), b.data(), kstride, tile);
      break;
    case ArmKernel::kTblGemm: {
      const i64 g = std::max<i64>(tbl_groups, 1);
      AlignedVector<u8> idx(static_cast<size_t>(g * 16));  // index 0: valid
      AlignedVector<i8> tbl(static_cast<size_t>(g * 64));
      micro_tbl_16x4(ctx, idx.data(), tbl.data(), g,
                     tbl_flush_interval(bits, tbl_group == kTblPairGroup),
                     tile);
      break;
    }
    case ArmKernel::kTraditional:
      break;  // never blocked
  }
  return ctx.counts;
}

// The search prices TBL layouts without seeing weight values, so the pair
// group assumes non-ternary 3-bit weights (the conservative mode; 2-bit is
// always paired). Pack-time detection can only improve on the priced plan.
BlockedLayout layout_for(i64 m, i64 n, i64 k, const GemmBlocking& blocking,
                         ArmKernel kernel, int bits) {
  const bool sdot = kernel == ArmKernel::kSdotExt;
  if (kernel == ArmKernel::kTblGemm) {
    const TblOrientation o = choose_tbl_orientation(m, n, k, bits, false);
    return blocked_layout(m, n, k, blocking, sdot,
                          tbl_group_for(o, bits, false), o);
  }
  return blocked_layout(m, n, k, blocking, sdot);
}

// Line-granular trace replay of the blocked schedule into a fresh
// CacheSim. Synthetic disjoint region bases stand in for the real
// buffers; the model only keys on line identity (cache.h), so the miss
// counts match what the emulated run would see for the same schedule.
struct Replay {
  CacheSim sim;

  void touch(u64 addr, u64 bytes) {
    if (bytes == 0) return;
    const u64 first = addr / CacheSim::kLineBytes;
    const u64 last = (addr + bytes - 1) / CacheSim::kLineBytes;
    for (u64 ln = first; ln <= last; ++ln)
      sim.access(reinterpret_cast<const void*>(ln * CacheSim::kLineBytes), 1);
  }
};

constexpr u64 kBaseA = u64{1} << 40;
constexpr u64 kBaseB = u64{2} << 40;
constexpr u64 kBaseC = u64{3} << 40;
constexpr u64 kBaseIn = u64{4} << 40;
// The driver's per-thread 16x4 i32 micro-kernel scratch tile. Only 1 KB,
// but it is written through ST1 on every micro call, so it permanently
// holds 16 L1 lines — near the L1 capacity cliff that residency decides
// whether a schedule's table/panel set survives between row panels, and
// omitting it made the replay optimistic exactly where reality thrashes.
constexpr u64 kBaseTile = u64{5} << 40;

// Touch the input spans the fused gather of block (k0..k0+kc) x
// (n0..n0+nc) reads — same span logic as pack.cpp's touch_conv_gather,
// against the synthetic input base.
void replay_gather(Replay& r, const ConvShape& s, i64 k0, i64 kc, i64 n0,
                   i64 nc) {
  const i64 ohw = s.out_h() * s.out_w();
  for (i64 kk = 0; kk < kc; ++kk) {
    const i64 kg = k0 + kk;
    const i64 ksq = s.kernel * s.kernel;
    const i64 ic = kg / ksq;
    const i64 kh = (kg / s.kernel) % s.kernel;
    const i64 kw = kg % s.kernel;
    i64 col = n0;
    while (col < n0 + nc) {
      const i64 b = col / ohw;
      const i64 rem = col % ohw;
      const i64 oh = rem / s.out_w();
      const i64 ow0 = rem % s.out_w();
      const i64 ow1 = std::min<i64>(s.out_w() - 1, ow0 + (n0 + nc - 1 - col));
      const i64 ih = oh * s.stride + kh - s.pad;
      if (ih >= 0 && ih < s.in_h) {
        const i64 iw_lo = std::max<i64>(ow0 * s.stride + kw - s.pad, 0);
        const i64 iw_hi =
            std::min<i64>(ow1 * s.stride + kw - s.pad, s.in_w - 1);
        if (iw_lo <= iw_hi)
          r.touch(kBaseIn + static_cast<u64>(
                                ((b * s.in_c + ic) * s.in_h + ih) * s.in_w +
                                iw_lo),
                  static_cast<u64>(iw_hi - iw_lo + 1));
      }
      col += ow1 - ow0 + 1;
    }
  }
}

// Simulate the first one or two jc column blocks and extrapolate: block 0
// carries the cold misses, block 1 is the steady state repeated for every
// remaining band.
ReplayMisses replay_schedule(const ConvShape& s, const BlockedLayout& lay) {
  Replay r;
  const bool tbl_wt =
      lay.tbl() && lay.tbl_orient == TblOrientation::kWeightTables;
  const i64 k_groups_total =
      lay.tbl() ? ceil_div(lay.k, static_cast<i64>(lay.tbl_group)) : 0;
  // Offline-A stride per panel: plain/SDOT i8 panels, TBL index panels
  // (16 bytes per group step) or TBL weight tables (64 per row-group step).
  const i64 a_panel_stride =
      lay.tbl() ? k_groups_total * (tbl_wt ? 64 : 16)
                : (lay.sdot ? round_up(lay.k, 4) : lay.k) * kMr;
  const i64 sim_blocks = std::min<i64>(2, lay.n_blocks);
  u64 l1_per_block[2] = {0, 0};
  u64 l2_per_block[2] = {0, 0};
  for (i64 jc = 0; jc < sim_blocks; ++jc) {
    const u64 l1_before = r.sim.stats().l1_misses;
    const u64 l2_before = r.sim.stats().l2_misses;
    const i64 n0 = jc * lay.blk.nc;
    const i64 nc = lay.nc_eff(jc);
    const i64 nc_pad = round_up(nc, kNr);
    for (i64 kcb = 0; kcb < lay.k_blocks; ++kcb) {
      const i64 k0 = kcb * lay.blk.kc;
      const i64 kstride = lay.k_stride(kcb);
      replay_gather(r, s, k0, lay.kc_eff(kcb), n0, nc);
      if (tbl_wt) {
        const i64 groups_c = lay.tbl_groups(kcb);
        const i64 nc_pad16 = round_up(nc, i64{16});
        r.touch(kBaseB, static_cast<u64>(nc_pad16 * kstride));
        for (i64 p = 0; p < ceil_div(lay.m, i64{4}); ++p) {
          const u64 a_slice =
              kBaseA + static_cast<u64>(p * a_panel_stride +
                                         (k0 / lay.tbl_group) * 64);
          for (i64 q = 0; q < nc_pad16 / 16; ++q) {
            const u64 idx_panel = kBaseB + static_cast<u64>(q * kstride * 16);
            // Per group step: one 64-byte table line, one 16-byte index
            // vector (a line per four steps).
            for (i64 gs = 0; gs < groups_c; ++gs) {
              r.touch(a_slice + static_cast<u64>(gs * 64),
                      CacheSim::kLineBytes);
              if (gs % 4 == 0)
                r.touch(idx_panel + static_cast<u64>(gs * 16),
                        CacheSim::kLineBytes);
            }
            r.touch(kBaseTile, kMr * kNr * 4);  // micro ST1s into the tile
            const i64 row0 = p * 4;
            const i64 col0 = n0 + q * 16;
            const i64 rows = std::min<i64>(4, lay.m - row0);
            const i64 cols = std::min<i64>(16, lay.n - col0);
            for (i64 ii = 0; ii < rows; ++ii) {
              r.touch(kBaseC +
                          static_cast<u64>(((row0 + ii) * lay.n + col0) * 4),
                      static_cast<u64>(cols) * 4);
            }
          }
        }
        continue;
      }
      r.touch(kBaseB, static_cast<u64>(nc_pad * kstride));
      for (i64 p = 0; p < lay.m_panels(); ++p) {
        const u64 a_slice =
            kBaseA +
            static_cast<u64>(p * a_panel_stride +
                             (lay.tbl() ? (k0 / lay.tbl_group) * 16
                                        : k0 * kMr));
        for (i64 q = 0; q < nc_pad / kNr; ++q) {
          const u64 b_panel = kBaseB + static_cast<u64>(q * kstride * kNr);
          if (lay.tbl()) {
            // kActTables: one 64-byte table line per group step, one
            // 16-byte weight-index vector (a line per four steps).
            const i64 groups_c = lay.tbl_groups(kcb);
            for (i64 gs = 0; gs < groups_c; ++gs) {
              r.touch(b_panel + static_cast<u64>(gs * 64),
                      CacheSim::kLineBytes);
              if (gs % 4 == 0)
                r.touch(a_slice + static_cast<u64>(gs * 16),
                        CacheSim::kLineBytes);
            }
          } else {
            // The micro kernel's load pattern at line granularity: one A
            // line per four depth steps, one B line per sixteen.
            for (i64 kk = 0; kk < kstride; kk += 4) {
              r.touch(a_slice + static_cast<u64>(kk * kMr),
                      CacheSim::kLineBytes);
              if (kk % 16 == 0)
                r.touch(b_panel + static_cast<u64>(kk * kNr),
                        CacheSim::kLineBytes);
            }
          }
          r.touch(kBaseTile, kMr * kNr * 4);  // micro ST1s into the tile
          const i64 row0 = p * kMr;
          const i64 col0 = n0 + q * kNr;
          const i64 rows = std::min<i64>(kMr, lay.m - row0);
          const i64 cols = std::min<i64>(kNr, lay.n - col0);
          for (i64 ii = 0; ii < rows; ++ii)
            r.touch(kBaseC + static_cast<u64>(((row0 + ii) * lay.n + col0) * 4),
                    static_cast<u64>(cols) * 4);
        }
      }
    }
    l1_per_block[jc] = r.sim.stats().l1_misses - l1_before;
    l2_per_block[jc] = r.sim.stats().l2_misses - l2_before;
  }
  ReplayMisses misses;
  if (lay.n_blocks <= 1) {
    misses.l1 = l1_per_block[0];
    misses.l2 = l2_per_block[0];
  } else {
    misses.l1 =
        l1_per_block[0] + l1_per_block[1] * static_cast<u64>(lay.n_blocks - 1);
    misses.l2 =
        l2_per_block[0] + l2_per_block[1] * static_cast<u64>(lay.n_blocks - 1);
  }
  return misses;
}

ReplayMisses replay_memoized(const ConvShape& s, const BlockedLayout& lay) {
  std::ostringstream os;
  os << geometry_key(s) << "|kc" << lay.blk.kc << "nc" << lay.blk.nc
     << (lay.sdot ? "|sdot" : "");
  if (lay.tbl())
    os << (lay.tbl_orient == TblOrientation::kActTables ? "|tblA" : "|tblB")
       << lay.tbl_group;
  const std::string key = os.str();
  const auto it = g_replays.find(key);
  if (it != g_replays.end()) return it->second;
  const ReplayMisses m = replay_schedule(s, lay);
  g_replays.emplace(key, m);
  return m;
}

// Issue-side cost of one layer's blocked schedule: micro-kernel probes
// scaled by call counts, the fused-gather pack tallies, and the C
// accumulate re-loads. Misses are NOT included — the caller adds them from
// the cold replay.
Counters issue_counts(const ConvShape& s, int bits, ArmKernel kernel,
                      const BlockedLayout& lay) {
  const bool sdot = kernel == ArmKernel::kSdotExt;
  const bool tbl_wt =
      lay.tbl() && lay.tbl_orient == TblOrientation::kWeightTables;
  const i64 m = s.gemm_m();

  Counters counts;
  Ctx tally_ctx;
  tally_ctx.model_cache = false;
  // Micro columns across all jc bands: 4-wide for the column-major tile,
  // 16-wide for the TBL weight-tables row-major tile (per-band padding).
  i64 q_total = lay.n_pad / kNr;
  if (tbl_wt) {
    q_total = 0;
    for (i64 jc = 0; jc < lay.n_blocks; ++jc)
      q_total += round_up(lay.nc_eff(jc), i64{16}) / 16;
  }
  const i64 row_panels = tbl_wt ? ceil_div(lay.m, i64{4}) : lay.m_panels();
  // Distinct Kc depths: every non-final block shares blk.kc, the final one
  // may be a tail — probe each depth once and scale by call counts.
  const i64 tail_kc = lay.kc_eff(lay.k_blocks - 1);
  struct KcGroup {
    i64 kc = 0, blocks = 0;
  };
  std::vector<KcGroup> kc_groups;
  if (tail_kc != lay.blk.kc) {
    if (lay.k_blocks > 1) kc_groups.push_back({lay.blk.kc, lay.k_blocks - 1});
    kc_groups.push_back({tail_kc, 1});
  } else {
    kc_groups.push_back({lay.blk.kc, lay.k_blocks});
  }
  for (const KcGroup& g : kc_groups) {
    const i64 kstride = sdot ? round_up(g.kc, 4) : g.kc;
    const i64 tbl_groups =
        lay.tbl() ? ceil_div(g.kc, static_cast<i64>(lay.tbl_group)) : 0;
    const Counters per_call = probe_micro(kernel, bits, g.kc, kstride,
                                          tbl_groups, lay.tbl_group);
    const u64 scale = static_cast<u64>(row_panels * q_total * g.blocks);
    for (size_t i = 0; i < kNumOps; ++i) counts.n[i] += per_call.n[i] * scale;
  }
  // Per-(jc, kcb) B-block pack: fused gather (plain/SDOT), gather + online
  // table build (TBL kActTables), or index encode (TBL kWeightTables).
  for (i64 kcb = 0; kcb < lay.k_blocks; ++kcb)
    for (i64 jc = 0; jc < lay.n_blocks; ++jc) {
      if (lay.tbl() && !tbl_wt) {
        const i64 nc_pad = round_up(lay.nc_eff(jc), kNr);
        tally_pack_tbl_tables(&tally_ctx, nc_pad * lay.tbl_groups(kcb));
        tally_pack_im2col_gather(&tally_ctx, nc_pad * lay.kc_eff(kcb));
      } else if (tbl_wt) {
        tally_pack_im2col_gather(&tally_ctx,
                                 round_up(lay.nc_eff(jc), i64{16}) *
                                     lay.tbl_groups(kcb) * lay.tbl_group);
      } else {
        tally_pack_im2col_gather(
            &tally_ctx, round_up(lay.nc_eff(jc), kNr) * lay.k_stride(kcb));
      }
    }
  // C accumulate re-loads for every K block after the first (the 16-col
  // row-major TBL tile re-loads four vectors per row).
  if (lay.k_blocks > 1) {
    const u64 acc = static_cast<u64>((lay.k_blocks - 1) * m * q_total) *
                    (tbl_wt ? 4u : 1u);
    counts[Op::kLd1] += acc;
    counts[Op::kAdd] += acc;
  }
  counts.merge(tally_ctx.counts);
  return counts;
}

// Assumes g_mu is held (the replay memo is shared).
double score_locked(const ConvShape& s, int bits, ArmKernel kernel,
                    const GemmBlocking& blocking) {
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  const BlockedLayout lay = layout_for(m, n, k, blocking, kernel, bits);

  Counters counts = issue_counts(s, bits, kernel, lay);
  const ReplayMisses misses = replay_memoized(s, lay);
  counts[Op::kL1Miss] += misses.l1;
  counts[Op::kL2Miss] += misses.l2;
  return CostModel::cortex_a53().cycles_for(counts, /*interleaved=*/true);
}

}  // namespace

int blocking_scheme_id(ArmKernel kernel, int bits) {
  if (kernel == ArmKernel::kTblGemm) return 4;
  if (kernel == ArmKernel::kSdotExt) return 3;
  if (kernel == ArmKernel::kNcnn) return 2;
  return bits <= 3 ? 1 : 0;
}

TblOrientation choose_tbl_orientation(i64 m, i64 n, i64 k, int bits,
                                      bool weights_ternary) {
  // Per-MAC issue cost of one TBL group step is ~12.1 cycles (1x ld1 idx,
  // 1x ld1x4 tables, 4x tbl+2xsaddw) serving 64*g MACs. kActTables adds
  // the online table build: ~10 cycles per (column, group) amortized over
  // the m rows sharing the tables. kWeightTables builds nothing online but
  // streams round_up(m,4)*ceil(k/g)*64 bytes of offline tables once per
  // column-block pass; misses price at L2 (8 cyc/line) while the table set
  // fits L2, else DRAM (58).
  const int ga = tbl_group_for(TblOrientation::kActTables, bits,
                               weights_ternary);
  const int gb = tbl_group_for(TblOrientation::kWeightTables, bits,
                               weights_ternary);
  const double cost_a = 12.1 / (64.0 * ga) + 10.0 / (double(ga) * double(m));
  const double table_bytes =
      double(round_up(m, i64{4})) * double(ceil_div(k, i64{gb})) * 16.0;
  const double miss = table_bytes <= 384.0 * 1024.0 ? 8.0 : 58.0;
  const double passes = double(ceil_div(n, i64{256}));
  const double cost_b =
      12.1 / (64.0 * gb) +
      miss * (table_bytes / 64.0) * passes / (double(m) * double(k) * double(n));
  return cost_a <= cost_b ? TblOrientation::kActTables
                          : TblOrientation::kWeightTables;
}

double score_blocking(const ConvShape& s, int bits, ArmKernel kernel,
                      const GemmBlocking& blocking) {
  std::lock_guard<std::mutex> lock(g_mu);
  return score_locked(s, bits, kernel, blocking);
}

GemmBlocking search_blocking(const ConvShape& s, int bits, ArmKernel kernel) {
  const bool sdot = kernel == ArmKernel::kSdotExt;
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  const int tblg =
      kernel == ArmKernel::kTblGemm
          ? tbl_group_for(choose_tbl_orientation(m, n, k, bits, false), bits,
                          false)
          : 0;

  std::ostringstream os;
  os << geometry_key(s) << "|b" << bits << "|sch"
     << blocking_scheme_id(kernel, bits);
  const std::string key = os.str();

  std::lock_guard<std::mutex> lock(g_mu);
  if (const auto it = g_winners.find(key); it != g_winners.end()) {
    ++g_stats.memo_hits;
    return it->second;
  }
  ++g_stats.searches;

  // Fixed candidate grid, clamped to the problem and de-duplicated.
  // Kc x Nc bounds the L1-resident B block (<= 32 KB for every candidate);
  // Mc bounds the A rows swept per L2 refill.
  std::vector<GemmBlocking> candidates;
  candidates.push_back(default_blocking(m, n, k, sdot));
  for (const i64 mc : {64, 128})
    for (const i64 kc : {64, 128, 256})
      for (const i64 nc : {32, 64, 128}) {
        const GemmBlocking cand =
            clamp_blocking(GemmBlocking{mc, kc, nc}, m, n, k, sdot, tblg);
        if (std::find(candidates.begin(), candidates.end(), cand) ==
            candidates.end())
          candidates.push_back(cand);
      }
  if (tblg != 0) {
    // TBL-specific extensions. The weight-tables orientation streams its
    // offline table set once per column pass, so wide Nc (up to the full
    // column range) amortizes that traffic; the act-tables orientation
    // amortizes online table builds over the Mc rows sharing them and
    // prefers narrow Nc with a mid-size Kc. Neither regime sits inside the
    // shared grid above, and extending only the TBL search keeps the other
    // schemes' memoized winners (and the baselines built on them) stable.
    for (const i64 mc : {64, 128})
      for (const i64 kc : {96, 128, 192, 256})
        for (const i64 nc : {i64{32}, i64{256}, i64{512}, n}) {
          const GemmBlocking cand =
              clamp_blocking(GemmBlocking{mc, kc, nc}, m, n, k, sdot, tblg);
          if (std::find(candidates.begin(), candidates.end(), cand) ==
              candidates.end())
            candidates.push_back(cand);
        }
  }

  GemmBlocking best = candidates.front();
  double best_score = score_locked(s, bits, kernel, best);
  for (size_t i = 1; i < candidates.size(); ++i) {
    const double sc = score_locked(s, bits, kernel, candidates[i]);
    if (sc < best_score) {
      best_score = sc;
      best = candidates[i];
    }
  }
  g_winners.emplace(key, best);
  return best;
}

TileSearchStats tile_search_stats() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_stats;
}

}  // namespace lbc::armkern
