// ARM-side {Mc, Kc, Nc} block-size auto-search (paper Sec. 4 brings this
// discipline to the GPU tiling; this is the ARM counterpart for the
// blocked GEMM of blocking.h).
//
// Each candidate is priced with the same Cortex-A53 cost model the
// benches report: issue cycles come from probing the micro kernel once
// per distinct Kc depth (exact per-call instruction mix, scaled by call
// counts) plus the analytic pack/accumulate tallies, and stall cycles
// come from replaying the blocked schedule's memory trace at cache-line
// granularity into a fresh CacheSim. The replay feeds synthetic
// disjoint-region addresses — the cache model is address-identity based
// (cache.h), so line identities are all that matter and no host buffers
// are involved.
//
// Results are memoized per (conv geometry, bits, scheme) — "the optimal
// tiling parameters only need to be determined once per convolution
// shape" (Sec. 5.1) — and the replay trace is additionally shared across
// bits and schemes with the same packed layout, since the SMLAL / MLA /
// ncnn kernels issue an identical load pattern. gpukern::TuningCache v2
// persists winners across process runs (core::plan_arm_conv).
#pragma once

#include "armkern/blocking.h"
#include "armkern/gemm_lowbit.h"
#include "common/conv_shape.h"

namespace lbc::armkern {

/// Modeled total cycles of one clamped blocking candidate for the fused
/// conv GEMM (exposed for tests and the ablation bench).
double score_blocking(const ConvShape& s, int bits, ArmKernel kernel,
                      const GemmBlocking& blocking);

/// Pick the best {Mc, Kc, Nc} for the shape's GEMM view. Deterministic:
/// a fixed candidate grid scored with score_blocking, ties broken by
/// candidate order. Falls back to default_blocking geometry when the
/// problem is degenerate. Thread-safe; memoized per (geometry, bits,
/// scheme).
GemmBlocking search_blocking(const ConvShape& s, int bits, ArmKernel kernel);

/// Stable scheme id of the micro kernel that would execute (0 = SMLAL,
/// 1 = MLA, 2 = ncnn, 3 = SDOT, 4 = TBL) — the persistent tuning cache
/// keys ARM entries by it (gpukern::ArmTuningKey::scheme, bounded by
/// gpukern::kArmSchemeIdMax).
int blocking_scheme_id(ArmKernel kernel, int bits);

/// TBL orientation pricing (schemes.h TblOrientation), decided from
/// geometry alone: kActTables pays the online table build amortized over
/// the m rows it serves; kWeightTables pays nothing online but streams an
/// 8x-inflated offline table set whose misses scale with the number of
/// C column-block passes. Deterministic and cheap (no replay).
TblOrientation choose_tbl_orientation(i64 m, i64 n, i64 k, int bits,
                                      bool weights_ternary);

struct TileSearchStats {
  i64 searches = 0;   ///< cold searches (full candidate sweeps)
  i64 memo_hits = 0;  ///< served from the in-process memo
};
TileSearchStats tile_search_stats();

}  // namespace lbc::armkern
