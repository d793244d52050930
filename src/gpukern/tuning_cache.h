// Persistent cache of auto-searched tiling parameters, keyed by the GEMM
// view of the convolution. The paper notes "the optimal tiling parameters
// only need to be determined once per convolution shape" (Sec. 5.1); this
// is the library piece that makes the amortization real across process
// runs — a deployment runs the profile search once and ships the cache.
//
// The text format is versioned and strictly validated on load: a shipped
// cache file travels through filesystems and deploy pipelines, so a
// truncated or corrupted file must surface as a Status error, never as a
// bogus Tiling driving the kernel. Cache *hits* are sanity-checked too
// (and re-searched on corruption) so a poisoned entry cannot escape.
//
// Format v2 makes the cache backend-keyed: GPU tilings and ARM blocked-GEMM
// {Mc, Kc, Nc} winners (armkern/tile_search.h) share one file. v1 files
// (GPU-only) still load; a v2 file is rejected by old v1 readers via the
// header bump.
//
// Format v3 adds the native x86 backend's {row_block, col_block} winners
// (hal/native_gemm.h) under the "x86" tag — the measured-nanosecond
// search amortized across process runs the same way. v2 and v1 files
// still load.
//
// Format v5 drops v4's "graph" rows (the whole-net joint blocking search's
// per-layer winners; nothing reads them): a v4 file still loads, its graph
// rows skipped and counted (skipped_graph_rows()). Every format maps its
// header to the entry tags it may carry; a tag its header never carried is
// a kDataLoss error.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "gpukern/autotune.h"

namespace lbc::gpukern {

/// First line of every serialized cache. Bump the version when fields
/// change so old readers reject new files instead of misparsing them.
inline constexpr const char* kTuningCacheHeader = "lbc-tuning-cache v5";
/// Previous formats — still readable. v1 carried GPU entries only (bare
/// lines); v2 added "arm" entries; v3 added "x86" entries; v4 added
/// whole-graph "graph" entries, which v5 skips.
inline constexpr const char* kTuningCacheHeaderV4 = "lbc-tuning-cache v4";
inline constexpr const char* kTuningCacheHeaderV3 = "lbc-tuning-cache v3";
inline constexpr const char* kTuningCacheHeaderV2 = "lbc-tuning-cache v2";
inline constexpr const char* kTuningCacheHeaderV1 = "lbc-tuning-cache v1";

struct TuningKey {
  i64 m = 0, n = 0, k = 0;
  int bits = 8;
  bool use_tc = true;

  auto operator<=>(const TuningKey&) const = default;
};

/// ARM micro-kernel scheme ids (armkern::blocking_scheme_id): 0 = SMLAL,
/// 1 = MLA, 2 = ncnn, 3 = SDOT, 4 = TBL.
inline constexpr int kArmSchemeIdMax = 4;

/// Key of an ARM blocked-GEMM entry. `scheme` is the micro-kernel scheme
/// id in [0, kArmSchemeIdMax] — the winner depends on the kernel's load
/// pattern, not just the GEMM view.
struct ArmTuningKey {
  i64 m = 0, n = 0, k = 0;
  int bits = 8;
  int scheme = 0;

  auto operator<=>(const ArmTuningKey&) const = default;
};

/// ARM {Mc, Kc, Nc} cache blocking (mirrors armkern::GemmBlocking without
/// the dependency; gpukern stays ARM-free).
struct ArmBlocking {
  i64 mc = 0, kc = 0, nc = 0;

  auto operator<=>(const ArmBlocking&) const = default;
};

/// Native kernel scheme ids (hal::native_scheme_id): 0 = LUT 3-4 bit,
/// 1 = retired DOT patch layout, 2 = LUT 2-bit pair classes, 3 = DOT on
/// depth-quad panels.
inline constexpr int kX86SchemeIdMax = 3;

/// Key of a native x86 entry. `scheme` is the native kernel scheme id in
/// [0, kX86SchemeIdMax] — the winner depends on which packed layout the
/// kernel streams, not just the GEMM view. A row whose id names another
/// kernel than the one `bits` now runs never matches a lookup, so a
/// blocking measured on a retired kernel is searched afresh.
struct X86TuningKey {
  i64 m = 0, n = 0, k = 0;
  int bits = 8;
  int scheme = 0;

  auto operator<=>(const X86TuningKey&) const = default;
};

/// Native x86 {row_block, col_block} loop tiling (mirrors
/// hal::NativeBlocking without the dependency; gpukern stays hal-free).
struct X86Blocking {
  i64 rb = 0, cb = 0;

  auto operator<=>(const X86Blocking&) const = default;
};

/// Static sanity of a tiling (positive, bounded, divisible): the check a
/// deserialized or cached entry must pass before it may drive a kernel.
Status validate_tiling(const Tiling& t);

/// Same gate for an ARM blocking: positive, bounded, Mc a multiple of the
/// 16-row panel and Nc of the 4-column panel (armkern micro-tile shape).
Status validate_arm_blocking(const ArmBlocking& b);

/// Same gate for a native x86 blocking: positive row/col blocks within the
/// search grid's bounds.
Status validate_x86_blocking(const X86Blocking& b);

class TuningCache {
 public:
  /// Cached tiling for a key, if the search ran before.
  std::optional<Tiling> lookup(const TuningKey& key) const;

  /// Cached tiling, running (and storing) the auto-search on a miss. A hit
  /// whose entry fails validate_tiling (cache corruption — also the
  /// kTuningCacheCorrupt fault-injection site) is evicted and re-searched;
  /// corrupt_evictions() counts these recoveries.
  Tiling get_or_search(const gpusim::DeviceSpec& dev, const ConvShape& s,
                       int bits, bool use_tc);

  void put(const TuningKey& key, const Tiling& t);

  // --- ARM blocked-GEMM entries (format v2) ---------------------------

  std::optional<ArmBlocking> lookup_arm(const ArmTuningKey& key) const;

  /// Cached ARM blocking, invoking `search` (armkern::search_blocking
  /// behind a thunk — this layer stays ARM-free) and storing the result
  /// on a miss. Hits pass through validate_arm_blocking with the same
  /// corrupt-evict-re-search recovery as the GPU side (also the
  /// kTuningCacheCorrupt fault-injection site).
  ArmBlocking get_or_search_arm(const ArmTuningKey& key,
                                const std::function<ArmBlocking()>& search);

  void put_arm(const ArmTuningKey& key, const ArmBlocking& b);

  // --- native x86 entries (format v3) ---------------------------------

  std::optional<X86Blocking> lookup_x86(const X86TuningKey& key) const;

  /// Cached native blocking, invoking `search`
  /// (hal::search_native_blocking behind a thunk — this layer stays
  /// hal-free) and storing the result on a miss. Hits pass through
  /// validate_x86_blocking with the same corrupt-evict-re-search recovery
  /// as the other backends (also the kTuningCacheCorrupt fault site).
  X86Blocking get_or_search_x86(const X86TuningKey& key,
                                const std::function<X86Blocking()>& search);

  void put_x86(const X86TuningKey& key, const X86Blocking& b);

  size_t size() const;      ///< GPU + ARM + x86 entries
  size_t arm_size() const;  ///< ARM entries only
  size_t x86_size() const;  ///< native x86 entries only
  /// v4 "graph" rows deserialize() skipped (summed over every load).
  i64 skipped_graph_rows() const;
  // Stat reads take the mutex too: concurrent scheduler workers share one
  // cache, and an unlocked i64 read against a writer is a data race (TSan
  // flags it) even when the torn value would be harmless.
  i64 hits() const;
  i64 misses() const;
  i64 corrupt_evictions() const;

  /// Text round trip. Format v5: the version header line, then one entry
  /// per line — GPU entries bare ("m n k bits use_tc mtile ntile ktile
  /// kstep wr wc", v1-compatible body) or with an explicit "gpu " prefix,
  /// ARM entries "arm m n k bits scheme mc kc nc", native entries
  /// "x86 m n k bits scheme rb cb".
  std::string serialize() const;

  /// Merge entries from serialized text; returns entries accepted.
  /// Accepts the v5 header, and v4-v1 headers for read compatibility: a
  /// tag the header's format never carried ("graph" outside v4, "x86" in
  /// v2/v1, "arm" in v1) is a kDataLoss error, and v4 "graph" rows are
  /// skipped. Strict: a missing/unknown header, a truncated or garbage
  /// line, or out-of-range values yield an error naming the line, and NO
  /// entries are merged (all-or-nothing).
  StatusOr<int> deserialize(const std::string& text);

  // No-ops, kept only because perfbench/graph.cpp still reads them; the
  // next benchmark revision removes them.
  std::optional<std::vector<ArmBlocking>> lookup_graph(u64, int) const {
    return std::nullopt;
  }
  size_t graph_size() const { return 0; }

 private:
  mutable Mutex mu_;
  std::map<TuningKey, Tiling> entries_ LBC_GUARDED_BY(mu_);
  std::map<ArmTuningKey, ArmBlocking> arm_entries_ LBC_GUARDED_BY(mu_);
  std::map<X86TuningKey, X86Blocking> x86_entries_ LBC_GUARDED_BY(mu_);
  i64 hits_ LBC_GUARDED_BY(mu_) = 0;
  i64 misses_ LBC_GUARDED_BY(mu_) = 0;
  i64 corrupt_evictions_ LBC_GUARDED_BY(mu_) = 0;
  i64 skipped_graph_rows_ LBC_GUARDED_BY(mu_) = 0;
};

}  // namespace lbc::gpukern
