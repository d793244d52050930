#include "gpukern/tuning_cache.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <sstream>
#include <vector>

#include "common/fault_injection.h"

namespace lbc::gpukern {

namespace {

// Entry tags, and the set each readable header may carry. v4 "graph" rows
// are skipped (and counted) rather than parsed: nothing reads them.
enum Tag : unsigned { kGpu = 1u, kArm = 2u, kX86 = 4u, kGraph = 8u };

struct Format {
  const char* header;
  unsigned tags;
};
constexpr Format kFormats[] = {
    {kTuningCacheHeader, kGpu | kArm | kX86},
    {kTuningCacheHeaderV4, kGpu | kArm | kX86 | kGraph},
    {kTuningCacheHeaderV3, kGpu | kArm | kX86},
    {kTuningCacheHeaderV2, kGpu | kArm},
    {kTuningCacheHeaderV1, kGpu},
};

struct TagName {
  const char* name;
  Tag tag;
};
constexpr TagName kTagNames[] = {
    {"gpu", kGpu}, {"arm", kArm}, {"x86", kX86}, {"graph", kGraph}};

struct ParsedEntries {
  std::vector<std::pair<TuningKey, Tiling>> gpu;
  std::vector<std::pair<ArmTuningKey, ArmBlocking>> arm;
  std::vector<std::pair<X86TuningKey, X86Blocking>> x86;
  i64 skipped_graph_rows = 0;
};

// Reads exactly `fields` from the rest of the line.
template <typename... T>
Status read_fields(std::istringstream& ls, T&... fields) {
  LBC_VALIDATE(static_cast<bool>((ls >> ... >> fields)), kDataLoss,
               "truncated or garbage entry");
  std::string trailing;
  LBC_VALIDATE(!(ls >> trailing), kDataLoss, "trailing fields after entry");
  return Status();
}

Status validate_gemm_key(i64 m, i64 n, i64 k, int bits) {
  LBC_VALIDATE(m > 0 && n > 0 && k > 0, kDataLoss,
               "non-positive GEMM dimension");
  LBC_VALIDATE(bits >= 2 && bits <= 8, kDataLoss,
               "bits " << bits << " outside [2, 8]");
  return Status();
}

// One non-blank entry line under `fmt`: a tag word ("gpu", "arm", ...) or
// a bare v1 GPU body.
Status parse_entry(const std::string& line, const Format& fmt,
                   ParsedEntries& out) {
  std::istringstream ls(line);
  TagName tn = kTagNames[0];
  if (std::isalpha(static_cast<unsigned char>(line[0]))) {
    std::string word;
    ls >> word;
    const auto it = std::find_if(
        std::begin(kTagNames), std::end(kTagNames),
        [&word](const TagName& t) { return word == t.name; });
    LBC_VALIDATE(it != std::end(kTagNames), kDataLoss,
                 "unknown entry tag \"" << word << "\"");
    tn = *it;
  }
  LBC_VALIDATE((fmt.tags & tn.tag) != 0, kDataLoss,
               tn.name << " entry in a \"" << fmt.header << "\" file");
  switch (tn.tag) {
    case kGraph:
      ++out.skipped_graph_rows;
      return Status();
    case kArm: {
      ArmTuningKey k;
      ArmBlocking b;
      LBC_RETURN_IF_ERROR(
          read_fields(ls, k.m, k.n, k.k, k.bits, k.scheme, b.mc, b.kc, b.nc));
      LBC_RETURN_IF_ERROR(validate_gemm_key(k.m, k.n, k.k, k.bits));
      LBC_VALIDATE(k.scheme >= 0 && k.scheme <= kArmSchemeIdMax, kDataLoss,
                   "scheme " << k.scheme << " outside [0, " << kArmSchemeIdMax
                             << "]");
      LBC_RETURN_IF_ERROR(validate_arm_blocking(b));
      out.arm.emplace_back(k, b);
      return Status();
    }
    case kX86: {
      X86TuningKey k;
      X86Blocking b;
      LBC_RETURN_IF_ERROR(
          read_fields(ls, k.m, k.n, k.k, k.bits, k.scheme, b.rb, b.cb));
      LBC_RETURN_IF_ERROR(validate_gemm_key(k.m, k.n, k.k, k.bits));
      LBC_VALIDATE(k.scheme == 0 || k.scheme == 1, kDataLoss,
                   "native scheme " << k.scheme << " outside [0, 1]");
      LBC_RETURN_IF_ERROR(validate_x86_blocking(b));
      out.x86.emplace_back(k, b);
      return Status();
    }
    case kGpu: {
      TuningKey k;
      Tiling t;
      int tc = 1;
      LBC_RETURN_IF_ERROR(read_fields(ls, k.m, k.n, k.k, k.bits, tc, t.mtile,
                                      t.ntile, t.ktile, t.kstep, t.warp_rows,
                                      t.warp_cols));
      LBC_RETURN_IF_ERROR(validate_gemm_key(k.m, k.n, k.k, k.bits));
      LBC_VALIDATE(tc == 0 || tc == 1, kDataLoss,
                   "use_tc must be 0 or 1, got " << tc);
      k.use_tc = (tc != 0);
      LBC_RETURN_IF_ERROR(validate_tiling(t));
      out.gpu.emplace_back(k, t);
      return Status();
    }
  }
  return Status();
}

}  // namespace

Status validate_tiling(const Tiling& t) {
  LBC_VALIDATE(t.mtile > 0 && t.ntile > 0 && t.ktile > 0 && t.kstep > 0,
               kOutOfRange, "non-positive tile dimension");
  LBC_VALIDATE(t.mtile <= 1024 && t.ntile <= 1024 && t.ktile <= 1024,
               kOutOfRange, "tile dimension exceeds 1024");
  LBC_VALIDATE(t.kstep <= t.ktile && t.ktile % t.kstep == 0, kOutOfRange,
               "KTile (" << t.ktile << ") must be a positive multiple of KStep ("
                         << t.kstep << ")");
  LBC_VALIDATE(t.warp_rows >= 1 && t.warp_rows <= 16 && t.warp_cols >= 1 &&
                   t.warp_cols <= 16,
               kOutOfRange, "warp grid must be within 16x16");
  LBC_VALIDATE(t.mtile % t.warp_rows == 0 && t.ntile % t.warp_cols == 0,
               kOutOfRange, "tile must split evenly across the warp grid");
  return Status();
}

Status validate_arm_blocking(const ArmBlocking& b) {
  LBC_VALIDATE(b.mc > 0 && b.kc > 0 && b.nc > 0, kOutOfRange,
               "non-positive ARM block dimension");
  LBC_VALIDATE(b.mc <= 4096 && b.kc <= 4096 && b.nc <= 4096, kOutOfRange,
               "ARM block dimension exceeds 4096");
  LBC_VALIDATE(b.mc % 16 == 0, kOutOfRange,
               "Mc (" << b.mc << ") must be a multiple of the 16-row panel");
  LBC_VALIDATE(b.nc % 4 == 0, kOutOfRange,
               "Nc (" << b.nc << ") must be a multiple of the 4-column panel");
  return Status();
}

Status validate_x86_blocking(const X86Blocking& b) {
  LBC_VALIDATE(b.rb > 0 && b.cb > 0, kOutOfRange,
               "non-positive native block dimension");
  LBC_VALIDATE(b.rb <= 4096 && b.cb <= 8192, kOutOfRange,
               "native block dimension exceeds the search grid's bounds");
  return Status();
}

std::optional<Tiling> TuningCache::lookup(const TuningKey& key) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

Tiling TuningCache::get_or_search(const gpusim::DeviceSpec& dev,
                                  const ConvShape& s, int bits, bool use_tc) {
  const TuningKey key{s.gemm_m(), s.gemm_n(), s.gemm_k(), bits, use_tc};
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      Tiling hit = it->second;
      // kTuningCacheCorrupt: simulate a poisoned entry (bit rot in a
      // shipped cache file, a bad merge) surfacing at lookup time.
      if (FaultInjector::instance().should_fire(
              FaultSite::kTuningCacheCorrupt))
        hit.mtile = -7;
      if (validate_tiling(hit).ok()) {
        ++hits_;
        return hit;
      }
      // Corrupt hit: evict and fall through to a fresh search. The cache
      // self-heals instead of handing the kernel a bogus partition.
      entries_.erase(it);
      ++corrupt_evictions_;
      ++misses_;
    } else {
      ++misses_;
    }
  }
  const AutotuneResult r = autotune_tiling(dev, s, bits, use_tc);
  put(key, r.best);
  return r.best;
}

void TuningCache::put(const TuningKey& key, const Tiling& t) {
  MutexLock lock(mu_);
  entries_[key] = t;
}

std::optional<ArmBlocking> TuningCache::lookup_arm(
    const ArmTuningKey& key) const {
  MutexLock lock(mu_);
  const auto it = arm_entries_.find(key);
  if (it == arm_entries_.end()) return std::nullopt;
  return it->second;
}

ArmBlocking TuningCache::get_or_search_arm(
    const ArmTuningKey& key, const std::function<ArmBlocking()>& search) {
  {
    MutexLock lock(mu_);
    const auto it = arm_entries_.find(key);
    if (it != arm_entries_.end()) {
      ArmBlocking hit = it->second;
      // kTuningCacheCorrupt: a poisoned ARM entry surfaces at lookup time,
      // same recovery as the GPU side.
      if (FaultInjector::instance().should_fire(
              FaultSite::kTuningCacheCorrupt))
        hit.mc = -7;
      if (validate_arm_blocking(hit).ok()) {
        ++hits_;
        return hit;
      }
      arm_entries_.erase(it);
      ++corrupt_evictions_;
      ++misses_;
    } else {
      ++misses_;
    }
  }
  const ArmBlocking b = search();
  put_arm(key, b);
  return b;
}

void TuningCache::put_arm(const ArmTuningKey& key, const ArmBlocking& b) {
  MutexLock lock(mu_);
  arm_entries_[key] = b;
}

std::optional<X86Blocking> TuningCache::lookup_x86(
    const X86TuningKey& key) const {
  MutexLock lock(mu_);
  const auto it = x86_entries_.find(key);
  if (it == x86_entries_.end()) return std::nullopt;
  return it->second;
}

X86Blocking TuningCache::get_or_search_x86(
    const X86TuningKey& key, const std::function<X86Blocking()>& search) {
  {
    MutexLock lock(mu_);
    const auto it = x86_entries_.find(key);
    if (it != x86_entries_.end()) {
      X86Blocking hit = it->second;
      // kTuningCacheCorrupt: a poisoned native entry surfaces at lookup
      // time, same recovery as the other backends.
      if (FaultInjector::instance().should_fire(
              FaultSite::kTuningCacheCorrupt))
        hit.rb = -7;
      if (validate_x86_blocking(hit).ok()) {
        ++hits_;
        return hit;
      }
      x86_entries_.erase(it);
      ++corrupt_evictions_;
      ++misses_;
    } else {
      ++misses_;
    }
  }
  const X86Blocking b = search();
  put_x86(key, b);
  return b;
}

void TuningCache::put_x86(const X86TuningKey& key, const X86Blocking& b) {
  MutexLock lock(mu_);
  x86_entries_[key] = b;
}

size_t TuningCache::size() const {
  MutexLock lock(mu_);
  return entries_.size() + arm_entries_.size() + x86_entries_.size();
}

size_t TuningCache::arm_size() const {
  MutexLock lock(mu_);
  return arm_entries_.size();
}

size_t TuningCache::x86_size() const {
  MutexLock lock(mu_);
  return x86_entries_.size();
}

i64 TuningCache::skipped_graph_rows() const {
  MutexLock lock(mu_);
  return skipped_graph_rows_;
}

i64 TuningCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

i64 TuningCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

i64 TuningCache::corrupt_evictions() const {
  MutexLock lock(mu_);
  return corrupt_evictions_;
}

std::string TuningCache::serialize() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << kTuningCacheHeader << '\n';
  // GPU entries keep the bare v1 line body, so a v2 file of GPU entries
  // differs from its v1 form only in the header.
  for (const auto& [k, t] : entries_)
    out << k.m << ' ' << k.n << ' ' << k.k << ' ' << k.bits << ' '
        << (k.use_tc ? 1 : 0) << ' ' << t.mtile << ' ' << t.ntile << ' '
        << t.ktile << ' ' << t.kstep << ' ' << t.warp_rows << ' '
        << t.warp_cols << '\n';
  for (const auto& [k, b] : arm_entries_)
    out << "arm " << k.m << ' ' << k.n << ' ' << k.k << ' ' << k.bits << ' '
        << k.scheme << ' ' << b.mc << ' ' << b.kc << ' ' << b.nc << '\n';
  for (const auto& [k, b] : x86_entries_)
    out << "x86 " << k.m << ' ' << k.n << ' ' << k.k << ' ' << k.bits << ' '
        << k.scheme << ' ' << b.rb << ' ' << b.cb << '\n';
  return out.str();
}

StatusOr<int> TuningCache::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  LBC_VALIDATE(std::getline(in, line), kDataLoss,
               "empty input: expected header \"" << kTuningCacheHeader << "\"");
  const auto fmt =
      std::find_if(std::begin(kFormats), std::end(kFormats),
                   [&line](const Format& f) { return line == f.header; });
  LBC_VALIDATE(fmt != std::end(kFormats), kDataLoss,
               "unsupported cache format: expected header \""
                   << kTuningCacheHeader << "\" (or v4-v1), got \"" << line
                   << "\"");

  // Parse everything before merging anything: a corrupt line must not
  // leave the cache half-updated.
  ParsedEntries parsed;
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (Status st = parse_entry(line, *fmt, parsed); !st.ok())
      return st.with_context("line " + std::to_string(lineno));
  }
  MutexLock lock(mu_);
  for (const auto& [k, t] : parsed.gpu) entries_[k] = t;
  for (const auto& [k, b] : parsed.arm) arm_entries_[k] = b;
  for (const auto& [k, b] : parsed.x86) x86_entries_[k] = b;
  skipped_graph_rows_ += parsed.skipped_graph_rows;
  return static_cast<int>(parsed.gpu.size() + parsed.arm.size() +
                          parsed.x86.size());
}

}  // namespace lbc::gpukern
