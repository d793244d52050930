#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "hal/native_gemm.h"

namespace perfbench {

i64 now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void Report::fail(i64 n, const std::string& why) {
  failed += n;
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

namespace {

/// Highest rank (1-based) with at least ten samples above it; below eleven
/// samples there is none and the maximum stands in.
i64 tail_rank(i64 n) { return n > 10 ? n - 10 : n; }

}  // namespace

Latency summarize(std::vector<double> samples) {
  Latency l;
  l.n = static_cast<i64>(samples.size());
  if (samples.empty()) return l;
  l.p50 = median(samples);
  // Consecutive groups in arrival order; the last absorbs the remainder.
  l.groups = std::max<i64>(1, l.n / kTailGroup);
  const i64 size = l.groups == 1 ? l.n : kTailGroup;
  std::vector<double> tails;
  for (i64 g = 0; g < l.groups; ++g) {
    const auto first = samples.begin() + g * size;
    std::vector<double> part(first,
                             g + 1 == l.groups ? samples.end() : first + size);
    std::sort(part.begin(), part.end());
    const i64 r = tail_rank(static_cast<i64>(part.size()));
    tails.push_back(part[static_cast<size_t>(r - 1)]);
  }
  l.tail = median(tails);
  l.tail_pct = 100.0 * static_cast<double>(tail_rank(size)) /
               static_cast<double>(size);
  return l;
}

void log_tail(const Latency& l, const char* what) {
  std::fprintf(stderr,
               "perfbench: latency_ms_tail is p%.1f of %lld %s (median over "
               "%lld group%s)\n",
               l.tail_pct, static_cast<long long>(l.n), what,
               static_cast<long long>(l.groups), l.groups == 1 ? "" : "s");
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

i64 Tracer::new_id() {
  if (!on_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(Span s) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

i64 Tracer::record(const std::string& name, i64 parent, i64 req, int layer,
                   i64 start_ns, i64 end_ns, std::string args) {
  const i64 id = new_id();
  record(Span{name, id, parent, req, layer, start_ns, end_ns, std::move(args)});
  return id;
}

std::vector<Span> Tracer::named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s);
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : named(name)) out.push_back(s.dur_ns());
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double ns = 0;
  for (const Span& s : named(name)) ns += s.dur_ns();
  return ns * 1e-9;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                 "%lld, \"parent\": %lld, \"req\": %lld, \"layer\": %d%s%s}}"
                 "%s\n",
                 s.name.c_str(),
                 static_cast<double>(s.start_ns) * 1e-3, s.dur_ns() * 1e-3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.req), s.layer,
                 s.args.empty() ? "" : ", ", s.args.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

const char* expected_kernel(int bits) {
  return lbc::hal::native_scheme_for(bits) == lbc::hal::NativeScheme::kLut
             ? "avx2-lut"
             : "avx2-dot";
}

double computed_conv_bytes(const lbc::ConvShape& s, int bits,
                           i64 packed_weight_bytes) {
  const double in = static_cast<double>(s.batch * s.in_c * s.in_h * s.in_w);
  const double staged = static_cast<double>(
      lbc::hal::native_packed_b_bytes(s.gemm_k(), s.gemm_n(), bits));
  const double out = 4.0 * static_cast<double>(s.gemm_m() * s.gemm_n());
  return in + static_cast<double>(packed_weight_bytes) + staged + out;
}

}  // namespace perfbench
