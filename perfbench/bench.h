// Shared plumbing of the repository benchmark: options, the result record
// every workload fills, latency summaries, and the in-memory span tracer.
//
// The benchmark touches the library from outside only: every span below is
// recorded by the workload files around a public call (search, plan,
// execute, calibrate, compile, forward, submit), never inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/conv_shape.h"
#include "common/tensor.h"
#include "common/types.h"

namespace perfbench {

using lbc::i64;
using lbc::u64;
using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
i64 now_ns();

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;       ///< per-layer run (spans on) instead of end-to-end
  bool setup_only = false;  ///< stop after set-up (one set-up time sample)
  std::string trace_out;    ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Failures count against `attempted`; any
/// failure also clears `correct`, and the process then exits nonzero.
struct Report {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  double setup_s = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count `n` failed operations and say why on stderr.
  void fail(i64 n, const std::string& why);
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0;
  }
};

/// Samples per tail group; see summarize().
constexpr i64 kTailGroup = 100;
/// Worker threads of the serve-native workload's dedicated pool.
constexpr int kServePoolThreads = 4;

/// Median plus the tail: the highest percentile that still has at least ten
/// samples beyond it (rank n - 10 of n). A run with at least two groups of
/// kTailGroup samples is cut, in arrival order, into such groups and the
/// tail is the median of the groups' tails, so that one burst of host
/// interference in a long open-loop run does not set the figure alone.
struct Latency {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< percentile of the tail (within a group)
  i64 n = 0;            ///< samples in the run
  i64 groups = 1;       ///< groups the tail is the median over
};
Latency summarize(std::vector<double> samples);
/// Print the tail's percentile and sample count beside it (stderr).
void log_tail(const Latency& l, const char* what);
double median(std::vector<double> v);

/// Peak resident set of this process, in MB (getrusage).
double peak_rss_mb();

/// One finished span. `req` groups the spans of one inference (a stack
/// pass, a forward, a request); `layer` names the layer index where one
/// applies (-1 otherwise).
struct Span {
  std::string name;
  i64 id = 0;
  i64 parent = 0;  ///< 0 = root
  i64 req = -1;
  int layer = -1;
  i64 start_ns = 0;
  i64 end_ns = 0;
  std::string args;  ///< JSON object body, e.g. "\"rb\": 8"

  double dur_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// In-memory span store, written out once at the end. Off, record() is a
/// no-op returning 0, so an untraced loop pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// A fresh span id, so children can name a parent before it finishes
  /// (0 when tracing is off).
  i64 new_id();
  /// Record a finished span under an id from new_id().
  void record(Span s);
  /// Record a finished span under a fresh id; returns the id.
  i64 record(const std::string& name, i64 parent, i64 req, int layer,
             i64 start_ns, i64 end_ns, std::string args = "");

  /// Copy of every span named `name`.
  std::vector<Span> named(const std::string& name) const;
  /// Durations (ns) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Summed duration (s) of every span named `name`.
  double total_s(const std::string& name) const;

  /// Write all spans as a Chrome trace-event file. False on I/O failure.
  bool write(const std::string& path) const;

 private:
  const bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  i64 next_id_ = 1;
};

/// Bytes one conv moves at the kernel boundary, computed from its shape
/// (not measured): input activations, packed weights, the packed-B
/// activation staging buffer, and the i32 output.
double computed_conv_bytes(const lbc::ConvShape& s, int bits,
                           i64 packed_weight_bytes);

/// The native kernel a width must run ("avx2-lut" for 2-4 bit, "avx2-dot"
/// for 5-8 bit); a scalar or reference fallback would time another program.
const char* expected_kernel(int bits);

/// Byte equality of two tensors of the same shape — every correctness check
/// of the benchmark is exact.
template <typename T>
bool same_bytes(const lbc::Tensor<T>& a, const lbc::Tensor<T>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elems()) * sizeof(T)) == 0;
}

/// Run fn(0..n-1) on four threads. Used for the reference convolutions,
/// which are slow and run outside every timed region.
template <typename Fn>
void parallel_for(int n, Fn fn) {
  std::atomic<int> next{0};
  const auto worker = [&] {
    for (int i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

// Workloads. Each returns a filled Report; `tracer` is on only in the
// per-layer run.
Report run_native(const Options& opt, int bits, Tracer& tracer);
Report run_graph(const Options& opt, Tracer& tracer);
Report run_serve(const Options& opt, Tracer& tracer);

}  // namespace perfbench
