// perfbench: one workload run of the repository benchmark. run.py builds
// this binary and drives it; the last stdout line is the run's JSON record
// (correct/attempted/failed, this process's set-up time, and every metric
// the workload measured). Exits 1 on any wrong output or wrong kernel, 2 on
// bad arguments.
//
//   perfbench --workload native-w2 --seed 1 --seconds 10 --trace 0
//             [--setup-only] [--trace-out FILE]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "hal/cpu_features.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "native-w2|native-w8|graph-w2|serve-native --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--trace-out FILE]\n",
               why);
  return 2;
}

void print_banner(const Options& opt) {
  const auto kib = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? v / 1024 : 0L;
  };
  std::fprintf(stderr,
               "perfbench: workload %s seed %llu seconds %.3g trace %d%s\n"
               "perfbench: host cpu [%s] nproc %u serve pool %d threads, "
               "caches L1d %ld KiB L2 %ld KiB L3 %ld KiB\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0,
               opt.setup_only ? " (set-up only)" : "",
               lbc::hal::cpu_features_describe(),
               std::thread::hardware_concurrency(), kServePoolThreads,
               kib(_SC_LEVEL1_DCACHE_SIZE), kib(_SC_LEVEL2_CACHE_SIZE),
               kib(_SC_LEVEL3_CACHE_SIZE));
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"setup_s\": %.17g, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.setup_s);
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // A non-finite value prints as NaN, which run.py rejects.
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                m.name.c_str());
    if (std::isfinite(m.value))
      std::printf("%.17g", m.value);
    else
      std::printf("NaN");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 120))
    return usage("--seconds must be in (0, 120]");
  print_banner(opt);

  Tracer tracer(opt.trace);
  Report rep;
  if (opt.workload == "native-w2") {
    rep = run_native(opt, 2, tracer);
  } else if (opt.workload == "native-w8") {
    rep = run_native(opt, 8, tracer);
  } else if (opt.workload == "graph-w2") {
    rep = run_graph(opt, tracer);
  } else if (opt.workload == "serve-native") {
    rep = run_serve(opt, tracer);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (!opt.setup_only) rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (tracer.on() && !opt.trace_out.empty() && !tracer.write(opt.trace_out))
    rep.fail(0, "cannot write spans to " + opt.trace_out);
  print_json(rep);
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
