// Native x86 backend bench: real wall-clock nanoseconds next to the modeled
// Cortex-A53 cycles, per layer and bit width, on representative ResNet-50
// shapes. Three numbers per row:
//
//   * modeled   — the emulated ARM path (plan_arm_conv + execute), priced by
//                 the A53 cycle model. Machine-independent.
//   * avx2 ns   — the HAL's native path on this machine's vector units
//                 (pshufb-LUT for 2-4 bit, maddubs dp for 5-8 bit).
//   * scalar ns — the same native plan forced onto the portable scalar
//                 kernels (hal::force_cpu_features), the in-process
//                 calibration reference.
//
// Two gates, both in calibrated units so they track kernel quality, not
// machine speed:
//
//   * Vectorization: norm = avx2_ns / scalar_ns per row (both measured
//     back-to-back on the same box), and the committed BENCH_native.json
//     carries native_norm_total = sum(norm). The gate fails when a fresh
//     run's total exceeds 1.25x the baseline — generous headroom because
//     wall-clock on a busy 1-core CI box is noisy, while a real
//     vectorization regression (e.g. the LUT kernel silently falling to
//     scalar) moves the ratio by ~5-10x. Runs with LBC_BENCH_BASELINE.
//   * The paper's premise: on every ResNet-50 layer, lut2_over_dot8 = the
//     2-bit LUT conv's wall time over the 8-bit DOT conv's (pack + GEMM,
//     as the model runs them), the median of kPremisePairs interleaved
//     pairs with the min-max spread recorded. Fails if 2-bit is slower
//     than 8-bit on any layer. Runs whenever AVX2 is present.
//
// Refresh the baseline deliberately with:
//   LBC_BENCH_JSON=bench/baselines/BENCH_native.json build/bench/native_gemm
// On a machine without AVX2 the bench reports scalar-only and both gates
// are skipped (there is no vector kernel to compare).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/conv_plan.h"
#include "hal/cpu_features.h"
#include "hal/native_gemm.h"

using namespace lbc;

namespace {

struct NativeRecord {
  std::string layer;
  int bits = 0;
  std::string scheme;
  std::string kernel;       ///< executed_algo of the avx2 run (or scalar)
  double modeled_cycles = 0;
  double modeled_ms = 0;
  double avx2_us = 0;       ///< 0 when the machine has no AVX2
  double scalar_us = 0;
  double norm = 0;          ///< avx2 / scalar wall time; 0 when no AVX2
};

/// Best-of-3 native execution (plan is fixed; only the clock varies).
StatusOr<core::ArmLayerResult> run_native_best(const core::ConvPlan& plan,
                                               const Tensor<i8>& in,
                                               Workspace& ws) {
  StatusOr<core::ArmLayerResult> best = core::execute_arm_conv(plan, in, ws);
  if (!best.ok()) return best;
  for (int rep = 1; rep < 3; ++rep) {
    StatusOr<core::ArmLayerResult> r = core::execute_arm_conv(plan, in, ws);
    if (r.ok() && r->measured_ns < best->measured_ns) best = std::move(r);
  }
  return best;
}

/// One layer of the premise gate: median wall times of the 2-bit and
/// 8-bit convs and the median per-pair ratio with its min-max spread.
struct PremiseRecord {
  std::string layer;
  double lut2_us = 0, dot8_us = 0;
  double ratio = 0, ratio_min = 0, ratio_max = 0;
};

/// Interleaved pairs per layer; odd so the median is one measured pair.
constexpr int kPremisePairs = 9;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One native plan and its input, timed by the interleaved sections.
struct Side {
  core::ConvPlan plan;
  Tensor<i8> in;
};

Side make_side(const ConvShape& s, int bits) {
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 31);
  return Side{core::plan_native_conv(s, w, bits).value(),
              random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits,
                             37)};
}

/// Time the 2-bit and 8-bit native plans of one layer back to back,
/// alternating which runs first, kPremisePairs times after one warm-up
/// each. Host noise hits both halves of a pair alike, so the per-pair
/// ratio is steadier than either time.
PremiseRecord premise_layer(const ConvShape& s) {
  const Side lut2 = make_side(s, 2), dot8 = make_side(s, 8);
  Workspace ws;
  const auto run = [&ws](const Side& x) {
    return core::execute_arm_conv(x.plan, x.in, ws).value().measured_ns;
  };
  run(lut2);
  run(dot8);
  std::vector<double> t2, t8, ratio;
  for (int rep = 0; rep < kPremisePairs; ++rep) {
    double a = 0, b = 0;
    if (rep % 2 == 0) {
      a = run(lut2);
      b = run(dot8);
    } else {
      b = run(dot8);
      a = run(lut2);
    }
    t2.push_back(a);
    t8.push_back(b);
    ratio.push_back(a / b);
  }
  PremiseRecord r;
  r.layer = s.name;
  r.lut2_us = median_of(t2) * 1e-3;
  r.dot8_us = median_of(t8) * 1e-3;
  r.ratio = median_of(ratio);
  r.ratio_min = *std::min_element(ratio.begin(), ratio.end());
  r.ratio_max = *std::max_element(ratio.begin(), ratio.end());
  return r;
}

/// The premise section: every ResNet-50 layer, one row each. Returns the
/// gate verdict (nonzero when 2-bit loses to 8-bit on any layer).
int run_premise_section(std::vector<PremiseRecord>& out) {
  std::printf("\n== premise: 2-bit LUT vs 8-bit DOT wall clock "
              "(median of %d interleaved pairs) ==\n",
              kPremisePairs);
  std::printf("%-8s %11s %11s %15s %17s\n", "layer", "lut2 us", "dot8 us",
              "lut2_over_dot8", "spread min-max");
  int rc = 0;
  for (const ConvShape& s : nets::resnet50_layers()) {
    const PremiseRecord r = premise_layer(s);
    std::printf("%-8s %11.2f %11.2f %15.3f %8.3f-%-8.3f\n", r.layer.c_str(),
                r.lut2_us, r.dot8_us, r.ratio, r.ratio_min, r.ratio_max);
    if (r.ratio > 1.0) {
      std::fprintf(stderr,
                   "premise gate FAIL: %s 2-bit LUT takes %.3fx the 8-bit "
                   "DOT time (median of %d pairs)\n",
                   r.layer.c_str(), r.ratio, kPremisePairs);
      rc = 1;
    }
    out.push_back(r);
  }
  if (rc == 0)
    std::fprintf(stderr, "premise gate PASS: 2-bit beats 8-bit on all %zu "
                         "layers\n",
                 out.size());
  return rc;
}

bool write_native_json(const std::string& path,
                       const std::vector<NativeRecord>& records,
                       const std::vector<PremiseRecord>& premise,
                       double norm_total) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"native_gemm\",\n"
               "  \"unit\": \"calibrated-avx2-over-scalar\",\n"
               "  \"note\": \"norm = avx2_us / scalar_us measured "
               "back-to-back in-process, so the gate tracks vectorization "
               "quality, not machine speed. Gate: native_norm_total <= "
               "1.25x baseline (wall-clock headroom; a real kernel "
               "regression moves it 5-10x). premise: lut2_over_dot8 = "
               "2-bit LUT conv time / 8-bit DOT conv time per ResNet-50 "
               "layer, median of %d interleaved pairs with the min-max "
               "spread; gate: <= 1 on every layer. Refresh: "
               "LBC_BENCH_JSON=bench/baselines/BENCH_native.json "
               "build/bench/native_gemm\",\n",
               kPremisePairs);
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const NativeRecord& r = records[i];
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"bits\": %d, \"scheme\": \"%s\", "
                 "\"kernel\": \"%s\", \"modeled_cycles\": %.1f, "
                 "\"modeled_ms\": %.4f, \"avx2_us\": %.2f, "
                 "\"scalar_us\": %.2f, \"norm\": %.4f}%s\n",
                 r.layer.c_str(), r.bits, r.scheme.c_str(), r.kernel.c_str(),
                 r.modeled_cycles, r.modeled_ms, r.avx2_us, r.scalar_us,
                 r.norm, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"premise\": [\n");
  double worst = 0;
  for (size_t i = 0; i < premise.size(); ++i) {
    const PremiseRecord& r = premise[i];
    worst = std::max(worst, r.ratio);
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"lut2_us\": %.2f, "
                 "\"dot8_us\": %.2f, \"lut2_over_dot8\": %.4f, "
                 "\"min\": %.4f, \"max\": %.4f}%s\n",
                 r.layer.c_str(), r.lut2_us, r.dot8_us, r.ratio, r.ratio_min,
                 r.ratio_max, i + 1 < premise.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"totals\": {\"native_norm_total\": %.4f, "
               "\"lut2_over_dot8_max\": %.4f}\n}\n",
               norm_total, worst);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
               records.size());
  return true;
}

ConvShape make_square_3x3(const std::string& name, i64 channels, i64 hw) {
  ConvShape s;
  s.name = name;
  s.batch = 1;
  s.in_c = channels;
  s.in_h = hw;
  s.in_w = hw;
  s.out_c = channels;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

/// Column-tail coverage: layers whose GEMM N is not a multiple of the
/// kernel's column panel (conv18's 7x7 output gives N = 49) must not fall
/// off the vector path. Gate: the tail shape's avx2-over-scalar speedup
/// recovers at least 55% of an aligned shape's (N = 64) — before the
/// staged tail path, 17 of 49 columns ran scalar and this ratio sat far
/// below the bar for the LUT scheme. Timed like the premise section: each
/// of kPremisePairs reps runs avx2 and scalar on both shapes back to back
/// (order alternating per rep), its efficiency is the ratio of the two
/// speedups, and the gate reads the median with the min-max spread.
int run_tail_section() {
  std::printf("\n== column-tail vectorization (N = 49 vs 64, median of %d "
              "interleaved pairs) ==\n",
              kPremisePairs);
  std::printf("%-6s %8s %12s %14s %10s %17s\n", "bits", "scheme",
              "tail(N=49)", "aligned(N=64)", "tail eff", "spread min-max");
  const ConvShape tail = make_square_3x3("tail7x7", 256, 7);     // N = 49
  const ConvShape aligned = make_square_3x3("align8x8", 256, 8); // N = 64
  hal::CpuFeatures scalar_only = hal::cpu_features();
  scalar_only.avx2 = false;
  Workspace ws;
  const auto run = [&](const Side& x, bool scalar) {
    if (scalar) hal::force_cpu_features(scalar_only);
    const double ns =
        core::execute_arm_conv(x.plan, x.in, ws).value().measured_ns;
    if (scalar) hal::clear_cpu_feature_override();
    return ns;
  };
  int rc = 0;
  for (const int bits : {2, 8}) {  // one LUT row, one dot row
    const Side t = make_side(tail, bits), a = make_side(aligned, bits);
    // scalar / avx2 of one shape, the two runs in the rep's order.
    const auto speedup = [&](const Side& x, bool flip) {
      const double first = run(x, flip);
      const double second = run(x, !flip);
      return flip ? first / second : second / first;
    };
    speedup(t, false);
    speedup(a, false);
    std::vector<double> sp_t, sp_a, eff;
    for (int rep = 0; rep < kPremisePairs; ++rep) {
      const bool flip = rep % 2 != 0;
      double st = 0, sa = 0;
      if (flip) {
        sa = speedup(a, flip);
        st = speedup(t, flip);
      } else {
        st = speedup(t, flip);
        sa = speedup(a, flip);
      }
      sp_t.push_back(st);
      sp_a.push_back(sa);
      eff.push_back(sa > 0 ? st / sa : 0);
    }
    const double e = median_of(eff);
    const char* scheme =
        hal::native_scheme_for(bits) == hal::NativeScheme::kLut ? "lut"
                                                                : "dot";
    std::printf("%-6d %8s %11.2fx %13.2fx %10.3f %8.3f-%-8.3f\n", bits,
                scheme, median_of(sp_t), median_of(sp_a), e,
                *std::min_element(eff.begin(), eff.end()),
                *std::max_element(eff.begin(), eff.end()));
    if (e < 0.55) {
      std::fprintf(stderr,
                   "tail vectorization FAIL: %d-bit %s tail efficiency %.3f "
                   "(median of %d pairs) < 0.55 — the N %% %lld tail likely "
                   "fell back to scalar\n",
                   bits, scheme, e, kPremisePairs,
                   static_cast<long long>(
                       hal::native_register_block(bits).panel_cols));
      rc = 1;
    }
  }
  return rc;
}

int run_norm_gate(double norm_total, bool have_avx2) {
  const char* baseline_path = std::getenv("LBC_BENCH_BASELINE");
  if (baseline_path == nullptr || baseline_path[0] == '\0') return 0;
  if (!have_avx2) {
    std::fprintf(stderr,
                 "native norm gate SKIP: no AVX2 on this machine, no "
                 "avx2/scalar ratio to compare\n");
    return 0;
  }
  const double baseline =
      bench::read_json_number_field(baseline_path, "native_norm_total");
  if (baseline <= 0) {
    std::fprintf(stderr, "native norm gate: no native_norm_total in %s\n",
                 baseline_path);
    return 1;
  }
  const double limit = baseline * 1.25;
  const double ratio = norm_total / baseline;
  if (norm_total > limit) {
    std::fprintf(stderr,
                 "native norm gate FAIL: %.4f calibrated units vs baseline "
                 "%.4f (%.3fx > 1.25x allowed)\n",
                 norm_total, baseline, ratio);
    return 1;
  }
  std::fprintf(stderr,
               "native norm gate PASS: %.4f calibrated units vs baseline "
               "%.4f (%.3fx <= 1.25x)\n",
               norm_total, baseline, ratio);
  return 0;
}

}  // namespace

int main() {
  core::print_environment_banner();
  std::printf("== native x86 backend: measured wall clock vs modeled "
              "Cortex-A53 cycles ==\n");
  std::printf("host: %s\n\n", hal::cpu_features_describe());
  const bool have_avx2 = hal::cpu_features().avx2;

  // Four shape classes of the ResNet-50 table: the big early 3x3, a 1x1
  // reduce, a mid-network 3x3, and a late small-spatial 3x3.
  const std::span<const ConvShape> all = nets::resnet50_layers();
  const std::vector<ConvShape> layers = {all[1], all[2], all[6],
                                         all[all.size() - 2]};
  const int bit_sweep[] = {2, 3, 4, 6, 8};

  std::printf("%-10s %4s %6s %12s %11s %11s %11s %8s\n", "layer", "bits",
              "scheme", "modeled Mcyc", "modeled ms", "avx2 us", "scalar us",
              "norm");
  std::vector<NativeRecord> records;
  double norm_total = 0;
  for (const ConvShape& s : layers) {
    const Tensor<i8> in = random_qtensor(
        Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 8, 7);
    for (const int bits : bit_sweep) {
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 11);
      const Tensor<i8> inq = random_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 13);

      NativeRecord rec;
      rec.layer = s.name;
      rec.bits = bits;
      rec.scheme =
          hal::native_scheme_for(bits) == hal::NativeScheme::kLut ? "lut"
                                                                  : "dot";

      // Modeled reference: the emulated ARM path on the same layer.
      const core::ArmLayerResult modeled =
          bench::arm_layer_run(s, bits, core::ArmImpl::kOurs);
      rec.modeled_cycles = modeled.cycles;
      rec.modeled_ms = modeled.seconds * 1e3;

      StatusOr<core::ConvPlan> plan = core::plan_native_conv(s, w, bits);
      if (!plan.ok()) {
        std::fprintf(stderr, "plan_native_conv(%s, %d bits): %s\n",
                     s.name.c_str(), bits, plan.status().message().c_str());
        return 1;
      }
      Workspace ws;
      if (have_avx2) {
        const core::ArmLayerResult r =
            run_native_best(*plan, inq, ws).value();
        rec.avx2_us = r.measured_ns * 1e-3;
        rec.kernel = r.executed_algo;
      }
      hal::CpuFeatures scalar_only = hal::cpu_features();
      scalar_only.avx2 = false;
      hal::force_cpu_features(scalar_only);
      const core::ArmLayerResult rs = run_native_best(*plan, inq, ws).value();
      hal::clear_cpu_feature_override();
      rec.scalar_us = rs.measured_ns * 1e-3;
      if (!have_avx2) rec.kernel = rs.executed_algo;
      if (have_avx2 && rec.scalar_us > 0) {
        rec.norm = rec.avx2_us / rec.scalar_us;
        norm_total += rec.norm;
      }

      std::printf("%-10s %4d %6s %12.2f %11.3f %11.2f %11.2f %8.3f\n",
                  s.name.c_str(), bits, rec.scheme.c_str(),
                  rec.modeled_cycles / 1e6, rec.modeled_ms, rec.avx2_us,
                  rec.scalar_us, rec.norm);
      records.push_back(std::move(rec));
    }
  }
  std::printf("\nnative_norm_total (sum avx2/scalar): %.4f%s\n", norm_total,
              have_avx2 ? "" : "  [no AVX2: scalar only, gate skipped]");

  int rc = 0;
  std::vector<PremiseRecord> premise;
  if (have_avx2) {
    rc = run_tail_section();
    if (run_premise_section(premise) != 0) rc = 1;
  }
  const char* json_path = std::getenv("LBC_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0' &&
      !write_native_json(json_path, records, premise, norm_total))
    return 1;
  const int gate_rc = run_norm_gate(norm_total, have_avx2);
  return rc != 0 ? rc : gate_rc;
}
