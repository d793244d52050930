// End-to-end graph-compiler bench: whole-net GraphPlan (fused epilogues,
// per-layer blocking) vs the per-layer unfused path on a shrunk ResNet-50
// bottleneck stack and a DenseNet-style block graph, bits 2-8.
//
// Two things are checked:
//
//   * bit-exactness — per (graph, bits) row, the fused forward
//     (FusionMode::kOn) must produce the IDENTICAL dequantized output as the
//     unfused per-layer path (FusionMode::kOff): both run the same
//     fixed-point requant arithmetic in the same order, so any difference
//     is a fusion bug, not noise. The bench exits nonzero on a mismatch.
//   * executed-time gate — the summed modeled seconds of the fused forwards
//     that actually ran must not exceed the committed
//     bench/baselines/BENCH_e2e.json total (1e-9 relative slack: the model
//     is deterministic). Refresh after a deliberate change with:
//       LBC_BENCH_JSON=bench/baselines/BENCH_e2e.json build/bench/e2e_resnet50
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"

using namespace lbc;

namespace {

struct E2eRecord {
  std::string graph;
  int bits = 0;
  double fused_s = 0;    ///< modeled seconds, fused GraphPlan forward
  double unfused_s = 0;  ///< modeled seconds, per-layer path (kOff)
  int fused_convs = 0;
  int fused_adds = 0;
  bool bitexact = false;
};

/// Shrunk ResNet-50: three bottleneck stages (reduce -> 3x3 -> expand with
/// projection shortcuts, one strided) over a 14x14 input, global-avgpool
/// head. Same topology as the paper's network at sizes the emulator runs
/// quickly.
core::QnnGraph build_resnet_stack(int bits) {
  core::QnnGraph g;
  auto n = g.add_input(16, 14);
  n = core::add_bottleneck_block(g, n, 16, 8, 32, 1, bits, 21);
  n = core::add_bottleneck_block(g, n, 32, 8, 32, 1, bits, 22);
  n = core::add_bottleneck_block(g, n, 32, 16, 64, 2, bits, 23);
  g.add_global_avgpool(n);
  return g;
}

/// DenseNet-style block: each 3x3 growth conv reads the running feature
/// sum and its (ReLU'd) output folds back in through a residual add — the
/// graph runtime has no concat node, so dense connectivity is approximated
/// with running sums. Every add is fusable into its producing conv.
core::QnnGraph build_densenet_block(int bits) {
  core::QnnGraph g;
  auto s = g.add_input(24, 12);
  for (int l = 0; l < 4; ++l) {
    const Tensor<float> w = random_ftensor(Shape4{24, 24, 3, 3}, -0.25f,
                                           0.25f, 31 + static_cast<u64>(l));
    const auto c = g.add_conv(s, 24, 3, 1, 1, bits, w, {}, /*relu=*/true);
    s = g.add_add(s, c);
  }
  g.add_global_avgpool(s);
  return g;
}

bool write_e2e_json(const std::string& path,
                    const std::vector<E2eRecord>& records,
                    double fused_total) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"e2e_resnet50\",\n"
               "  \"unit\": \"modeled-seconds\",\n"
               "  \"note\": \"Whole-net GraphPlan: fused epilogues vs the "
               "unfused per-layer path, bits 2-8. Gate: summed executed "
               "fused_seconds <= e2e_fused_seconds (1e-9 relative slack). "
               "Refresh: LBC_BENCH_JSON=bench/baselines/BENCH_e2e.json "
               "build/bench/e2e_resnet50\",\n  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const E2eRecord& r = records[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"bits\": %d, "
                 "\"fused_seconds\": %.9f, \"unfused_seconds\": %.9f, "
                 "\"fused_convs\": %d, \"fused_adds\": %d, "
                 "\"bitexact\": %s}%s\n",
                 r.graph.c_str(), r.bits, r.fused_s, r.unfused_s,
                 r.fused_convs, r.fused_adds, r.bitexact ? "true" : "false",
                 i + 1 < records.size() ? "," : "");
  }
  // Full precision: the gate compares against this total at 1e-9.
  std::fprintf(f, "  ],\n  \"totals\": {\"e2e_fused_seconds\": %.17g}\n}\n",
               fused_total);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
               records.size());
  return true;
}

int run_e2e_gate(double fused_total) {
  const char* baseline_path = std::getenv("LBC_BENCH_BASELINE");
  if (baseline_path == nullptr || baseline_path[0] == '\0') return 0;
  const double baseline =
      bench::read_json_number_field(baseline_path, "e2e_fused_seconds");
  if (baseline <= 0) {
    std::fprintf(stderr, "e2e gate: no e2e_fused_seconds in %s\n",
                 baseline_path);
    return 1;
  }
  const double ratio = fused_total / baseline;
  if (fused_total > baseline * (1 + 1e-9)) {
    std::fprintf(stderr,
                 "e2e gate FAIL: %.9f executed fused modeled seconds vs "
                 "baseline %.9f (%.6fx > 1.0x allowed)\n",
                 fused_total, baseline, ratio);
    return 1;
  }
  std::fprintf(stderr,
               "e2e gate PASS: %.9f executed fused modeled seconds vs "
               "baseline %.9f (%.6fx <= 1.0x)\n",
               fused_total, baseline, ratio);
  return 0;
}

}  // namespace

int main() {
  core::print_environment_banner();
  std::printf("== whole-net GraphPlan: fused vs per-layer unfused, bits "
              "2-8 ==\n\n");

  struct GraphCase {
    const char* name;
    core::QnnGraph (*build)(int);
    Shape4 in_shape;
  };
  const GraphCase cases[] = {
      {"resnet50-stack", build_resnet_stack, Shape4{1, 16, 14, 14}},
      {"densenet-block", build_densenet_block, Shape4{1, 24, 12, 12}},
  };

  std::printf("%-15s %4s %11s %11s %8s %6s %5s\n", "graph", "bits",
              "fused ms", "unfused ms", "speedup", "fconv", "fadd");
  std::vector<E2eRecord> records;
  double fused_total = 0;
  int rc = 0;
  for (const GraphCase& gc : cases) {
    for (int bits = 2; bits <= 8; ++bits) {
      core::QnnGraph g = gc.build(bits);
      const Tensor<float> x = random_ftensor(gc.in_shape, -1.0f, 1.0f, 77);
      const Status cal = g.calibrate(x);
      if (!cal.ok()) {
        std::fprintf(stderr, "calibrate(%s, %d bits): %s\n", gc.name, bits,
                     cal.message().c_str());
        return 1;
      }

      core::GraphPlanOptions fused_opt;
      fused_opt.fusion = core::FusionMode::kOn;
      fused_opt.algo = armkern::ConvAlgo::kGemm;
      core::GraphPlanOptions unfused_opt;
      unfused_opt.fusion = core::FusionMode::kOff;
      unfused_opt.algo = armkern::ConvAlgo::kGemm;

      const core::GraphPlan fused =
          core::GraphPlan::compile(g, fused_opt).value();
      const core::GraphPlan unfused =
          core::GraphPlan::compile(g, unfused_opt).value();
      Workspace a1, s1, a2, s2;
      const core::QnnGraph::RunResult rf = fused.forward(x, a1, s1).value();
      const core::QnnGraph::RunResult ru = unfused.forward(x, a2, s2).value();

      E2eRecord rec;
      rec.graph = gc.name;
      rec.bits = bits;
      rec.fused_s = rf.seconds;
      rec.unfused_s = ru.seconds;
      rec.fused_convs = fused.fused_convs();
      rec.fused_adds = fused.fused_adds();
      rec.bitexact =
          rf.out.elems() == ru.out.elems() &&
          std::memcmp(rf.out.data(), ru.out.data(),
                      static_cast<size_t>(rf.out.elems()) * sizeof(float)) ==
              0;
      if (!rec.bitexact) {
        std::fprintf(stderr,
                     "BIT-EXACT FAIL: %s at %d bits — fused output differs "
                     "from the unfused per-layer path\n",
                     gc.name, bits);
        rc = 1;
      }
      fused_total += rec.fused_s;

      std::printf("%-15s %4d %11.4f %11.4f %7.3fx %6d %5d\n", gc.name, bits,
                  rec.fused_s * 1e3, rec.unfused_s * 1e3,
                  rec.fused_s > 0 ? rec.unfused_s / rec.fused_s : 0.0,
                  rec.fused_convs, rec.fused_adds);
      records.push_back(std::move(rec));
    }
  }

  std::printf("\ne2e_fused_seconds: %.9f\n", fused_total);

  const char* json_path = std::getenv("LBC_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0' &&
      !write_e2e_json(json_path, records, fused_total))
    return 1;
  const int gate_rc = run_e2e_gate(fused_total);
  return rc != 0 ? rc : gate_rc;
}
