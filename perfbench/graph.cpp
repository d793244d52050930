// graph-w2: a calibrated 2-bit QnnGraph of four ResNet-50 bottleneck blocks
// at the stage-2 -> stage-3 widths (64 -> 256 -> 512 channels, third block
// strided, 64x28x28 input, global avgpool head), compiled once with
// GraphPlan::compile under the default options and run in repeated
// GraphPlan::forward calls on the emulated Cortex-A53. One forward is one
// inference; its host time is the emulator's, its modeled time the A53's.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "armsim/cost_model.h"
#include "bench.h"
#include "common/rng.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"
#include "gpukern/tuning_cache.h"

namespace perfbench {
namespace {

using namespace lbc;

struct ForwardTimes {
  std::vector<double> ns;
  double wall_s = 0;
};

/// Closed loop of fused forwards for `seconds`; each output is compared with
/// the checked one after its clock stops.
ForwardTimes run_forwards(const core::GraphPlan& plan, const Tensor<float>& x,
                          const Tensor<float>& verified, double seconds,
                          i64 first_req, Tracer& tr, Report& rep) {
  ForwardTimes t;
  Workspace arena, scratch;
  const i64 begin = now_ns();
  const i64 stop = begin + static_cast<i64>(seconds * 1e9);
  for (i64 req = first_req; now_ns() < stop; ++req) {
    const i64 f0 = now_ns();
    StatusOr<core::QnnGraph::RunResult> r = plan.forward(x, arena, scratch);
    const i64 f1 = now_ns();
    t.ns.push_back(static_cast<double>(f1 - f0));
    tr.record("core.graph.forward", 0, req, -1, f0, f1);
    ++rep.attempted;
    if (!r.ok() || !same_bytes(r->out, verified))
      rep.fail(1, "forward " + std::to_string(req) + " failed or changed "
                  "its output");
  }
  t.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
  return t;
}

/// Conv node ids of the graph below, in node order; BENCHMARK.json names one
/// core.graph.node.<id>_us metric per entry.
constexpr int kConvNodes[] = {1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 15, 16, 17};

}  // namespace

Report run_graph(const Options& opt, Tracer& tr) {
  Report rep;
  constexpr int kBits = 2;
  struct Block {
    i64 in_c, mid_c, out_c, stride;
  };
  const Block blocks[] = {{64, 64, 256, 1},
                          {256, 64, 256, 1},
                          {256, 128, 512, 2},
                          {512, 128, 512, 1}};
  core::QnnGraph g;
  core::QnnGraph::NodeId cur = g.add_input(64, 28);
  std::vector<int> conv_nodes;
  for (size_t b = 0; b < std::size(blocks); ++b) {
    const i64 first = g.node_count();
    cur = core::add_bottleneck_block(g, cur, blocks[b].in_c, blocks[b].mid_c,
                                     blocks[b].out_c, blocks[b].stride, kBits,
                                     opt.seed * 100 + 10 * b);
    // A block appends its convs, then the residual add it returns.
    for (i64 id = first; id < cur; ++id)
      conv_nodes.push_back(static_cast<int>(id));
  }
  g.add_global_avgpool(cur);
  if (!std::equal(conv_nodes.begin(), conv_nodes.end(), std::begin(kConvNodes),
                  std::end(kConvNodes))) {
    rep.fail(1, "graph conv node ids differ from the metric names");
    return rep;
  }
  const Tensor<float> x =
      random_ftensor(Shape4{1, 64, 28, 28}, -1.0f, 1.0f, opt.seed * 1000 + 7);

  // ---- set-up: calibrate, compile (what a user gets), compile unfused.
  // The traced run hands compile an empty in-memory tuning cache only to
  // read back the joint blockings it chose.
  gpukern::TuningCache joint_rows;
  core::GraphPlanOptions fused_opt;
  if (tr.on()) fused_opt.tuning = &joint_rows;
  core::GraphPlanOptions unfused_opt;
  unfused_opt.fusion = core::FusionMode::kOff;
  unfused_opt.joint_search = false;

  const i64 s0 = now_ns();
  const Status cal = g.calibrate(x);
  const i64 s1 = now_ns();
  StatusOr<core::GraphPlan> fused = core::GraphPlan::compile(g, fused_opt);
  const i64 s2 = now_ns();
  StatusOr<core::GraphPlan> unfused = core::GraphPlan::compile(g, unfused_opt);
  const i64 s3 = now_ns();
  rep.setup_s = static_cast<double>(s3 - s0) * 1e-9;
  if (!cal.ok() || !fused.ok() || !unfused.ok()) {
    rep.fail(1, "calibrate/compile: " +
                    (!cal.ok() ? cal.message()
                               : (!fused.ok() ? fused.status().message()
                                              : unfused.status().message())));
    return rep;
  }
  if (opt.setup_only) return rep;
  std::string blocking_args;
  if (tr.on()) {
    const std::vector<gpukern::ArmBlocking> rows =
        joint_rows
            .lookup_graph(fused->graph_hash(),
                          static_cast<int>(joint_rows.graph_size()))
            .value_or(std::vector<gpukern::ArmBlocking>{});
    std::string list;
    for (const gpukern::ArmBlocking& b : rows) {
      if (!list.empty()) list += ' ';
      list += std::to_string(b.mc) + "/" + std::to_string(b.kc) + "/" +
              std::to_string(b.nc);
    }
    blocking_args = "\"joint_mc_kc_nc\": \"" + list + "\"";
  }
  tr.record("core.graph.calibrate", 0, -1, -1, s0, s1);
  tr.record("core.graph.compile", 0, -1, -1, s1, s2, blocking_args);
  tr.record("core.graph.compile_unfused", 0, -1, -1, s2, s3);

  // ---- correctness, outside the timed region: fused == unfused, bit for
  // bit (same fixed-point requant in the same order).
  Workspace a1, w1, a2, w2;
  StatusOr<core::QnnGraph::RunResult> rf = fused->forward(x, a1, w1);
  StatusOr<core::QnnGraph::RunResult> ru = unfused->forward(x, a2, w2);
  ++rep.attempted;
  if (!rf.ok() || !ru.ok() || !same_bytes(rf->out, ru->out)) {
    rep.fail(1, "fused forward differs from the unfused forward");
    return rep;
  }

  Tracer off(false);
  const double untraced_s = tr.on() ? opt.seconds / 2 : opt.seconds;
  const ForwardTimes base =
      run_forwards(*fused, x, rf->out, untraced_s, 0, off, rep);
  const Latency lat = summarize(base.ns);
  if (!tr.on()) {
    rep.add("latency_ms_p50", lat.p50 * 1e-6, "ms");
    rep.add("latency_ms_tail", lat.tail * 1e-6, "ms");
    log_tail(lat, "forwards");
    rep.add("modeled_ms", rf->seconds * 1e3, "a53_ms");
    rep.add("goodput_rps", static_cast<double>(base.ns.size()) / base.wall_s,
            "1/s");
    rep.add("ok_frac", 1.0 - rep.fail_frac(), "fraction");
    return rep;
  }

  const ForwardTimes traced =
      run_forwards(*fused, x, rf->out, opt.seconds - untraced_s,
                   static_cast<i64>(base.ns.size()), tr, rep);
  const Latency tlat = summarize(traced.ns);
  const double freq = armsim::CostModel::cortex_a53().freq_hz;
  rep.add("latency_tail_pct", lat.tail_pct, "pct");
  rep.add("latency_samples", static_cast<double>(lat.n), "count");
  rep.add("trace.overhead_pct", 100.0 * (tlat.p50 - lat.p50) / lat.p50, "pct");
  rep.add("fail_frac", rep.fail_frac(), "fraction");
  rep.add("core.graph.calibrate_s", tr.total_s("core.graph.calibrate"), "s");
  rep.add("core.graph.compile_s", tr.total_s("core.graph.compile"), "s");
  rep.add("core.graph.compile_unfused_s",
          tr.total_s("core.graph.compile_unfused"), "s");
  rep.add("core.graph.unfused_modeled_ms", ru->seconds * 1e3, "a53_ms");
  rep.add("core.graph.fusion_saving_pct",
          100.0 * (ru->seconds - rf->seconds) / ru->seconds, "pct");
  rep.add("core.graph.fused_convs", fused->fused_convs(), "count");
  for (int id : kConvNodes)
    rep.add("core.graph.node." + std::to_string(id) + "_us",
            rf->node_seconds[static_cast<size_t>(id)] * 1e6, "a53_us");
  rep.add("core.graph.arena_kb",
          static_cast<double>(fused->arena_reserve_bytes()) / 1024.0, "KiB");
  rep.add("armkern.joint_margin_pct",
          fused->greedy_cycles() > 0
              ? 100.0 * (fused->greedy_cycles() - fused->joint_cycles()) /
                    fused->greedy_cycles()
              : 0.0,
          "pct");
  rep.add("armsim.host_ns_per_cycle", lat.p50 / (rf->seconds * freq),
          "ns/cycle");
  return rep;
}

}  // namespace perfbench
