// native-w2 / native-w8: the 19 ResNet-50 conv layers at batch 1 on the
// native x86 backend, planned once (core::plan_native_conv) and executed in
// back-to-back whole-stack passes (core::execute_arm_conv), single thread,
// closed loop. One pass is one inference.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "armsim/cost_model.h"
#include "bench.h"
#include "common/rng.h"
#include "core/conv_plan.h"
#include "hal/native_conv.h"
#include "hal/native_gemm.h"
#include "nets/nets.h"
#include "refconv/conv_ref.h"

namespace perfbench {
namespace {

using namespace lbc;

struct PassTimes {
  std::vector<double> pass_ns;
  double wall_s = 0;
};

/// Closed loop of whole-stack passes for `seconds`. Every pass's outputs
/// are compared with the verified outputs after the pass's clock stops.
PassTimes run_passes(const std::vector<core::ConvPlan>& plans,
                     const std::vector<Tensor<i8>>& inputs,
                     const std::vector<Tensor<i32>>& verified, int bits,
                     double seconds, i64 first_req, Tracer& tr, Report& rep) {
  PassTimes t;
  Workspace ws;
  std::vector<core::ArmLayerResult> results(plans.size());
  const i64 begin = now_ns();
  const i64 stop = begin + static_cast<i64>(seconds * 1e9);
  for (i64 req = first_req; now_ns() < stop; ++req) {
    const i64 p0 = now_ns();
    const i64 pass_id = tr.new_id();
    for (size_t l = 0; l < plans.size(); ++l) {
      const i64 e0 = now_ns();
      StatusOr<core::ArmLayerResult> r =
          core::execute_arm_conv(plans[l], inputs[l], ws);
      const i64 e1 = now_ns();
      if (!r.ok()) {
        rep.fail(1, "execute " + plans[l].shape().name + ": " +
                        r.status().message());
        return t;
      }
      results[l] = std::move(*r);
      if (tr.on()) {
        const i64 exec_id = tr.record("core.execute_arm_conv", pass_id, req,
                                      static_cast<int>(l), e0, e1);
        const i64 k_ns = static_cast<i64>(results[l].measured_ns);
        tr.record("hal.kernel", exec_id, req, static_cast<int>(l), e1 - k_ns,
                  e1);
      }
    }
    const i64 p1 = now_ns();
    t.pass_ns.push_back(static_cast<double>(p1 - p0));
    tr.record(Span{"pass", pass_id, 0, req, -1, p0, p1, ""});
    ++rep.attempted;
    for (size_t l = 0; l < plans.size(); ++l) {
      if (results[l].executed_algo != expected_kernel(bits) ||
          !same_bytes(results[l].out, verified[l])) {
        rep.fail(1, "pass " + std::to_string(req) + " layer " +
                        plans[l].shape().name + " ran " +
                        results[l].executed_algo + " or changed its output");
        break;
      }
    }
  }
  t.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
  return t;
}

}  // namespace

Report run_native(const Options& opt, int bits, Tracer& tr) {
  Report rep;
  const std::span<const ConvShape> layers = nets::resnet50_layers();
  const int n = static_cast<int>(layers.size());
  std::vector<Tensor<i8>> weights, inputs;
  for (int l = 0; l < n; ++l) {
    const ConvShape& s = layers[static_cast<size_t>(l)];
    const u64 seed = opt.seed * 1000 + static_cast<u64>(2 * l);
    weights.push_back(random_qtensor(
        Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, seed));
    inputs.push_back(random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w},
                                    bits, seed + 1));
  }

  // ---- set-up: the measured-ns blocking search, then plan + pack with the
  // search memoized (the plan's own search call is then a memo hit).
  const i64 s0 = now_ns();
  for (int l = 0; l < n; ++l) {
    const ConvShape& s = layers[static_cast<size_t>(l)];
    const i64 t0 = now_ns();
    const hal::NativeBlocking b =
        hal::search_native_blocking(s.gemm_m(), s.gemm_n(), s.gemm_k(), bits);
    tr.record("hal.search_native_blocking", 0, -1, l, t0, now_ns(),
              "\"rb\": " + std::to_string(b.rb) +
                  ", \"cb\": " + std::to_string(b.cb));
  }
  const i64 s1 = now_ns();
  const i64 cold_searches = hal::native_search_stats().searches;
  std::vector<core::ConvPlan> plans;
  for (int l = 0; l < n; ++l) {
    const i64 t0 = now_ns();
    StatusOr<core::ConvPlan> p = core::plan_native_conv(
        layers[static_cast<size_t>(l)], weights[static_cast<size_t>(l)],
        bits);
    if (!p.ok()) {
      rep.fail(1, "plan_native_conv: " + p.status().message());
      return rep;
    }
    const hal::NativeBlocking& b = p->native_plan()->blocking;
    tr.record("core.plan_native_conv", 0, -1, l, t0, now_ns(),
              "\"rb\": " + std::to_string(b.rb) +
                  ", \"cb\": " + std::to_string(b.cb));
    plans.push_back(std::move(*p));
  }
  const i64 s2 = now_ns();
  rep.setup_s = static_cast<double>(s2 - s0) * 1e-9;
  if (hal::native_search_stats().searches != cold_searches)
    std::fprintf(stderr, "perfbench: note: planning re-ran the blocking "
                         "search, so core.plan_s includes search time\n");
  if (opt.setup_only) return rep;

  // ---- correctness, outside every timed region: each layer against the
  // int32 reference, the kernel that ran, and the emulated ARM plan's
  // output and modeled time for the same weights (the second clock).
  std::vector<Tensor<i32>> verified(static_cast<size_t>(n));
  parallel_for(n, [&](int l) {
    const size_t i = static_cast<size_t>(l);
    verified[i] = ref::conv2d_s32(layers[i], inputs[i], weights[i]);
  });
  Workspace ws;
  double packed_bytes = 0, computed_bytes = 0, macs = 0;
  for (int l = 0; l < n; ++l) {
    const size_t i = static_cast<size_t>(l);
    packed_bytes += static_cast<double>(plans[i].packed_weight_bytes());
    computed_bytes += computed_conv_bytes(layers[i], bits,
                                          plans[i].packed_weight_bytes());
    macs += static_cast<double>(layers[i].macs());
    StatusOr<core::ArmLayerResult> r =
        core::execute_arm_conv(plans[i], inputs[i], ws);
    if (!r.ok() || r->executed_algo != expected_kernel(bits) ||
        !same_bytes(r->out, verified[i]))
      rep.fail(0, layers[i].name + ": native output or kernel (" +
                      (r.ok() ? r->executed_algo : r.status().message()) +
                      ") differs from ref::conv2d_s32 / " +
                      expected_kernel(bits));
  }
  double modeled_s = 0, emu_ns = 0;
  for (int l = 0; l < n; ++l) {
    const size_t i = static_cast<size_t>(l);
    StatusOr<core::ConvPlan> p =
        core::plan_arm_conv(layers[i], weights[i], bits);
    const i64 e0 = now_ns();
    StatusOr<core::ArmLayerResult> r =
        p.ok() ? core::execute_arm_conv(*p, inputs[i], ws)
               : StatusOr<core::ArmLayerResult>(p.status());
    emu_ns += static_cast<double>(now_ns() - e0);
    if (!r.ok() || !same_bytes(r->out, verified[i])) {
      rep.fail(0, layers[i].name + ": emulated ARM output differs");
      continue;
    }
    modeled_s += r->seconds;
  }
  const double modeled_cycles =
      modeled_s * armsim::CostModel::cortex_a53().freq_hz;
  // The checked pass is one more inference.
  ++rep.attempted;
  if (!rep.correct) {
    ++rep.failed;
    return rep;
  }

  // ---- timed passes. The per-layer run times an untraced half and a
  // traced half so the tracing overhead is measured, not assumed.
  Tracer off(false);
  const double untraced_s = tr.on() ? opt.seconds / 2 : opt.seconds;
  const PassTimes base =
      run_passes(plans, inputs, verified, bits, untraced_s, 0, off, rep);
  const Latency lat = summarize(base.pass_ns);
  if (!tr.on()) {
    rep.add("latency_ms_p50", lat.p50 * 1e-6, "ms");
    rep.add("latency_ms_tail", lat.tail * 1e-6, "ms");
    log_tail(lat, "passes");
    rep.add("modeled_ms", modeled_s * 1e3, "a53_ms");
    rep.add("goodput_rps",
            static_cast<double>(base.pass_ns.size()) / base.wall_s, "1/s");
    rep.add("ok_frac", 1.0 - rep.fail_frac(), "fraction");
    return rep;
  }

  const PassTimes traced = run_passes(
      plans, inputs, verified, bits, opt.seconds - untraced_s,
      static_cast<i64>(base.pass_ns.size()), tr, rep);
  const Latency tlat = summarize(traced.pass_ns);

  // Per-layer numbers from the traced half's spans: a kernel span's parent
  // is its execute span, whose parent is the pass.
  std::vector<std::vector<double>> layer_kernel_ns(static_cast<size_t>(n));
  std::vector<double> dispatch_ns, kernel_per_pass, share_per_pass;
  {
    std::map<i64, double> exec_ns, pass_kernel_ns;
    for (const Span& e : tr.named("core.execute_arm_conv"))
      exec_ns[e.id] = e.dur_ns();
    for (const Span& k : tr.named("hal.kernel")) {
      layer_kernel_ns[static_cast<size_t>(k.layer)].push_back(k.dur_ns());
      dispatch_ns.push_back(exec_ns[k.parent] - k.dur_ns());
      pass_kernel_ns[k.req] += k.dur_ns();
    }
    for (const Span& p : tr.named("pass")) {
      kernel_per_pass.push_back(pass_kernel_ns[p.req]);
      share_per_pass.push_back(pass_kernel_ns[p.req] / p.dur_ns());
    }
  }
  const double kernel_ns = median(kernel_per_pass);
  rep.add("latency_tail_pct", lat.tail_pct, "pct");
  rep.add("latency_samples", static_cast<double>(lat.n), "count");
  rep.add("trace.overhead_pct", 100.0 * (tlat.p50 - lat.p50) / lat.p50, "pct");
  rep.add("fail_frac", rep.fail_frac(), "fraction");
  rep.add("hal.kernel_ms", kernel_ns * 1e-6, "ms");
  rep.add("hal.kernel_share", median(share_per_pass), "fraction");
  rep.add("hal.gops", 2.0 * macs / kernel_ns, "GOP/s");
  for (int l = 0; l < n; ++l)
    rep.add("hal.layer." + layers[static_cast<size_t>(l)].name + "_us",
            median(layer_kernel_ns[static_cast<size_t>(l)]) * 1e-3, "us");
  rep.add("hal.computed_mb", computed_bytes / 1e6, "MB");
  rep.add("hal.packed_weight_mb", packed_bytes / 1e6, "MB");
  rep.add("hal.search_s", static_cast<double>(s1 - s0) * 1e-9, "s");
  rep.add("core.plan_s", static_cast<double>(s2 - s1) * 1e-9, "s");
  rep.add("core.dispatch_us", median(dispatch_ns) * 1e-3, "us");
  rep.add("armsim.host_ns_per_cycle", emu_ns / modeled_cycles, "ns/cycle");
  return rep;
}

}  // namespace perfbench
