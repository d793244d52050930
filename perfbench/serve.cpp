// serve-native: a ModelServer with two native-backend models of the
// ResNet-50 conv11 layer (3x3, 256 -> 256 channels at 14x14), one at 2 bit
// and one at 8 bit, default micro-batching, on a dedicated 4-thread pool.
//
// The load is open loop: one generator thread sends Poisson arrivals at a
// fixed absolute rate, whatever the server does, so a faster kernel shows up
// as lower latency rather than as more offered load. Two tenants share it:
// interactive and standard priority, each with a deadline. Every request is
// timed from the moment it was due, so a generator stall is charged to the
// requests it delays, and the generator's own lateness is reported.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "armsim/cost_model.h"
#include "bench.h"
#include "common/rng.h"
#include "core/conv_plan.h"
#include "hal/native_gemm.h"
#include "nets/nets.h"
#include "refconv/conv_ref.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace lbc;

// Offered load, fixed in absolute terms (not calibrated to the machine).
// It keeps the 4-thread pool a tenth to a fifth busy on a 4-core AVX2 host
// (serve.pool_busy_frac reports how busy it really was), so that few
// requests queue and the tail follows the service time. At half busy about
// one request in six queued and rode a larger micro-batch, the tail sat in
// that queueing region, and it swung by 38% between runs as the host's
// speed drifted; at two-thirds one other busy core saturated the pool.
constexpr double kRateRps = 120;
constexpr int kInputsPerModel = 4;
// A request that answers later than this, measured from when it was due,
// counts as failed, and so does one the scheduler drops at its deadline.
// Both sit ten times above the worst latency a healthy run sees (about
// 50 ms with another busy core on the host), so a request fails only when
// the server stalls or sheds, not when the host has a slow second: a limit
// of 100 ms failed 0 to 7 requests of the same ten runs, by chance.
constexpr double kLatencyLimitS = 1.0;
constexpr double kInteractiveDeadlineS = 1.0;
constexpr double kStandardDeadlineS = 2.0;

struct ServedModel {
  std::string name;
  int bits = 0;
  Tensor<i8> weight;
  std::vector<Tensor<i8>> inputs;     ///< the fixed input pool
  std::vector<Tensor<i32>> expected;  ///< ref::conv2d_s32 per pool input
};

struct Arrival {
  double due_s = 0;  ///< offset from the schedule start
  int model = 0;
  int input = 0;
  bool interactive = false;
};

/// Poisson arrivals at kRateRps over [0, seconds): exponential gaps. One in
/// three requests goes to the 2-bit model and two to the 8-bit one. The two
/// models' latencies form two modes, and a few requests that arrive together
/// share a micro-batch and form a third, slower one; a percentile in the gap
/// between two modes moves by milliseconds when the mix shifts by 1%. With
/// this split the median lies inside the 8-bit mode (a faster dot kernel
/// moves it) and the tail inside the 2-bit mode (a faster LUT kernel moves
/// it). The opposite split put the tail at the edge of the shared-batch
/// mode, where it moved by 40% between runs. Pool input and tenant are
/// picked uniformly.
std::vector<Arrival> make_schedule(Rng& rng, double seconds) {
  std::vector<Arrival> out;
  const auto unit = [&rng] {
    return (static_cast<double>(rng.next_u64() >> 11) + 0.5) * 0x1.0p-53;
  };
  for (double t = -std::log(unit()) / kRateRps; t < seconds;
       t += -std::log(unit()) / kRateRps) {
    const u64 r = rng.next_u64();
    out.push_back(Arrival{t, r % 3 == 0 ? 0 : 1,
                          static_cast<int>((r >> 4) % kInputsPerModel),
                          ((r >> 8) & 1) != 0});
  }
  return out;
}

struct Outcome {
  bool ok = false;       ///< answered OK with the expected output
  bool expired = false;  ///< kDeadlineExceeded
  bool shed = false;     ///< refused at submit or answered kOverloaded/...
  double latency_s = 0;  ///< from due time to completion (ok only)
  double kernel_s = 0;   ///< measured kernel time of the batch it rode in
  int batch = 0;
};

struct LoadResult {
  std::vector<Outcome> outcomes;
  double gen_lag_max_s = 0;
  i64 backlog_end = 0;
  bool mismatch = false;
};

struct Pending {
  std::future<serve::InferResponse> fut;
  size_t index = 0;
  i64 due_ns = 0;
  i64 sub_ns = 0;
};

/// Drive one open-loop schedule through the server. The calling thread is
/// the generator; a collector thread answers futures as they resolve and
/// checks each output against its pool input's reference.
LoadResult run_load(serve::ModelServer& server,
                    const std::vector<ServedModel>& models,
                    const std::vector<Arrival>& schedule,
                    const std::atomic<i64>& resolved, i64 first_req,
                    Tracer& tr) {
  LoadResult res;
  res.outcomes.resize(schedule.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      const serve::InferResponse r = p.fut.get();
      const Arrival& a = schedule[p.index];
      const ServedModel& m = models[static_cast<size_t>(a.model)];
      Outcome& o = res.outcomes[p.index];
      if (!r.status.ok()) {
        o.expired = r.status.code() == StatusCode::kDeadlineExceeded;
        o.shed = !o.expired;
        continue;
      }
      const Tensor<i32>& want = m.expected[static_cast<size_t>(a.input)];
      if (r.executed_algo != expected_kernel(m.bits) ||
          !same_bytes(r.output, want)) {
        std::fprintf(stderr,
                     "perfbench: FAIL: %s request %zu ran %s or returned a "
                     "wrong output\n",
                     m.name.c_str(), p.index, r.executed_algo.c_str());
        res.mismatch = true;
        continue;
      }
      o.ok = true;
      o.latency_s = static_cast<double>(p.sub_ns - p.due_ns) * 1e-9 +
                    r.latency_s;
      o.kernel_s = r.model_seconds;
      o.batch = r.batch_size;
      if (tr.on()) {
        const i64 req = first_req + static_cast<i64>(p.index);
        const i64 done_ns =
            p.sub_ns + static_cast<i64>(r.latency_s * 1e9);
        const i64 formed_ns =
            p.sub_ns + static_cast<i64>(r.queue_wait_s * 1e9);
        const i64 root =
            tr.record("serve.request", 0, req, a.model, p.due_ns, done_ns,
                      "\"tenant\": \"" +
                          std::string(a.interactive ? "interactive"
                                                    : "standard") +
                          "\", \"batch\": " + std::to_string(r.batch_size));
        tr.record("serve.queue_wait", root, req, a.model, p.sub_ns,
                  formed_ns);
        const i64 exec =
            tr.record("serve.execute", root, req, a.model, formed_ns, done_ns);
        tr.record("hal.kernel", exec, req, a.model,
                  done_ns - static_cast<i64>(r.model_seconds * 1e9), done_ns);
      }
    }
  });

  i64 submitted = 0;
  const i64 resolved_before = resolved.load();
  const i64 t0 = now_ns() + 5'000'000;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const ServedModel& m = models[static_cast<size_t>(a.model)];
    const i64 due = t0 + static_cast<i64>(a.due_s * 1e9);
    const i64 wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    const i64 sub = now_ns();
    res.gen_lag_max_s =
        std::max(res.gen_lag_max_s, static_cast<double>(sub - due) * 1e-9);
    serve::SubmitOptions so;
    so.tenant = a.interactive ? 1 : 2;
    so.priority = a.interactive ? serve::Priority::kInteractive
                                : serve::Priority::kStandard;
    const double deadline_s =
        a.interactive ? kInteractiveDeadlineS : kStandardDeadlineS;
    so.deadline = Clock::now() + std::chrono::nanoseconds(
                                     due + static_cast<i64>(deadline_s * 1e9) -
                                     sub);
    StatusOr<std::future<serve::InferResponse>> f = server.submit(
        m.name, m.inputs[static_cast<size_t>(a.input)], so);
    tr.record("serve.submit", 0, first_req + static_cast<i64>(i), a.model,
              sub, now_ns());
    if (!f.ok()) {
      res.outcomes[i].shed = true;
      continue;
    }
    ++submitted;
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(Pending{std::move(*f), i, due, sub});
    cv.notify_one();
  }
  res.backlog_end = submitted - (resolved.load() - resolved_before);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  return res;
}

struct LoadSummary {
  Latency lat;
  i64 attempted = 0, good = 0, shed = 0, expired = 0;
};

LoadSummary summarize_load(const LoadResult& r) {
  LoadSummary s;
  std::vector<double> lat;
  for (const Outcome& o : r.outcomes) {
    ++s.attempted;
    if (o.ok) lat.push_back(o.latency_s);
    if (o.ok && o.latency_s <= kLatencyLimitS) ++s.good;
    s.shed += o.shed;
    s.expired += o.expired;
  }
  s.lat = summarize(lat);
  return s;
}

}  // namespace

Report run_serve(const Options& opt, Tracer& tr) {
  Report rep;
  ConvShape layer;
  for (const ConvShape& s : nets::resnet50_layers())
    if (s.name == "conv11") layer = s;
  std::vector<ServedModel> models;
  for (int bits : {2, 8}) {
    ServedModel m;
    m.name = layer.name + "-w" + std::to_string(bits);
    m.bits = bits;
    const u64 seed = opt.seed * 1000 + static_cast<u64>(bits) * 10;
    m.weight = random_qtensor(
        Shape4{layer.out_c, layer.in_c, layer.kernel, layer.kernel}, bits,
        seed);
    for (int i = 0; i < kInputsPerModel; ++i)
      m.inputs.push_back(random_qtensor(
          Shape4{1, layer.in_c, layer.in_h, layer.in_w}, bits,
          seed + 1 + static_cast<u64>(i)));
    models.push_back(std::move(m));
  }

  // ---- set-up: the measured-ns blocking search, then model registration
  // (plan + pack against the memoized search, scheduler start).
  serve::ThreadPool pool(kServePoolThreads);
  std::atomic<i64> resolved{0};
  const i64 s0 = now_ns();
  for (const ServedModel& m : models) {
    const i64 t0 = now_ns();
    const hal::NativeBlocking b = hal::search_native_blocking(
        layer.gemm_m(), layer.gemm_n(), layer.gemm_k(), m.bits);
    tr.record("hal.search_native_blocking", 0, -1, m.bits, t0, now_ns(),
              "\"rb\": " + std::to_string(b.rb) +
                  ", \"cb\": " + std::to_string(b.cb));
  }
  const i64 s1 = now_ns();
  serve::ServerOptions sopt;
  sopt.pool = &pool;
  serve::ModelServer server(sopt);
  for (const ServedModel& m : models) {
    serve::ModelOptions mo;
    mo.sched.bits = m.bits;
    mo.sched.backend = core::Backend::kNativeHost;
    mo.sched.on_complete = [&resolved](const serve::InferResponse&) {
      ++resolved;
    };
    const i64 t0 = now_ns();
    const Status st = server.add_model(m.name, layer, m.weight, mo);
    tr.record("serve.add_model", 0, -1, m.bits, t0, now_ns());
    if (!st.ok()) {
      rep.fail(1, "add_model " + m.name + ": " + st.message());
      return rep;
    }
  }
  const i64 s2 = now_ns();
  rep.setup_s = static_cast<double>(s2 - s0) * 1e-9;
  if (opt.setup_only) return rep;

  // ---- references and the modeled A53 time of one request per model,
  // outside every timed region.
  for (ServedModel& m : models) m.expected.resize(kInputsPerModel);
  parallel_for(2 * kInputsPerModel, [&](int j) {
    ServedModel& m = models[static_cast<size_t>(j / kInputsPerModel)];
    m.expected[static_cast<size_t>(j % kInputsPerModel)] = ref::conv2d_s32(
        layer, m.inputs[static_cast<size_t>(j % kInputsPerModel)], m.weight);
  });
  double modeled_s = 0, packed_bytes = 0, computed_bytes = 0, emu_ns = 0;
  Workspace ws;
  for (const ServedModel& m : models) {
    StatusOr<core::ConvPlan> p = core::plan_arm_conv(layer, m.weight, m.bits);
    const i64 e0 = now_ns();
    StatusOr<core::ArmLayerResult> r =
        p.ok() ? core::execute_arm_conv(*p, m.inputs[0], ws)
               : StatusOr<core::ArmLayerResult>(p.status());
    emu_ns += static_cast<double>(now_ns() - e0);
    if (!r.ok() || !same_bytes(r->out, m.expected[0])) {
      rep.fail(1, m.name + ": emulated ARM output differs from the reference");
      return rep;
    }
    modeled_s += r->seconds / static_cast<double>(models.size());
    const i64 pb = server.scheduler(m.name)->plan()->packed_weight_bytes();
    packed_bytes += static_cast<double>(pb);
    computed_bytes += computed_conv_bytes(layer, m.bits, pb) /
                      static_cast<double>(models.size());
  }

  // Warm-up, untimed: a burst of full batches on every worker, so each
  // worker's scratch and the allocator reach their steady size before the
  // load starts (a cost a long-running server pays once).
  {
    std::vector<std::future<serve::InferResponse>> warm;
    const int burst =
        4 * kServePoolThreads * serve::SchedulerOptions{}.max_batch;
    for (int k = 0; k < burst; ++k) {
      const ServedModel& m = models[static_cast<size_t>(k % 2)];
      StatusOr<std::future<serve::InferResponse>> f =
          server.submit(m.name, m.inputs[0]);
      if (f.ok()) warm.push_back(std::move(*f));
    }
    for (std::future<serve::InferResponse>& f : warm) f.get();
    for (const ServedModel& m : models)
      server.scheduler(m.name)->metrics().reset();
  }

  Rng rng(opt.seed);
  Tracer off(false);
  const double untraced_s = tr.on() ? opt.seconds / 2 : opt.seconds;
  const std::vector<Arrival> sched0 = make_schedule(rng, untraced_s);
  const LoadResult base = run_load(server, models, sched0, resolved, 0, off);
  const LoadSummary b = summarize_load(base);
  rep.attempted += b.attempted;
  rep.failed += b.attempted - b.good;
  if (base.mismatch) rep.fail(0, "serve-native output mismatch");

  if (!tr.on()) {
    server.shutdown();
    rep.add("latency_ms_p50", b.lat.p50 * 1e3, "ms");
    rep.add("latency_ms_tail", b.lat.tail * 1e3, "ms");
    log_tail(b.lat, "requests");
    rep.add("modeled_ms", modeled_s * 1e3, "a53_ms");
    rep.add("goodput_rps", static_cast<double>(b.good) / untraced_s, "1/s");
    rep.add("ok_frac", 1.0 - rep.fail_frac(), "fraction");
    return rep;
  }

  for (const ServedModel& m : models)
    server.scheduler(m.name)->metrics().reset();
  const double traced_s = opt.seconds - untraced_s;
  const std::vector<Arrival> sched1 = make_schedule(rng, traced_s);
  const LoadResult traced = run_load(server, models, sched1, resolved,
                                     static_cast<i64>(sched0.size()), tr);
  const LoadSummary t = summarize_load(traced);
  rep.attempted += t.attempted;
  rep.failed += t.attempted - t.good;
  if (traced.mismatch) rep.fail(0, "serve-native output mismatch");
  server.shutdown();

  i64 batches = 0, planned = 0, batched_requests = 0;
  for (const ServedModel& m : models) {
    const serve::MetricsSnapshot snap =
        server.scheduler(m.name)->metrics().snapshot();
    batches += snap.batches;
    planned += snap.planned_batches;
    for (size_t k = 0; k < snap.batch_hist.size(); ++k)
      batched_requests += static_cast<i64>(k + 1) * snap.batch_hist[k];
  }
  std::vector<double> wait_ns = tr.durations("serve.queue_wait");
  std::vector<double> exec_ns = tr.durations("serve.execute");
  std::vector<double> kernel_ns = tr.durations("hal.kernel");
  std::vector<double> share, gops;
  double busy_s = 0;
  for (const Outcome& o : traced.outcomes) {
    if (!o.ok) continue;
    share.push_back(o.kernel_s / o.latency_s);
    gops.push_back(2.0 * static_cast<double>(layer.macs()) * o.batch /
                   o.kernel_s * 1e-9);
    busy_s += o.kernel_s / o.batch;
  }
  const Latency wait = summarize(wait_ns);
  const double freq = armsim::CostModel::cortex_a53().freq_hz;
  rep.add("latency_tail_pct", b.lat.tail_pct, "pct");
  rep.add("latency_samples", static_cast<double>(b.lat.n), "count");
  rep.add("trace.overhead_pct", 100.0 * (t.lat.p50 - b.lat.p50) / b.lat.p50,
          "pct");
  rep.add("fail_frac", rep.fail_frac(), "fraction");
  rep.add("hal.kernel_ms", median(kernel_ns) * 1e-6, "ms");
  rep.add("hal.kernel_share", median(share), "fraction");
  rep.add("hal.gops", median(gops), "GOP/s");
  rep.add("hal.computed_mb", computed_bytes / 1e6, "MB");
  rep.add("hal.packed_weight_mb", packed_bytes / 1e6, "MB");
  rep.add("hal.search_s", static_cast<double>(s1 - s0) * 1e-9, "s");
  rep.add("core.plan_s", static_cast<double>(s2 - s1) * 1e-9, "s");
  rep.add("armsim.host_ns_per_cycle", emu_ns / (modeled_s * 2 * freq),
          "ns/cycle");
  rep.add("serve.queue_wait_ms_p50", wait.p50 * 1e-6, "ms");
  rep.add("serve.queue_wait_ms_tail", wait.tail * 1e-6, "ms");
  rep.add("serve.exec_ms_p50", median(exec_ns) * 1e-6, "ms");
  rep.add("serve.mean_batch",
          batches > 0 ? static_cast<double>(batched_requests) /
                            static_cast<double>(batches)
                      : 0.0,
          "count");
  rep.add("serve.plan_hit_rate",
          batches > 0 ? static_cast<double>(planned) /
                            static_cast<double>(batches)
                      : 0.0,
          "fraction");
  rep.add("serve.shed_frac",
          static_cast<double>(t.shed) / static_cast<double>(t.attempted),
          "fraction");
  rep.add("serve.expired_frac",
          static_cast<double>(t.expired) / static_cast<double>(t.attempted),
          "fraction");
  rep.add("serve.gen_lag_ms_max", traced.gen_lag_max_s * 1e3, "ms");
  rep.add("serve.backlog_end", static_cast<double>(traced.backlog_end),
          "count");
  rep.add("serve.pool_busy_frac", busy_s / (kServePoolThreads * traced_s),
          "fraction");
  return rep;
}

}  // namespace perfbench
