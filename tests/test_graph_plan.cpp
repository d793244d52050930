// Whole-net graph compiler tests: fused-vs-unfused bit-exactness, residual
// add fusion, per-layer blocking of fused convs, arena steady state, and
// the serve-tier graph-model surface (registry plan sharing + budget
// eviction, ModelServer submit_graph contract).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>

#include "armkern/tile_search.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"
#include "serve/server.h"

namespace lbc::core {
namespace {

/// Bottleneck graph (three convs + projection shortcut + residual add):
/// the smallest topology exercising every fusion rule at once.
QnnGraph bottleneck_graph(int bits, u64 seed = 42) {
  QnnGraph g;
  const auto in = g.add_input(8, 8);
  add_bottleneck_block(g, in, 8, 4, 16, 1, bits, seed);
  return g;
}

/// Residual chain where every add's LATER operand is the producing conv —
/// the shape the add-fusion rule targets (DenseNet-style running sum).
QnnGraph residual_chain_graph(int bits) {
  QnnGraph g;
  auto s = g.add_input(8, 8);
  for (int l = 0; l < 2; ++l) {
    const Tensor<float> w = random_ftensor(Shape4{8, 8, 3, 3}, -0.3f, 0.3f,
                                           100 + static_cast<u64>(l));
    const auto c = g.add_conv(s, 8, 3, 1, 1, bits, w, {}, /*relu=*/true);
    s = g.add_add(s, c);
  }
  return g;
}

Tensor<float> graph_input(u64 seed = 7) {
  return random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, seed);
}

GraphPlanOptions fused_options() {
  GraphPlanOptions o;
  o.fusion = FusionMode::kOn;
  o.algo = armkern::ConvAlgo::kGemm;
  return o;
}

GraphPlanOptions unfused_options() {
  GraphPlanOptions o;
  o.fusion = FusionMode::kOff;
  o.algo = armkern::ConvAlgo::kGemm;
  return o;
}

bool same_bits(const Tensor<float>& a, const Tensor<float>& b) {
  return a.elems() == b.elems() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elems()) * sizeof(float)) == 0;
}

TEST(GraphPlan, FusedMatchesUnfusedBitExact) {
  for (int bits : {2, 3, 4, 8}) {
    QnnGraph g = bottleneck_graph(bits);
    const Tensor<float> x = graph_input();
    ASSERT_TRUE(g.calibrate(x).ok());

    const GraphPlan fused = GraphPlan::compile(g, fused_options()).value();
    const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
    EXPECT_GT(fused.fused_convs(), 0) << bits << " bits";

    Workspace a1, s1, a2, s2;
    const auto rf = fused.forward(x, a1, s1).value();
    const auto ru = plain.forward(x, a2, s2).value();
    EXPECT_TRUE(same_bits(rf.out, ru.out))
        << bits << " bits: fused output differs from the per-layer path";
  }
}

TEST(GraphPlan, ResidualAddFusesIntoLaterConv) {
  QnnGraph g = residual_chain_graph(4);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());

  const GraphPlan fused = GraphPlan::compile(g, fused_options()).value();
  // Both adds have their conv as the later operand: both must fold into
  // the producing conv's epilogue (and the convs into the fused driver).
  EXPECT_EQ(fused.fused_adds(), 2);
  EXPECT_EQ(fused.fused_convs(), 2);

  const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
  EXPECT_EQ(plain.fused_adds(), 0);
  EXPECT_EQ(plain.fused_convs(), 0);

  Workspace a1, s1, a2, s2;
  const Tensor<float> x = graph_input();
  EXPECT_TRUE(same_bits(fused.forward(x, a1, s1).value().out,
                        plain.forward(x, a2, s2).value().out));
}

TEST(GraphPlan, FusionOffMatchesGraphForward) {
  // QnnGraph::forward executes through a cached fused plan; a kOff plan
  // must reproduce it bit for bit (same arithmetic, different schedule).
  QnnGraph g = bottleneck_graph(8);
  const Tensor<float> x = graph_input();
  ASSERT_TRUE(g.calibrate(x).ok());

  const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
  Workspace arena, scratch;
  const auto r = plain.forward(x, arena, scratch).value();
  const auto via_graph = g.forward(x, armkern::ConvAlgo::kGemm);
  EXPECT_TRUE(same_bits(r.out, via_graph.out));
  EXPECT_EQ(r.node_seconds.size(), via_graph.node_seconds.size());
}

TEST(GraphPlan, FusedConvsKeepPerLayerSearchWinner) {
  // Tiling is fixed once per convolution shape (Sec. 5.1): fusing a conv's
  // epilogue must not move its blocking off the per-layer search winner.
  for (int bits : {2, 3, 4, 8}) {
    QnnGraph g = bottleneck_graph(bits);
    ASSERT_TRUE(g.calibrate(graph_input()).ok());
    const GraphPlan plan = GraphPlan::compile(g, fused_options()).value();
    int checked = 0;
    for (i64 i = 0; i < plan.node_count(); ++i) {
      const armkern::ArmConvPlan* c = plan.fused_conv(i);
      if (c == nullptr) continue;
      ++checked;
      const armkern::GemmBlocking want =
          armkern::search_blocking(c->shape, bits, c->kernel);
      EXPECT_TRUE(c->blocking == want)
          << bits << " bits, node " << i << ": {" << c->blocking.mc << ", "
          << c->blocking.kc << ", " << c->blocking.nc << "} vs searched {"
          << want.mc << ", " << want.kc << ", " << want.nc << "}";
    }
    EXPECT_GT(checked, 0) << bits << " bits";
    EXPECT_EQ(checked, plan.fused_convs()) << bits << " bits";
  }
}

TEST(GraphPlan, ArenaReachesSteadyStateAfterFirstForward) {
  QnnGraph g = bottleneck_graph(4);
  const Tensor<float> x = graph_input();
  ASSERT_TRUE(g.calibrate(x).ok());

  const GraphPlan plan = GraphPlan::compile(g, fused_options()).value();
  EXPECT_GT(plan.activation_bytes(), 0);
  EXPECT_GE(plan.arena_reserve_bytes(), plan.activation_bytes());

  Workspace arena, scratch;
  const auto r1 = plan.forward(x, arena, scratch).value();
  const i64 grows_after_first = arena.grow_count() + scratch.grow_count();
  const auto r2 = plan.forward(x, arena, scratch).value();
  EXPECT_EQ(arena.grow_count() + scratch.grow_count(), grows_after_first)
      << "steady-state forward re-grew its arenas";
  EXPECT_TRUE(same_bits(r1.out, r2.out));
}

TEST(GraphPlan, GraphHashKeysTopologyAndBits) {
  QnnGraph a = bottleneck_graph(4), b = bottleneck_graph(4, /*seed=*/43);
  QnnGraph c = bottleneck_graph(8);
  const Tensor<float> x = graph_input();
  ASSERT_TRUE(a.calibrate(x).ok());
  ASSERT_TRUE(b.calibrate(x).ok());
  ASSERT_TRUE(c.calibrate(x).ok());
  const GraphPlan pa = GraphPlan::compile(a, fused_options()).value();
  const GraphPlan pb = GraphPlan::compile(b, fused_options()).value();
  const GraphPlan pc = GraphPlan::compile(c, fused_options()).value();
  ASSERT_NE(pa.graph_hash(), 0u);
  // Same topology + bits hash alike regardless of weights; a different
  // bit width is a different joint-search problem.
  EXPECT_EQ(pa.graph_hash(), pb.graph_hash());
  EXPECT_NE(pa.graph_hash(), pc.graph_hash());
}

TEST(GraphPlan, CompileValidatesGraphAndOptions) {
  QnnGraph empty;
  EXPECT_EQ(GraphPlan::compile(empty).status().code(),
            StatusCode::kInvalidArgument);

  QnnGraph uncal = bottleneck_graph(8);
  EXPECT_EQ(GraphPlan::compile(uncal).status().code(),
            StatusCode::kFailedPrecondition);

  QnnGraph g = bottleneck_graph(8);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());
  GraphPlanOptions bad = fused_options();
  bad.threads = 0;
  EXPECT_EQ(GraphPlan::compile(g, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphPlan, ForwardRejectsMismatchedInput) {
  QnnGraph g = bottleneck_graph(8);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());
  const GraphPlan plan = GraphPlan::compile(g, fused_options()).value();
  Workspace arena, scratch;
  const Tensor<float> wrong = random_ftensor(Shape4{1, 8, 6, 6}, -1, 1, 9);
  EXPECT_EQ(plan.forward(wrong, arena, scratch).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lbc::core

namespace lbc::serve {
namespace {

using core::FusionMode;
using core::GraphPlan;
using core::GraphPlanOptions;
using core::QnnGraph;

std::shared_ptr<const QnnGraph> make_graph(int bits, i64 channels = 8,
                                           u64 seed = 42) {
  auto g = std::make_shared<QnnGraph>();
  const auto in = g->add_input(channels, 8);
  core::add_bottleneck_block(*g, in, channels, 4, 16, 1, bits, seed);
  const Tensor<float> x =
      random_ftensor(Shape4{1, channels, 8, 8}, -1.0f, 1.0f, 7);
  EXPECT_TRUE(g->calibrate(x).ok());
  return g;
}

GraphModelSpec make_graph_spec(int bits, i64 channels = 8, u64 seed = 42) {
  GraphModelSpec spec;
  spec.graph = make_graph(bits, channels, seed);
  spec.options.algo = armkern::ConvAlgo::kGemm;
  return spec;
}

TEST(RegistryGraphModels, RegisterValidatesAndAcquireHits) {
  ModelRegistry reg;
  EXPECT_EQ(reg.register_graph_model("", make_graph_spec(4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.register_graph_model("g", GraphModelSpec{}).code(),
            StatusCode::kInvalidArgument);
  GraphModelSpec uncal;
  uncal.graph = std::make_shared<QnnGraph>();
  EXPECT_EQ(reg.register_graph_model("g", std::move(uncal)).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(reg.register_graph_model("g", make_graph_spec(4)).ok());
  EXPECT_EQ(reg.register_graph_model("g", make_graph_spec(4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.contains_graph("g"));
  EXPECT_FALSE(reg.contains("g")) << "graph models live in their own space";

  auto p1 = reg.acquire_graph_plan("g");
  ASSERT_TRUE(p1.ok()) << p1.status().to_string();
  EXPECT_GT(p1.value()->packed_weight_bytes(), 0);
  auto p2 = reg.acquire_graph_plan("g");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get()) << "second acquire must hit";
  EXPECT_TRUE(reg.graph_plan_resident("g"));

  const RegistryStats st = reg.stats();
  EXPECT_EQ(st.graph_models, 1);
  EXPECT_EQ(st.graph_acquires, 2);
  EXPECT_EQ(st.resident_graph_bytes, p1.value()->packed_weight_bytes());

  EXPECT_EQ(reg.acquire_graph_plan("ghost").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(reg.unregister_graph_model("g").ok());
  EXPECT_EQ(reg.stats().resident_graph_bytes, 0);
  EXPECT_EQ(reg.unregister_graph_model("g").code(), StatusCode::kNotFound);
}

TEST(RegistryGraphModels, SameGraphHashSharesOneCompiledPlan) {
  ModelRegistry reg;
  const auto graph = make_graph(4);
  GraphModelSpec s1, s2;
  s1.graph = graph;
  s2.graph = graph;
  s1.options.algo = s2.options.algo = armkern::ConvAlgo::kGemm;
  ASSERT_TRUE(reg.register_graph_model("a", s1).ok());
  ASSERT_TRUE(reg.register_graph_model("b", s2).ok());

  const auto pa = reg.acquire_graph_plan("a").value();
  const auto pb = reg.acquire_graph_plan("b").value();
  EXPECT_EQ(pa.get(), pb.get()) << "same hash + options must share the plan";
  EXPECT_EQ(reg.stats().resident_graph_bytes, pa->packed_weight_bytes())
      << "a shared plan is charged once";

  // Different compile options over the same graph may NOT share: the
  // unfused plan is a different program.
  GraphModelSpec s3;
  s3.graph = graph;
  s3.options.algo = armkern::ConvAlgo::kGemm;
  s3.options.fusion = FusionMode::kOff;
  ASSERT_TRUE(reg.register_graph_model("c", s3).ok());
  EXPECT_NE(reg.acquire_graph_plan("c").value().get(), pa.get());
}

TEST(RegistryGraphModels, BudgetEvictsAcrossConvAndGraphPlans) {
  // Measure footprints unbudgeted first.
  i64 graph_bytes = 0, conv_bytes = 0;
  {
    ModelRegistry probe;
    ASSERT_TRUE(probe.register_graph_model("g", make_graph_spec(4)).ok());
    graph_bytes = probe.acquire_graph_plan("g").value()->packed_weight_bytes();
    ModelSpec conv;
    conv.shape.name = "budget-conv";
    conv.shape.batch = 1;
    conv.shape.in_c = 8;
    conv.shape.in_h = 6;
    conv.shape.in_w = 6;
    conv.shape.out_c = 16;
    conv.shape.kernel = 3;
    conv.shape.stride = 1;
    conv.shape.pad = 1;
    conv.weight = random_qtensor(Shape4{16, 8, 3, 3}, 8, 5);
    ASSERT_TRUE(probe.register_model("c", conv).ok());
    conv_bytes = probe.acquire_plan("c").value()->packed_weight_bytes();
  }
  ASSERT_GT(graph_bytes, 0);
  ASSERT_GT(conv_bytes, 0);

  // Budget fits the larger plan alone: acquiring the second plan must
  // evict the first (LRU across BOTH kinds), and re-acquiring recompiles.
  RegistryOptions opt;
  opt.plan_budget_bytes = std::max(graph_bytes, conv_bytes);
  ModelRegistry reg(opt);
  ASSERT_TRUE(reg.register_graph_model("g", make_graph_spec(4)).ok());
  ModelSpec conv;
  conv.shape.name = "budget-conv";
  conv.shape.batch = 1;
  conv.shape.in_c = 8;
  conv.shape.in_h = 6;
  conv.shape.in_w = 6;
  conv.shape.out_c = 16;
  conv.shape.kernel = 3;
  conv.shape.stride = 1;
  conv.shape.pad = 1;
  conv.weight = random_qtensor(Shape4{16, 8, 3, 3}, 8, 5);
  ASSERT_TRUE(reg.register_model("c", conv).ok());

  ASSERT_TRUE(reg.acquire_graph_plan("g").ok());
  EXPECT_TRUE(reg.graph_plan_resident("g"));
  ASSERT_TRUE(reg.acquire_plan("c").ok());
  EXPECT_TRUE(reg.plan_resident("c"));
  EXPECT_FALSE(reg.graph_plan_resident("g"))
      << "older graph plan must yield to the budget";
  EXPECT_GE(reg.stats().graph_evictions, 1);

  // The evicted model recompiles on demand (weights stayed pinned).
  ASSERT_TRUE(reg.acquire_graph_plan("g").ok());
  EXPECT_TRUE(reg.graph_plan_resident("g"));
}

TEST(ServerGraphModels, SubmitGraphServesBitExact) {
  ModelServer server;
  const auto graph = make_graph(4);
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  ASSERT_TRUE(server.add_graph_model("net", graph, opt).ok());
  EXPECT_EQ(server.add_graph_model("net", graph, opt).code(),
            StatusCode::kInvalidArgument);

  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  auto fut = server.submit_graph("net", x);
  ASSERT_TRUE(fut.ok()) << fut.status().to_string();
  const GraphInferResponse resp = std::move(fut).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.batch_size, 1);
  EXPECT_GT(resp.model_seconds, 0);
  EXPECT_GT(resp.fused_convs, 0);

  // Bit-exact against a directly compiled plan over the same graph.
  GraphPlanOptions direct;
  direct.algo = armkern::ConvAlgo::kGemm;
  const GraphPlan plan = GraphPlan::compile(*graph, direct).value();
  Workspace arena, scratch;
  const auto want = plan.forward(x, arena, scratch).value();
  ASSERT_EQ(resp.output.elems(), want.out.elems());
  EXPECT_EQ(std::memcmp(resp.output.data(), want.out.data(),
                        static_cast<size_t>(want.out.elems()) * sizeof(float)),
            0);

  ASSERT_NE(server.graph_metrics("net"), nullptr);
  const MetricsSnapshot ms = server.graph_metrics("net")->snapshot();
  EXPECT_EQ(ms.completed, 1);
  const auto health = server.health_snapshot();
  bool found = false;
  for (const auto& h : health) found = found || h.name == "net";
  EXPECT_TRUE(found) << "graph model missing from the health snapshot";

  EXPECT_EQ(server.submit_graph("ghost", x).status().code(),
            StatusCode::kNotFound);
}

TEST(ServerGraphModels, OpenBreakerFastFailsAndShutdownRejects) {
  ModelServer server;
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  opt.breaker.consecutive_failures = 3;
  ASSERT_TRUE(server.add_graph_model("net", make_graph(4), opt).ok());

  CircuitBreaker* breaker = server.breaker("net");
  ASSERT_NE(breaker, nullptr) << "breaker() must resolve graph models";
  for (int i = 0; i < 3; ++i)
    breaker->record(CircuitBreaker::Outcome::kFailure);
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);

  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kUnavailable);
  EXPECT_GE(server.graph_metrics("net")->snapshot().unavailable, 1);

  server.shutdown();
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.add_graph_model("late", make_graph(4), opt).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lbc::serve
