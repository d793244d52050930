// ModelServer: the overload-hardened front end of the serving tier. One
// server owns a memory-budgeted ModelRegistry (all models compile into one
// shared PlanCache), and per model a micro-batching BatchScheduler plus a
// CircuitBreaker.
//
// The submit path per request:
//
//   breaker.admit() ──kAllow──> scheduler (WFQ admission, micro-batching)
//                 └──kProbe──> scheduler, marked probe; its outcome drives
//                              half-open recovery (a probe the scheduler
//                              sheds releases the probe slot instead)
//                 └──kReject─> BreakerMode::kFastFail: kUnavailable now,
//                              counted shed (breaker_open);
//                              BreakerMode::kReferenceFallback: execute on
//                              the pool via the reference kernel rung
//                              against the registry-pinned weights —
//                              degraded but correct service
//
// Breakers learn exclusively from requests that reached the model: the
// scheduler's on_complete hook maps each response Status to a breaker
// outcome (OK -> success, kDeadlineExceeded -> deadline miss, execution
// errors -> failure) and ignores admission-control statuses (kOverloaded /
// kShuttingDown / kUnavailable never touched the model). Fallback
// executions do not feed the breaker either — recovery is earned by probes
// through the primary path only.
//
// Liveness contract (the soak harness gates on this): every submission
// either returns an error Status from submit() (kNotFound, kOverloaded,
// kUnavailable, kFailedPrecondition) or yields a future that IS resolved —
// by the scheduler (which asserts admitted == resolved at shutdown) or by
// the fallback task (shutdown() waits for in-flight fallbacks).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "serve/circuit_breaker.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"

namespace lbc::serve {

struct ModelOptions {
  /// Scheduler knobs, including the model's bits/impl/algo/conv_threads
  /// (the registry spec is derived from these).
  SchedulerOptions sched;
  BreakerOptions breaker;
  BreakerMode breaker_mode = BreakerMode::kFastFail;
};

/// Options for a whole-net graph model (served through a compiled
/// core::GraphPlan instead of a per-layer BatchScheduler).
struct GraphModelOptions {
  /// Compile options for the registry's cached plan (fusion, algo, threads).
  core::GraphPlanOptions plan;
  BreakerOptions breaker;
  /// kReferenceFallback serves tripped-breaker requests through a pinned
  /// UNFUSED plan (FusionMode::kOff) — degraded but bit-exact service, the
  /// graph twin of the conv reference rung.
  BreakerMode breaker_mode = BreakerMode::kFastFail;
  /// Concurrent graph executions; arrivals past the cap shed kOverloaded
  /// (the graph path's admission bound — there is no coalescing queue).
  int max_inflight = 4;
};

/// Response to a whole-net submission (submit_graph). The output is the
/// dequantized final activation of the graph.
struct GraphInferResponse {
  Status status;
  Tensor<float> output;      ///< set iff status.ok()
  double model_seconds = 0;  ///< modeled device time of the forward pass
  double latency_s = 0;      ///< admission -> response completion
  int batch_size = 0;        ///< 1 on success (no graph-level coalescing)
  int fused_convs = 0;       ///< convs that ran the fused epilogue path
  int tenant = 0;
  Priority priority = Priority::kStandard;
  bool probe = false;
};

struct ServerOptions {
  RegistryOptions registry;
  /// Pool for batch execution and fallback serving; defaults to
  /// ThreadPool::global().
  ThreadPool* pool = nullptr;
};

/// One model's health as seen by an operator: which backend it serves on,
/// where its breaker stands (and when it last moved), and the scheduler's
/// full metrics snapshot. Produced by ModelServer::health_snapshot().
struct ModelHealth {
  std::string name;
  core::Backend backend = core::Backend::kArmCortexA53;
  BreakerState breaker_state = BreakerState::kClosed;
  i64 breaker_trips = 0;
  /// Last breaker state change; default (epoch) = never transitioned.
  Clock::time_point last_transition{};
  MetricsSnapshot metrics;
};

class ModelServer {
 public:
  explicit ModelServer(const ServerOptions& opt = ServerOptions{});
  ~ModelServer();  ///< runs shutdown()

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Register a model and spin up its scheduler + breaker. Errors:
  /// kInvalidArgument (bad spec/options or duplicate name),
  /// kFailedPrecondition after shutdown().
  Status add_model(const std::string& name, const ConvShape& shape,
                   Tensor<i8> weight,
                   const ModelOptions& opt = ModelOptions{});

  /// Route one request through the model's breaker and scheduler (or the
  /// fallback path). Errors: kNotFound (unknown model), kUnavailable
  /// (breaker open, fast-fail mode — also when a half-open probe is forced
  /// down by the serve.probe_fail fault), kOverloaded (scheduler admission),
  /// kFailedPrecondition (after shutdown), kInvalidArgument (bad input).
  StatusOr<std::future<InferResponse>> submit(
      const std::string& name, Tensor<i8> input,
      const SubmitOptions& sub = SubmitOptions{});

  /// Register a whole-net graph model: the registry caches its compiled
  /// GraphPlan (keyed by graph hash, charged against the plan budget) and
  /// the server fronts it with a breaker + in-flight cap. The plan compiles
  /// eagerly here so registration surfaces compile errors. Errors:
  /// kInvalidArgument (bad spec, duplicate name), the compile error, or
  /// kFailedPrecondition after shutdown().
  Status add_graph_model(const std::string& name,
                         std::shared_ptr<const core::QnnGraph> graph,
                         const GraphModelOptions& opt = GraphModelOptions{});

  /// Route one whole-net request through the model's breaker and in-flight
  /// cap, then execute the fused GraphPlan on the pool. Same overload
  /// contract as submit(): kNotFound (unknown model), kUnavailable
  /// (breaker open, fast-fail mode), kOverloaded (in-flight cap),
  /// kFailedPrecondition (after shutdown). Every returned future IS
  /// resolved.
  StatusOr<std::future<GraphInferResponse>> submit_graph(
      const std::string& name, Tensor<float> input,
      const SubmitOptions& sub = SubmitOptions{});

  /// Stop all schedulers (draining per their shutdown_policy) and wait for
  /// in-flight fallback and graph executions. Idempotent.
  void shutdown();

  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }
  std::vector<std::string> model_names() const;
  std::vector<std::string> graph_model_names() const;

  /// Per-model components, for tests and the bench report. nullptr when the
  /// name is unknown. Pointers stay valid until the server is destroyed
  /// (models cannot be removed while serving). breaker() resolves conv AND
  /// graph models; scheduler() is conv-only, graph_metrics() graph-only.
  CircuitBreaker* breaker(const std::string& name);
  BatchScheduler* scheduler(const std::string& name);
  ServeMetrics* graph_metrics(const std::string& name);

  /// Health of every served model, sorted by name: breaker state +
  /// last-transition tick and the scheduler's metrics snapshot. Safe to call
  /// concurrently with serving (each component snapshots under its own
  /// lock); usable after shutdown() for a final report.
  std::vector<ModelHealth> health_snapshot() const;

 private:
  struct Model {
    std::string name;
    const ModelSpec* spec = nullptr;  ///< registry-pinned (weights for
                                      ///< fallback + recompiles)
    std::unique_ptr<CircuitBreaker> breaker;
    std::unique_ptr<BatchScheduler> sched;
    BreakerMode mode = BreakerMode::kFastFail;
  };

  struct GraphModel {
    std::string name;
    std::unique_ptr<CircuitBreaker> breaker;
    ServeMetrics metrics;
    BreakerMode mode = BreakerMode::kFastFail;
    int max_inflight = 4;
    /// Admission bound of the graph path. Guarded by the owning server's
    /// mu_ (a nested struct cannot name the outer member in GUARDED_BY).
    i64 inflight = 0;
    /// Pinned unfused plan for kReferenceFallback mode (compiled at add
    /// time, never evicted — the degraded path must not depend on the
    /// budgeted cache).
    std::shared_ptr<const core::GraphPlan> fallback_plan;
  };

  Model* find_model(const std::string& name) LBC_REQUIRES(mu_);
  GraphModel* find_graph_model(const std::string& name) LBC_REQUIRES(mu_);
  /// Execute the graph on the pool: the registry's cached plan (primary
  /// path, feeds the breaker) or the pinned unfused plan (`fallback`,
  /// which does not). sub.probe is already stamped by the caller.
  std::future<GraphInferResponse> run_graph(GraphModel& m,
                                            Tensor<float> input,
                                            SubmitOptions sub, bool fallback);
  /// Degraded service for a tripped kReferenceFallback model: execute the
  /// reference rung on the pool against the pinned weights.
  StatusOr<std::future<InferResponse>> submit_fallback(Model& m,
                                                       Tensor<i8> input,
                                                       const SubmitOptions& sub);
  /// on_complete hook body: map the response Status to a breaker outcome.
  static void feed_breaker(CircuitBreaker& breaker, const InferResponse& resp);

  ServerOptions opt_;
  ThreadPool* pool_;
  ModelRegistry registry_;

  /// Guards models_, graph_models_, stopping_, and GraphModel::inflight.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Model>> models_ LBC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<GraphModel>> graph_models_
      LBC_GUARDED_BY(mu_);
  bool stopping_ LBC_GUARDED_BY(mu_) = false;

  Mutex fallback_mu_;
  CondVar fallback_cv_;
  /// Counts breaker fallbacks AND graph executions.
  i64 fallback_inflight_ LBC_GUARDED_BY(fallback_mu_) = 0;
};

}  // namespace lbc::serve
