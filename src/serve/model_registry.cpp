#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

namespace lbc::serve {

namespace {

/// Fold the compile options into a nonzero graph hash: two models over the
/// same fused chain share a compiled plan only when they would compile the
/// SAME plan (fusion mode, algo, threads all agree).
u64 graph_plan_key(u64 graph_hash, const core::GraphPlanOptions& o) {
  u64 h = graph_hash;
  const auto step = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV-1a prime, matching GraphPlan::graph_hash
  };
  step(static_cast<u64>(o.fusion));
  step(static_cast<u64>(o.algo));
  step(static_cast<u64>(o.threads));
  return h;
}

}  // namespace

ModelRegistry::ModelRegistry(const RegistryOptions& opt) : opt_(opt) {
  if (opt_.plan_budget_bytes < 0) opt_.plan_budget_bytes = 0;
}

Status ModelRegistry::register_model(const std::string& name, ModelSpec spec) {
  LBC_VALIDATE(!name.empty(), kInvalidArgument,
               "model name must be non-empty");
  LBC_VALIDATE(spec.shape.valid(), kInvalidArgument,
               "model '" << name
                         << "' has an invalid conv shape: "
                         << describe(spec.shape));
  LBC_VALIDATE(spec.shape.batch == 1, kInvalidArgument,
               "model '" << name << "' must have a batch-1 layer shape, got "
                         << spec.shape.batch);
  LBC_VALIDATE(spec.bits >= 2 && spec.bits <= 8, kInvalidArgument,
               "model '" << name << "' bits must be in [2, 8], got "
                         << spec.bits);
  const Shape4 want_w{spec.shape.out_c, spec.shape.in_c, spec.shape.kernel,
                      spec.shape.kernel};
  LBC_VALIDATE(spec.weight.shape() == want_w, kInvalidArgument,
               "model '" << name << "' weight tensor does not match its "
                         << "layer shape " << describe(spec.shape));
  LBC_VALIDATE(spec.threads >= 1 && spec.threads <= 64, kInvalidArgument,
               "model '" << name << "' threads must be in [1, 64], got "
                         << spec.threads);

  MutexLock lock(mu_);
  LBC_VALIDATE(models_.find(name) == models_.end(), kInvalidArgument,
               "model '" << name << "' is already registered");
  auto entry = std::make_unique<Entry>();
  entry->spec = std::move(spec);
  entry->order = next_order_++;
  models_.emplace(name, std::move(entry));
  return Status();
}

Status ModelRegistry::unregister_model(const std::string& name) {
  MutexLock lock(mu_);
  auto it = models_.find(name);
  LBC_VALIDATE(it != models_.end(), kNotFound,
               "model '" << name << "' is not registered");
  const ModelSpec& s = it->second->spec;
  cache_.evict(s.shape, s.weight, s.bits, s.impl, s.algo, s.threads,
               s.backend);
  models_.erase(it);
  return Status();
}

StatusOr<std::shared_ptr<const core::ConvPlan>> ModelRegistry::acquire_plan(
    const std::string& name) {
  Entry* entry = nullptr;
  {
    MutexLock lock(mu_);
    auto it = models_.find(name);
    LBC_VALIDATE(it != models_.end(), kNotFound,
                 "model '" << name << "' is not registered");
    entry = it->second.get();
  }
  // Compile (or hit) outside mu_ — a slow compile of one model must not
  // block lookups of another. `entry` stays valid: unregister_model is the
  // only eraser and callers must not race it with acquires of the same name.
  const ModelSpec& s = entry->spec;
  LBC_ASSIGN_OR_RETURN(
      std::shared_ptr<const core::ConvPlan> plan,
      cache_.get_or_compile(s.shape, s.weight, s.bits, s.impl, s.algo,
                            s.threads, s.backend));
  MutexLock lock(mu_);
  entry->last_used = ++tick_;
  ++acquires_;
  enforce_budget_locked(entry, nullptr);
  return plan;
}

Status ModelRegistry::register_graph_model(const std::string& name,
                                           GraphModelSpec spec) {
  LBC_VALIDATE(!name.empty(), kInvalidArgument,
               "graph model name must be non-empty");
  LBC_VALIDATE(spec.graph != nullptr, kInvalidArgument,
               "graph model '" << name << "' has a null graph");
  LBC_VALIDATE(spec.graph->node_count() > 0, kInvalidArgument,
               "graph model '" << name << "' has an empty graph");
  LBC_VALIDATE(spec.graph->calibrated(), kInvalidArgument,
               "graph model '" << name
                               << "' must be calibrated before registration");
  LBC_VALIDATE(spec.options.threads >= 1 && spec.options.threads <= 64,
               kInvalidArgument, "graph model '"
                                     << name << "' threads must be in "
                                     << "[1, 64], got "
                                     << spec.options.threads);

  MutexLock lock(mu_);
  LBC_VALIDATE(graph_models_.find(name) == graph_models_.end(),
               kInvalidArgument,
               "graph model '" << name << "' is already registered");
  auto entry = std::make_unique<GraphEntry>();
  entry->spec = std::move(spec);
  entry->order = next_order_++;
  graph_models_.emplace(name, std::move(entry));
  return Status();
}

Status ModelRegistry::unregister_graph_model(const std::string& name) {
  MutexLock lock(mu_);
  auto it = graph_models_.find(name);
  LBC_VALIDATE(it != graph_models_.end(), kNotFound,
               "graph model '" << name << "' is not registered");
  if (it->second->plan_key != 0 &&
      graph_plans_.erase(it->second->plan_key) > 0)
    ++graph_evictions_;
  graph_models_.erase(it);
  return Status();
}

StatusOr<std::shared_ptr<const core::GraphPlan>>
ModelRegistry::acquire_graph_plan(const std::string& name) {
  GraphEntry* entry = nullptr;
  {
    MutexLock lock(mu_);
    auto it = graph_models_.find(name);
    LBC_VALIDATE(it != graph_models_.end(), kNotFound,
                 "graph model '" << name << "' is not registered");
    entry = it->second.get();
    if (entry->plan_key != 0) {
      auto hit = graph_plans_.find(entry->plan_key);
      if (hit != graph_plans_.end()) {
        entry->last_used = ++tick_;
        ++graph_acquires_;
        enforce_budget_locked(nullptr, entry);
        return hit->second;
      }
    }
  }
  // Compile outside mu_ — the whole-net compile (tile search + weight
  // prepack across every layer) is the slowest thing the registry does and
  // must not block lookups. Same validity contract as acquire_plan: callers
  // must not race unregister_graph_model of the same name.
  const GraphModelSpec& s = entry->spec;
  LBC_ASSIGN_OR_RETURN(core::GraphPlan compiled,
                       core::GraphPlan::compile(*s.graph, s.options));
  auto plan = std::make_shared<const core::GraphPlan>(std::move(compiled));

  MutexLock lock(mu_);
  u64 key = plan->graph_hash() != 0
                ? graph_plan_key(plan->graph_hash(), s.options)
                : 0x9e3779b97f4a7c15ull + entry->order;  // no fused chain:
                                                         // never shared
  entry->plan_key = key;
  auto [it, inserted] = graph_plans_.try_emplace(key, plan);
  if (!inserted) plan = it->second;  // lost a compile race / shared hash:
                                     // serve the resident plan
  entry->last_used = ++tick_;
  ++graph_acquires_;
  enforce_budget_locked(nullptr, entry);
  return plan;
}

void ModelRegistry::enforce_budget_locked(const Entry* keep,
                                          const GraphEntry* keep_graph) {
  if (opt_.plan_budget_bytes <= 0) return;
  while (cache_.resident_packed_bytes() + resident_graph_bytes_locked() >
         opt_.plan_budget_bytes) {
    // Least-recently-used model — conv or graph — other than the keeps,
    // whose plan is still resident. Never-acquired entries (last_used == 0)
    // evict first.
    Entry* victim = nullptr;
    GraphEntry* graph_victim = nullptr;
    for (auto& [vname, ventry] : models_) {
      if (ventry.get() == keep) continue;
      const ModelSpec& vs = ventry->spec;
      if (!cache_.resident(vs.shape, vs.weight, vs.bits, vs.impl, vs.algo,
                           vs.threads, vs.backend))
        continue;
      if (victim == nullptr || ventry->last_used < victim->last_used)
        victim = ventry.get();
    }
    for (auto& [vname, ventry] : graph_models_) {
      if (ventry.get() == keep_graph) continue;
      if (ventry->plan_key == 0 ||
          graph_plans_.find(ventry->plan_key) == graph_plans_.end())
        continue;
      if (graph_victim == nullptr ||
          ventry->last_used < graph_victim->last_used)
        graph_victim = ventry.get();
    }
    // Nothing evictable: only the keeps' plans remain — a single
    // over-budget plan is allowed to stand.
    if (victim == nullptr && graph_victim == nullptr) return;
    const bool evict_graph =
        victim == nullptr ||
        (graph_victim != nullptr && graph_victim->last_used < victim->last_used);
    if (evict_graph) {
      graph_plans_.erase(graph_victim->plan_key);
      ++graph_evictions_;
    } else {
      const ModelSpec& vs = victim->spec;
      cache_.evict(vs.shape, vs.weight, vs.bits, vs.impl, vs.algo, vs.threads,
                   vs.backend);
    }
  }
}

i64 ModelRegistry::resident_graph_bytes_locked() const {
  i64 bytes = 0;
  for (const auto& [key, plan] : graph_plans_)
    bytes += plan->packed_weight_bytes();
  return bytes;
}

StatusOr<const ModelSpec*> ModelRegistry::find(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = models_.find(name);
  LBC_VALIDATE(it != models_.end(), kNotFound,
               "model '" << name << "' is not registered");
  const ModelSpec* spec = &it->second->spec;
  return spec;
}

bool ModelRegistry::contains(const std::string& name) const {
  MutexLock lock(mu_);
  return models_.find(name) != models_.end();
}

std::vector<std::string> ModelRegistry::model_names() const {
  MutexLock lock(mu_);
  std::vector<std::pair<u64, std::string>> ordered;
  ordered.reserve(models_.size());
  for (const auto& [name, entry] : models_)
    ordered.emplace_back(entry->order, name);
  std::sort(ordered.begin(), ordered.end());
  std::vector<std::string> names;
  names.reserve(ordered.size());
  for (auto& [order, name] : ordered) names.push_back(std::move(name));
  return names;
}

bool ModelRegistry::plan_resident(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) return false;
  const ModelSpec& s = it->second->spec;
  return cache_.resident(s.shape, s.weight, s.bits, s.impl, s.algo, s.threads,
                         s.backend);
}

StatusOr<const GraphModelSpec*> ModelRegistry::find_graph(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = graph_models_.find(name);
  LBC_VALIDATE(it != graph_models_.end(), kNotFound,
               "graph model '" << name << "' is not registered");
  const GraphModelSpec* spec = &it->second->spec;
  return spec;
}

bool ModelRegistry::contains_graph(const std::string& name) const {
  MutexLock lock(mu_);
  return graph_models_.find(name) != graph_models_.end();
}

std::vector<std::string> ModelRegistry::graph_model_names() const {
  MutexLock lock(mu_);
  std::vector<std::pair<u64, std::string>> ordered;
  ordered.reserve(graph_models_.size());
  for (const auto& [name, entry] : graph_models_)
    ordered.emplace_back(entry->order, name);
  std::sort(ordered.begin(), ordered.end());
  std::vector<std::string> names;
  names.reserve(ordered.size());
  for (auto& [order, name] : ordered) names.push_back(std::move(name));
  return names;
}

bool ModelRegistry::graph_plan_resident(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = graph_models_.find(name);
  if (it == graph_models_.end()) return false;
  return it->second->plan_key != 0 &&
         graph_plans_.find(it->second->plan_key) != graph_plans_.end();
}

RegistryStats ModelRegistry::stats() const {
  MutexLock lock(mu_);
  RegistryStats s;
  s.models = static_cast<int>(models_.size());
  s.graph_models = static_cast<int>(graph_models_.size());
  s.acquires = acquires_;
  s.graph_acquires = graph_acquires_;
  s.plan_evictions = cache_.evictions();
  s.graph_evictions = graph_evictions_;
  s.resident_plan_bytes = cache_.resident_packed_bytes();
  s.resident_graph_bytes = resident_graph_bytes_locked();
  s.budget_bytes = opt_.plan_budget_bytes;
  return s;
}

}  // namespace lbc::serve
