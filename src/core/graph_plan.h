// Whole-net graph compiler: compile a calibrated QnnGraph once, execute it
// many times against a caller-owned arena.
//
// The per-layer runtime (qnn_graph.cpp's original forward) planned and
// executed each conv in isolation: every layer materialized an i32
// accumulator tensor, requantized it in a separate pass, and handed the
// next layer a fresh int8 tensor. GraphPlan replaces that loop with a
// compiled program over the whole net:
//
//  * Fused epilogues — conv+ReLU+requant, and conv+residual-add, fold into
//    the blocked ARM GEMM's C writeback through armkern::TileEpilogue (the
//    ARM twin of gpukern/fusion's in-register epilogue, Sec. 4.3/4.4): the
//    requantized int8 activation is produced while the accumulator rows
//    are cache-resident, and the intermediate i32 tensor round trip is
//    elided. A residual add fuses into its LATER conv operand (the other
//    operand's activation is already resident in the arena), and the conv
//    writes the add node's slot directly. Bit-exact vs the unfused path:
//    both run the same fixed-point requant multipliers in the same order.
//  * Per-layer blocking — every conv keeps the memoized
//    armkern::search_blocking winner for its shape ("determined once per
//    convolution shape", Sec. 5.1); the fused epilogue reuses it as is.
//  * One arena — every activation slot gets a liveness-assigned offset in
//    a single lbc::Workspace (first-fit over [def, last-use] intervals);
//    per-node conv scratch is taken above a Workspace mark and released by
//    rewind, so activations chain between layers with no Tensor copies.
//
// Non-fuseable rungs (winograd, bitserial, direct, reference, unblocked
// GEMM) still execute through the per-layer driver; their separate requant
// pass is charged an analytic epilogue cost so fused-vs-unfused modeled
// seconds compare the real difference (the elided i32 round trip), not a
// bookkeeping artifact.
#pragma once

#include <memory>
#include <vector>

#include "armkern/conv_arm.h"
#include "common/workspace.h"
#include "core/qnn_graph.h"
#include "gpukern/tuning_cache.h"

namespace lbc::core {

/// Epilogue fusion switch: kOn folds conv+ReLU+requant (and eligible
/// residual adds) into the blocked GEMM's writeback; kOff runs every node
/// through the per-layer path (same arithmetic, same results — the modeled
/// time is what changes).
enum class FusionMode { kOn, kOff };

struct GraphPlanOptions {
  FusionMode fusion = FusionMode::kOn;
  armkern::ConvAlgo algo = armkern::ConvAlgo::kAuto;
  int threads = 1;
  /// Opt-in post-compile audit (check::audit_plan): re-checks slot
  /// liveness disjointness, fused-epilogue containment, packed-weight
  /// accounting, and blocking clamp bounds over the compiled plan;
  /// compile fails with kInvariantViolation naming the invariant.
  bool audit = false;

  // No-ops, kept only because perfbench/graph.cpp still reads them; the
  // next benchmark revision removes them.
  bool joint_search = false;
  gpukern::TuningCache* tuning = nullptr;
};

class GraphPlan {
 public:
  /// Compile the whole graph: resolve every conv's plan (prepacked
  /// weights, per-layer blocking), pair fusable epilogues, and
  /// lay out the activation arena by liveness. The graph must be
  /// calibrated. The plan snapshots the graph — later push()/calibrate()
  /// calls on `g` do not affect a compiled plan.
  static StatusOr<GraphPlan> compile(const QnnGraph& g,
                                     const GraphPlanOptions& opt = {});

  /// Integer-only forward pass. `arena` holds the liveness-planned
  /// activation slots plus fused-conv scratch (reset on entry); `scratch`
  /// serves the unfused per-layer executes (which reset it per node). Both
  /// grow to steady-state capacity on the first call. Errors:
  /// kInvalidArgument when `x` does not match the input node's shape.
  StatusOr<QnnGraph::RunResult> forward(const Tensor<float>& x,
                                        Workspace& arena,
                                        Workspace& scratch) const;

  i64 node_count() const { return static_cast<i64>(nodes_.size()); }
  /// Liveness-planned bytes of the activation slot region (the arena's
  /// base allocation; scratch grows above it per node).
  i64 activation_bytes() const { return activation_bytes_; }
  /// Total arena reservation: activation slots + the peak per-node fused
  /// scratch (accumulator block + pack buffers).
  i64 arena_reserve_bytes() const { return arena_reserve_bytes_; }
  /// Stable FNV-1a hash over the fused conv chain's (geometry, bits,
  /// scheme) sequence (0 when the chain is empty) — the serve registry
  /// key: graphs of the same topology and bits share one compiled plan.
  u64 graph_hash() const { return graph_hash_; }
  int conv_nodes() const { return conv_nodes_; }
  /// Sum of the conv plans' prepacked weight bytes — what a memory budget
  /// (serve::ModelRegistry) charges for a resident graph plan.
  i64 packed_weight_bytes() const { return packed_weight_bytes_; }
  /// Convs executing through the fused TileEpilogue writeback.
  int fused_convs() const { return fused_convs_; }
  /// Residual adds folded into a producer conv's epilogue.
  int fused_adds() const { return fused_adds_; }
  /// Node `i`'s compiled conv plan when it executes through the fused
  /// epilogue, else nullptr (also for `i` outside [0, node_count())).
  const armkern::ArmConvPlan* fused_conv(i64 i) const {
    if (i < 0 || i >= node_count()) return nullptr;
    const NodePlan& n = nodes_[static_cast<size_t>(i)];
    return n.fused ? n.conv.get() : nullptr;
  }
  // No-ops, kept only because perfbench/graph.cpp still reads them; the
  // next benchmark revision removes them.
  double joint_cycles() const { return 0; }
  double greedy_cycles() const { return 0; }

 private:
  enum class NodeKind { kInput, kConv, kAdd, kMaxPool2, kGlobalAvgPool };

  struct NodePlan {
    NodeKind kind = NodeKind::kInput;
    int src0 = -1, src1 = -1;
    Shape4 out_shape;
    int bits = 8;
    int act_bits = 8;
    bool relu = false;
    quant::QScheme scheme;

    // conv only
    std::shared_ptr<const armkern::ArmConvPlan> conv;
    std::vector<i32> bias_q;
    quant::RequantParams rq{};
    bool fused = false;   ///< executes via execute_conv_fused
    int fused_add = -1;   ///< add node folded into this conv's epilogue
    i64 gemm_m = 0, gemm_n = 0;

    // add only
    quant::FixedPointMultiplier ma{}, mb{};
    quant::ClampRange clamp{};
    int fused_into = -1;  ///< conv node that writes this add's slot

    // global avgpool only
    quant::FixedPointMultiplier gap_m{};

    // liveness-assigned arena slot (conv with fused_add >= 0 writes the
    // add node's slot instead and has none of its own)
    i64 out_offset = -1;
    i64 out_bytes = 0;
  };

  GraphPlan() = default;

  std::vector<NodePlan> nodes_;
  i64 activation_bytes_ = 0;
  i64 arena_reserve_bytes_ = 0;
  u64 graph_hash_ = 0;
  i64 packed_weight_bytes_ = 0;
  int conv_nodes_ = 0;
  int fused_convs_ = 0;
  int fused_adds_ = 0;
};

}  // namespace lbc::core
