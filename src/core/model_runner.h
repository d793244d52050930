// Whole-model conv-stack runner: executes every layer of a network table
// on synthetic quantized tensors, functionally verifying each against the
// int32 reference and accumulating modeled time. Used by examples and the
// end-to-end tests.
//
// Degradation policy: run_model() validates its options up front and
// returns kInvalidArgument for nonsense (bits outside [2, 8], bad thread
// count, unsupported backend/bits pairing). Per-layer failures — an
// invalid shape in the table, an injected allocation failure — do NOT
// abort the run: the layer is recorded with its error string and the
// remaining layers still execute, so one bad table row costs one row.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/engine.h"

namespace lbc::core {

struct LayerRun {
  std::string name;
  double seconds = 0;
  /// Measured wall-clock nanoseconds of the conv (Backend::kNativeHost
  /// only; 0 on the modeled backends, whose `seconds` is the cost model).
  double measured_ns = 0;
  bool verified = false;  ///< bit-exact vs reference conv (if checked)
  std::string requested_impl;  ///< impl the caller asked for
  std::string executed_algo;   ///< kernel rung that actually ran (ARM)
  FallbackRecord fallback;     ///< set when the layer degraded
  std::string error;           ///< non-empty if this layer failed to run
};

struct ModelRunReport {
  std::vector<LayerRun> layers;
  double total_seconds = 0;
  /// Sum of LayerRun::measured_ns — the wall-clock story of a native-host
  /// run (0 on modeled backends).
  double total_measured_ns = 0;
  i64 total_macs = 0;
  int fallback_layers = 0;  ///< layers that ran, but on a degraded kernel
  int error_layers = 0;     ///< layers that could not run at all
};

struct ModelRunOptions {
  int bits = 8;
  Backend backend = Backend::kArmCortexA53;
  ArmImpl arm_impl = ArmImpl::kOurs;
  GpuImpl gpu_impl = GpuImpl::kOurs;
  armkern::ConvAlgo arm_algo = armkern::ConvAlgo::kGemm;
  int threads = 1;      ///< ARM row-panel workers (Pi 3B has 4 cores)
  int batch = 1;        ///< micro-batch: every layer runs with this batch
  bool verify = false;  ///< run the reference conv per layer (slow)
  u64 seed = 1;
};

/// Run every layer with fresh synthetic data in the adjusted bit range.
/// kInvalidArgument on bad options; per-layer failures are recorded in the
/// report (error_layers / LayerRun::error) without aborting the run.
StatusOr<ModelRunReport> run_model(std::span<const ConvShape> layers,
                                   const ModelRunOptions& opt);

}  // namespace lbc::core
