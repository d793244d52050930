// Symbolic kernel prover (check/kernel_prover.h) tests.
//
// Three layers:
//  * Shipping proofs — every (scheme, bits) combination the kernels
//    actually ship proves clean at realistic reduction depths, and the
//    prove_all_schemes() CI sweep over the scheme x bits x blocking grid
//    reports zero failures.
//  * ProverMutation.* — the acceptance mutations: a shrunk declared flush
//    interval, a widened declared operand range, and the maddubs -128
//    inclusion, each failing with the EXACT obligation named in the
//    kInvariantViolation status. These carry the `check` ctest label along
//    with the rest of the file (tests/CMakeLists.txt).
//  * Plan-time gates — prove_arm_kernel / prove_native_scheme accept the
//    shipping configurations and reject models whose declared facts break
//    an obligation (absurd reduction depth).
#include <gtest/gtest.h>

#include <string>

#include "armkern/gemm_lowbit.h"
#include "armkern/schemes.h"
#include "check/kernel_prover.h"
#include "hal/native_gemm.h"

namespace lbc {
namespace {

using check::Obligation;
using check::ProofResult;
using check::ProofScheme;
using check::SchemeModel;

bool has_failed(const ProofResult& r, const std::string& name) {
  for (const Obligation& o : r.obligations)
    if (o.name == name && !o.proved) return true;
  return false;
}

bool has_proved(const ProofResult& r, const std::string& name) {
  for (const Obligation& o : r.obligations)
    if (o.name == name && o.proved) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Shipping proofs
// ---------------------------------------------------------------------------

TEST(Prover, ShippingSmlalProvesForBits4To8) {
  for (int bits = 4; bits <= 8; ++bits) {
    const ProofResult r =
        check::prove(check::shipping_model(ProofScheme::kArmSmlal, bits, 4608));
    EXPECT_TRUE(r.proved()) << "bits=" << bits << ": "
                            << r.to_status().message();
    EXPECT_TRUE(r.to_status().ok());
  }
}

TEST(Prover, ShippingMlaProvesForBits2To3) {
  for (int bits = 2; bits <= 3; ++bits) {
    const ProofResult r =
        check::prove(check::shipping_model(ProofScheme::kArmMla, bits, 4608));
    EXPECT_TRUE(r.proved()) << "bits=" << bits << ": "
                            << r.to_status().message();
  }
}

TEST(Prover, ShippingNativeSchemesProve) {
  for (int bits = 2; bits <= 8; ++bits) {
    const ProofScheme vec =
        hal::native_scheme_for(bits) == hal::NativeScheme::kLut
            ? ProofScheme::kNativeLut
            : ProofScheme::kNativeDot;
    const ProofResult r = check::prove(check::shipping_model(vec, bits, 8192));
    EXPECT_TRUE(r.proved()) << "bits=" << bits << ": "
                            << r.to_status().message();
  }
}

TEST(Prover, LutPadZeroObligationCheckedAgainstRealTable) {
  // The LUT scheme ships with pad_zero_tail: the obligation must be present
  // AND discharged against the shipping native_product_lut table.
  const ProofResult r =
      check::prove(check::shipping_model(ProofScheme::kNativeLut, 3, 576));
  EXPECT_TRUE(has_proved(r, "lut.pad-zero-entry"));
}

TEST(Prover, DotProvesTheQuadKernel) {
  // The DOT model reduces over the quad-padded depth (147 -> 148) and
  // checks the pad bytes of the shipping packers, not a hard-coded fact.
  const SchemeModel m = check::shipping_model(ProofScheme::kNativeDot, 8, 147);
  EXPECT_EQ(m.depth, 148);
  EXPECT_EQ(m.dot_pack_b, &hal::native_pack_b);
  const ProofResult r = check::prove(m);
  EXPECT_TRUE(r.proved()) << r.to_status().message();
  EXPECT_TRUE(has_proved(r, "dot.zero-pad-neutral"));
}

TEST(Prover, Lut2ProvesThePairClassKernel) {
  // 2 bit proves what the pair-class kernel runs: the shared table
  // argument against the compiled i8 cadence, the pad entry on the real
  // tables, and depth headroom over the pair-padded K (147 -> 148).
  const SchemeModel m = check::shipping_model(ProofScheme::kNativeLut, 2, 147);
  EXPECT_TRUE(m.tbl_pair);
  EXPECT_EQ(m.depth, 148);
  EXPECT_EQ(m.acc8_flush, hal::kLutPairFlushInterval);
  const ProofResult r = check::prove(m);
  EXPECT_TRUE(r.proved()) << r.to_status().message();
  for (const char* name :
       {"lut.entry-fits-i8", "lut.index-in-table", "lut.i8-lane-headroom",
        "lut.flush-covers-kernel", "lut.table-entries-exact",
        "lut.pad-neutral-entry", "lut.i32-depth-headroom"})
    EXPECT_TRUE(has_proved(r, name)) << name;
  // The 3-4 bit kernel's i16 obligations do not describe this kernel.
  EXPECT_FALSE(has_proved(r, "lut.i16-lane-headroom"));
  EXPECT_FALSE(has_proved(r, "lut.pad-zero-entry"));
}

TEST(Prover, EmptyProofIsNotProved) {
  ProofResult r;
  EXPECT_FALSE(r.proved());
  EXPECT_EQ(r.to_status().code(), StatusCode::kInvariantViolation);
}

// ---------------------------------------------------------------------------
// CI sweep
// ---------------------------------------------------------------------------

TEST(ProverSweep, AllShippingSchemesProveClean) {
  const check::ProofSweepReport rep = check::prove_all_schemes();
  EXPECT_TRUE(rep.ok()) << rep.failure_summary();
  EXPECT_EQ(rep.failures, 0);
  // The expected size is derived from the registered scheme x bits x shape
  // grid (proof_sweep_expected_entries), not hardcoded — registering a new
  // scheme cannot silently shrink the sweep.
  EXPECT_EQ(static_cast<int>(rep.entries.size()),
            check::proof_sweep_expected_entries());
  EXPECT_GT(rep.obligations, 0);
}

TEST(ProverSweep, ConfigStringsRecordBlocking) {
  const check::ProofSweepReport rep = check::prove_all_schemes();
  bool saw_arm_blocking = false, saw_native_blocking = false;
  for (const check::ProofSweepEntry& e : rep.entries) {
    if (e.config.find("mc=") != std::string::npos) saw_arm_blocking = true;
    if (e.config.find("rb=") != std::string::npos) saw_native_blocking = true;
  }
  EXPECT_TRUE(saw_arm_blocking);
  EXPECT_TRUE(saw_native_blocking);
}

// ---------------------------------------------------------------------------
// Acceptance mutations: each corrupted declaration fails at the EXACT
// obligation the module documents for it.
// ---------------------------------------------------------------------------

TEST(ProverMutation, ShrunkSmlalFlushFailsFlushCoversUnroll) {
  // Declare a flush interval SMALLER than the kernel's real unroll: the
  // headroom bound would no longer describe the kernel.
  SchemeModel m = check::shipping_model(ProofScheme::kArmSmlal, 4, 576);
  ASSERT_GT(m.acc16_flush, 1);
  m.acc16_flush = armkern::smlal_flush_interval(4) - 1;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "smlal.flush-covers-unroll"));
  const Status s = r.to_status();
  EXPECT_EQ(s.code(), StatusCode::kInvariantViolation);
  EXPECT_NE(s.message().find("smlal.flush-covers-unroll"), std::string::npos)
      << s.message();
}

TEST(ProverMutation, WidenedSmlalRangeFailsI16Headroom) {
  // Widen the declared operand range past the adjusted qmax: at the
  // shipping flush interval the 16-bit lanes could wrap.
  SchemeModel m = check::shipping_model(ProofScheme::kArmSmlal, 8, 4608);
  m.a_max_abs = 200;  // 2 * 200 * 200 = 80000 > 32767
  m.b_max_abs = 200;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "smlal.i16-lane-headroom"));
  EXPECT_TRUE(has_failed(r, "smlal.operand-range-adjusted"));
  EXPECT_NE(r.to_status().message().find("smlal.i16-lane-headroom"),
            std::string::npos);
}

TEST(ProverMutation, MaddubsMinus128FailsPairSumNoSaturate) {
  // Re-admit -128 (the full int8 range): 2 * 128 * 128 = 32768 saturates
  // the maddubs i16 pair sum — the exact reason the adjusted range exists.
  SchemeModel m = check::shipping_model(ProofScheme::kNativeDot, 8, 4608);
  m.a_max_abs = 128;
  m.b_max_abs = 128;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "dot.pair-sum-no-saturate"));
  const Status s = r.to_status();
  EXPECT_EQ(s.code(), StatusCode::kInvariantViolation);
  EXPECT_NE(s.message().find("dot.pair-sum-no-saturate"), std::string::npos)
      << s.message();
}

TEST(ProverMutation, WidenedMlaFirstLevelFlushFailsI8Headroom) {
  // Declare MORE accumulation steps per 8-bit flush than the lane can hold.
  SchemeModel m = check::shipping_model(ProofScheme::kArmMla, 2, 576);
  m.acc8_flush = 200;  // 200 * 1 * 1 = 200 > 127
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "mla.i8-lane-headroom"));
}

TEST(ProverMutation, ShrunkMlaRoundsFailsRoundsCoverKernel) {
  SchemeModel m = check::shipping_model(ProofScheme::kArmMla, 3, 576);
  m.second_level_rounds = armkern::kSecondLevelRounds - 1;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "mla.rounds-cover-kernel"));
}

TEST(ProverMutation, OversizedLutProductFailsEntryFitsI8) {
  // A product that cannot fit a signed-byte pshufb entry.
  SchemeModel m = check::shipping_model(ProofScheme::kNativeLut, 4, 576);
  m.a_max_abs = 12;  // 12 * 7 = 84 fits, but index 12 + 7 > 15 — and widen w
  m.b_max_abs = 12;  // 12 * 12 = 144 > 127
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "lut.entry-fits-i8"));
}

TEST(ProverMutation, Lut2WidenedCadenceFailsI8LaneHeadroom) {
  // One step more per widen than the byte lane holds: 64 * 2 = 128 > 127.
  SchemeModel m = check::shipping_model(ProofScheme::kNativeLut, 2, 576);
  m.acc8_flush = static_cast<int>(hal::kLutPairFlushInterval) + 1;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "lut.i8-lane-headroom");
}

TEST(ProverMutation, Lut2ShrunkFlushFailsFlushCoversKernel) {
  // Declared cadence below the kernel's compiled one: the headroom bound
  // would describe a kernel that widens more often than the real one.
  SchemeModel m = check::shipping_model(ProofScheme::kNativeLut, 2, 576);
  m.acc8_flush = static_cast<int>(hal::kLutPairFlushInterval) - 1;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "lut.flush-covers-kernel");
}

void corrupted_pair_build(int bits, bool ternary_pairs, i8 b0, i8 b1,
                          i8 out[16]) {
  tbl_build_table(bits, ternary_pairs, b0, b1, out);
  out[tbl_pair_index(1, -1)] = static_cast<i8>(out[tbl_pair_index(1, -1)] + 1);
}

TEST(ProverMutation, Lut2CorruptTableEntryFailsTableEntriesExact) {
  SchemeModel m = check::shipping_model(ProofScheme::kNativeLut, 2, 576);
  m.tbl_build = &corrupted_pair_build;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "lut.table-entries-exact");
}

void corrupted_dot_pack_b(const i8* b, i64 k, i64 n, int bits, i8* dst) {
  hal::native_pack_b(b, k, n, bits, dst);
  // The last byte of the layout: the last panel's last column at the last
  // quad's last depth — a pad byte whenever N % 8 or K % 4 is nonzero, as
  // in the prover's ragged probe.
  dst[round_up(n, hal::kDotPanelCols) * round_up(k, hal::kDotDepthQuad) - 1] =
      1;
}

TEST(ProverMutation, DotCorruptPadByteFailsZeroPadNeutral) {
  SchemeModel m = check::shipping_model(ProofScheme::kNativeDot, 8, 576);
  m.dot_pack_b = &corrupted_dot_pack_b;
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "dot.zero-pad-neutral");
  EXPECT_NE(r.first_failed()->statement.find("B pad byte"), std::string::npos)
      << r.first_failed()->statement;
}

TEST(ProverMutation, AbsurdDepthFailsI32Headroom) {
  SchemeModel m = check::shipping_model(ProofScheme::kArmSdot, 8, i64{1} << 40);
  const ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  EXPECT_TRUE(has_failed(r, "sdot.i32-depth-headroom"));
}

// ---------------------------------------------------------------------------
// Plan-time gates
// ---------------------------------------------------------------------------

TEST(ProverPlanGate, ShippingArmKernelsPass) {
  for (int bits = 2; bits <= 8; ++bits) {
    EXPECT_TRUE(
        check::prove_arm_kernel(armkern::ArmKernel::kOursGemm, bits, 4608)
            .ok());
    EXPECT_TRUE(
        check::prove_arm_kernel(armkern::ArmKernel::kSdotExt, bits, 4608)
            .ok());
  }
}

TEST(ProverPlanGate, ShippingNativeSchemesPass) {
  for (int bits = 2; bits <= 8; ++bits)
    EXPECT_TRUE(check::prove_native_scheme(bits, 8192).ok());
}

TEST(ProverPlanGate, AbsurdDepthRejectsWithNamedObligation) {
  const Status s =
      check::prove_arm_kernel(armkern::ArmKernel::kOursGemm, 8, i64{1} << 40);
  EXPECT_EQ(s.code(), StatusCode::kInvariantViolation);
  EXPECT_NE(s.message().find("i32-depth-headroom"), std::string::npos)
      << s.message();
}

}  // namespace
}  // namespace lbc
