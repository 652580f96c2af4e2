// The HW UFS governor must reproduce the hardware behaviours the paper
// documents (Tables I, IV, VI): conservative max for fast/bandwidth-heavy
// sockets, licence tracking for AVX512, deep drops for near-idle and
// wide-MPI-wait sockets, and strict obedience to the MSR 0x620 window.
#include "simhw/hw_ufs.hpp"

#include <gtest/gtest.h>

namespace ear::simhw {
namespace {

using common::Freq;

NodeConfig cfg() { return make_skylake_6148_node(); }

UfsInputs base_inputs() {
  return UfsInputs{.requested_core_freq = Freq::ghz(2.4),
                   .effective_core_freq = Freq::ghz(2.4),
                   .bw_utilisation = 0.05,
                   .relaxed_fraction = 0.0,
                   .active_cores = 40,
                   .epb = 6};
}

Freq target(const UfsInputs& in) {
  const NodeConfig c = cfg();
  return hw_ufs_steady_target(c, HwUfsParams{}, in);
}

TEST(HwUfs, IdleSocketDropsToMin) {
  UfsInputs in = base_inputs();
  in.active_cores = 0;
  EXPECT_EQ(target(in), Freq::ghz(1.2));
}

TEST(HwUfs, NominalRequestPinsMax) {
  // BT-MZ / BQCD at nominal: IMC stays at the limit regardless of the
  // modest memory traffic (Table I: the paper's motivating observation).
  EXPECT_EQ(target(base_inputs()), Freq::ghz(2.4));
}

TEST(HwUfs, HighBandwidthPinsMaxEvenAtLowCoreClock) {
  // HPCG under ME: CPU at ~1.8 GHz but IMC stays at 2.39 (Table VI).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(1.8);
  in.effective_core_freq = Freq::ghz(1.8);
  in.bw_utilisation = 0.77;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, Avx512ThrottleTracksDown) {
  // DGEMM: 100% AVX512 -> effective 2.2 GHz -> uncore ~2.0 (Table IV),
  // even though its bandwidth utilisation is substantial.
  UfsInputs in = base_inputs();
  in.effective_core_freq = Freq::ghz(2.2);
  in.bw_utilisation = 0.47;
  EXPECT_EQ(target(in), Freq::ghz(2.0));
}

TEST(HwUfs, ModerateVpiBlendStaysMaxAtNominal) {
  // GROMACS(I) at nominal: VPI-weighted effective clock ~2.33 >= 2.3.
  UfsInputs in = base_inputs();
  in.effective_core_freq = Freq::ghz(2.33);
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, ScalarReducedRequestKeepsMax) {
  // The paper's Table VI: POP/DUMSES/AFiD run the CPU at 2.1-2.2 GHz yet
  // the hardware keeps the uncore pinned near its maximum.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.1);
  in.effective_core_freq = Freq::ghz(2.1);
  in.bw_utilisation = 0.1;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, AvxReducedRequestTracks) {
  // GROMACS(I) under ME (request 2.3, VPI blend ~2.265): licence
  // throttling is active, so the uncore follows to ~2.0 (Table VI: 2.04).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.3);
  in.effective_core_freq = Freq::ghz(2.265);
  in.relaxed_fraction = 0.075;
  const Freq t = target(in);
  EXPECT_GE(t, Freq::ghz(1.9));
  EXPECT_LE(t, Freq::ghz(2.1));
}

TEST(HwUfs, WideMpiWaitDropsDeep) {
  // GROMACS(II) under ME: 16 nodes, heavy MPI waits -> IMC ~1.45.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.3);
  in.effective_core_freq = Freq::ghz(2.27);
  in.relaxed_fraction = 0.175;
  in.bw_utilisation = 0.058;
  const Freq t = target(in);
  EXPECT_GE(t, Freq::ghz(1.3));
  EXPECT_LE(t, Freq::ghz(1.6));
}

TEST(HwUfs, DenseSpinWaitDoesNotDrop) {
  // Dense busy-wait (no C-state entry) on a wide socket: stays max.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.2);
  in.effective_core_freq = Freq::ghz(2.2);
  in.relaxed_fraction = 0.0;
  in.bw_utilisation = 0.05;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, NearIdleBusyWaitDropsDeep) {
  // CUDA busy-wait with a lowered request (BT.CUDA under ME): ~1.5-1.6.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.2);
  in.effective_core_freq = Freq::ghz(2.2);
  in.active_cores = 1;
  in.bw_utilisation = 0.001;
  const Freq t = target(in);
  EXPECT_GE(t, Freq::ghz(1.4));
  EXPECT_LE(t, Freq::ghz(1.7));
}

TEST(HwUfs, CudaAtNominalKeepsMax) {
  // LU.CUDA with an untouched 2.6 GHz request: IMC stays 2.39 (Table IV).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.6);
  in.effective_core_freq = Freq::ghz(2.6);
  in.active_cores = 1;
  in.bw_utilisation = 0.001;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, PowersaveEpbShavesOneBin) {
  // EPB matters in the tracking regime (AVX-throttled here).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.4);
  in.effective_core_freq = Freq::ghz(2.2);
  in.bw_utilisation = 0.1;
  const Freq normal = target(in);
  in.epb = 10;
  EXPECT_EQ(target(in), Freq::khz(normal.as_khz() - 100'000));
}

TEST(HwUfsGovernor, RespectsMsrWindow) {
  const NodeConfig c = cfg();
  const HwUfsParams params;
  HwUfsGovernor gov(c, params, 1);
  // Pin the window to 1.7 GHz: whatever the target, output is 1.7.
  const UncoreRatioLimit pinned{.max_freq = Freq::ghz(1.7),
                                .min_freq = Freq::ghz(1.7)};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gov.evaluate(base_inputs(), pinned), Freq::ghz(1.7));
  }
}

TEST(HwUfsGovernor, WindowMaxCapsTarget) {
  const NodeConfig c = cfg();
  const HwUfsParams params;
  HwUfsGovernor gov(c, params, 1);
  const UncoreRatioLimit capped{.max_freq = Freq::ghz(2.0),
                                .min_freq = Freq::ghz(1.2)};
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(gov.evaluate(base_inputs(), capped), Freq::ghz(2.0));
  }
}

TEST(HwUfsGovernor, DitherAveragesJustBelowTarget) {
  // The paper measures 2.39 GHz averages against a 2.40 limit.
  const NodeConfig c = cfg();
  const HwUfsParams params;
  HwUfsGovernor gov(c, params, 99);
  const UncoreRatioLimit open{.max_freq = Freq::ghz(2.4),
                              .min_freq = Freq::ghz(1.2)};
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    sum += gov.evaluate(base_inputs(), open).as_ghz();
  }
  const double avg = sum / n;
  EXPECT_GT(avg, 2.37);
  EXPECT_LT(avg, 2.40);
}

TEST(HwUfsGovernor, CurrentTracksLastEvaluation) {
  const NodeConfig c = cfg();
  HwUfsParams p;
  p.dither_probability = 0.0;
  HwUfsGovernor gov(c, p, 5);
  const UncoreRatioLimit open{.max_freq = Freq::ghz(2.4),
                              .min_freq = Freq::ghz(1.2)};
  gov.evaluate(base_inputs(), open);
  EXPECT_EQ(gov.current(), Freq::ghz(2.4));
}

}  // namespace
}  // namespace ear::simhw
