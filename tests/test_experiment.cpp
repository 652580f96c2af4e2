// Integration tests of the experiment engine and the paper-level
// behaviours the benches rely on. These run full (fast, simulated)
// EAR-managed executions.
#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "sim/presets.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

namespace ear::sim {
namespace {

ExperimentConfig cfg_for(const std::string& app,
                         const earl::EarlSettings& settings,
                         std::uint64_t seed = 5) {
  return ExperimentConfig{.app = workload::make_app(app),
                          .earl = settings,
                          .seed = seed};
}

TEST(Experiment, NoPolicyReproducesNominalMetrics) {
  const auto res = run_experiment(cfg_for("bt-mz.d", settings_no_policy()));
  EXPECT_NEAR(res.total_time_s, 465.0, 10.0);
  EXPECT_NEAR(res.avg_dc_power_w, 320.7, 8.0);
  EXPECT_NEAR(res.cpi, 0.38, 0.02);
  EXPECT_NEAR(res.gbps, 6.6, 0.3);
  EXPECT_NEAR(res.avg_cpu_ghz, 2.38, 0.02);
  EXPECT_NEAR(res.avg_imc_ghz, 2.39, 0.02);
  EXPECT_EQ(res.nodes.size(), 4u);
  EXPECT_NEAR(res.total_energy_j,
              res.avg_dc_power_w * res.total_time_s * 4.0,
              0.02 * res.total_energy_j);
}

TEST(Experiment, PerNodeResultsConsistent) {
  const auto res = run_experiment(cfg_for("bqcd", settings_no_policy()));
  double sum = 0.0;
  for (const auto& n : res.nodes) {
    EXPECT_GT(n.elapsed_s, 0.0);
    EXPECT_GT(n.energy_j, 0.0);
    EXPECT_GT(n.pkg_energy_j, 0.0);
    EXPECT_LT(n.pkg_energy_j, n.energy_j);  // PKG is a subset of DC
    EXPECT_GT(n.signatures, 0u);
    sum += n.energy_j;
  }
  EXPECT_NEAR(sum, res.total_energy_j, 1e-6);
}

TEST(Experiment, RaplPollingSurvivesWraps) {
  // POP runs ~1500 s at ~170 W PKG: several counter wraps worth.
  const auto res = run_experiment(cfg_for("pop", settings_no_policy()));
  const double wrap_joules =
      static_cast<double>(simhw::RaplCounter::kWrap) *
      simhw::RaplCounter::kJoulesPerUnit;
  EXPECT_GT(res.nodes.front().pkg_energy_j, wrap_joules);
  // And the derived PKG power is sane.
  EXPECT_GT(res.avg_pkg_power_w, 100.0);
  EXPECT_LT(res.avg_pkg_power_w, 300.0);
}

TEST(Experiment, ImcTimelineRecorded) {
  const auto res =
      run_experiment(cfg_for("bt-mz.d", settings_me_eufs(0.05, 0.02)));
  ASSERT_FALSE(res.timeline.empty());
  // Starts near the max, ends at the explicitly selected lower value.
  EXPECT_GT(res.timeline.front().imc_ghz, 2.3);
  EXPECT_LT(res.timeline.back().imc_ghz, 2.0);
}

TEST(Experiment, TimelineStrideDownsamplesWithoutChangingScalars) {
  const ExperimentConfig base = cfg_for("bt-mz.c.omp", settings_no_policy(), 7);
  ExperimentConfig strided = base;
  strided.timeline_stride = 5;
  const RunResult full = run_experiment(base);
  const RunResult thin = run_experiment(strided);

  // The stride only skips timeline writes; everything computed stays
  // bitwise identical.
  EXPECT_EQ(full.total_time_s, thin.total_time_s);
  EXPECT_EQ(full.total_energy_j, thin.total_energy_j);
  EXPECT_EQ(full.avg_dc_power_w, thin.avg_dc_power_w);
  EXPECT_EQ(full.avg_imc_ghz, thin.avg_imc_ghz);
  EXPECT_EQ(full.cpi, thin.cpi);

  const std::size_t total = base.app.total_iterations();
  ASSERT_EQ(full.timeline.size(), total);
  EXPECT_EQ(thin.timeline.size(), (total + 4) / 5);
  // The kept samples are exactly every 5th sample of the full run.
  for (std::size_t i = 0; i < thin.timeline.size(); ++i) {
    EXPECT_EQ(thin.timeline[i].t_s, full.timeline[i * 5].t_s);
    EXPECT_EQ(thin.timeline[i].imc_ghz, full.timeline[i * 5].imc_ghz);
  }
}

TEST(Experiment, TimelineStrideZeroKeepsEverySample) {
  ExperimentConfig cfg = cfg_for("dgemm", settings_no_policy(), 7);
  cfg.timeline_stride = 0;  // 0 and 1 both mean "keep all"
  const RunResult res = run_experiment(cfg);
  EXPECT_EQ(res.timeline.size(), cfg.app.total_iterations());
}

TEST(Experiment, WithoutEarlRunsAtNominal) {
  auto cfg = cfg_for("bt-mz.d", settings_no_policy());
  cfg.attach_earl = false;
  const auto res = run_experiment(cfg);
  EXPECT_NEAR(res.avg_cpu_ghz, 2.38, 0.02);
  EXPECT_EQ(res.nodes.front().signatures, 0u);
}

TEST(Runner, AveragingReducesVariance) {
  const auto one = run_averaged(cfg_for("bqcd", settings_no_policy()), 1);
  const auto three = run_averaged(cfg_for("bqcd", settings_no_policy()), 3);
  EXPECT_EQ(one.runs, 1u);
  EXPECT_EQ(three.runs, 3u);
  EXPECT_GT(three.time_stddev_s, 0.0);
  EXPECT_NEAR(one.total_time_s, three.total_time_s,
              0.02 * three.total_time_s);
}

TEST(Runner, ComparisonSigns) {
  AveragedResult ref;
  ref.total_time_s = 100.0;
  ref.total_energy_j = 1000.0;
  ref.avg_dc_power_w = 10.0;
  ref.avg_pkg_power_w = 7.0;
  ref.gbps = 50.0;
  AveragedResult res = ref;
  res.total_time_s = 103.0;   // 3% slower
  res.total_energy_j = 950.0; // 5% less energy
  res.avg_dc_power_w = 9.0;   // 10% less power
  res.avg_pkg_power_w = 6.3;  // 10% less pkg power
  res.gbps = 48.0;            // 4% less bandwidth
  const Comparison c = compare(ref, res);
  EXPECT_NEAR(c.time_penalty_pct, 3.0, 1e-9);
  EXPECT_NEAR(c.energy_saving_pct, 5.0, 1e-9);
  EXPECT_NEAR(c.power_saving_pct, 10.0, 1e-9);
  EXPECT_NEAR(c.pck_power_saving_pct, 10.0, 1e-9);
  EXPECT_NEAR(c.gbps_penalty_pct, 4.0, 1e-9);
  EXPECT_NEAR(c.efficiency_ratio(), 5.0 / 3.0, 1e-9);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(cfg_for("bqcd", settings_me(0.03), 9));
  const auto b = run_experiment(cfg_for("bqcd", settings_me(0.03), 9));
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
}

TEST(Experiment, SeedChangesRun) {
  const auto a = run_experiment(cfg_for("bqcd", settings_no_policy(), 1));
  const auto b = run_experiment(cfg_for("bqcd", settings_no_policy(), 2));
  EXPECT_NE(a.total_time_s, b.total_time_s);
}

// ----------------------------------------------------------------------
// Paper-level behaviours (the claims the benches quantify)
// ----------------------------------------------------------------------

TEST(PaperBehaviour, CpuBoundMeKeepsNominalAtFivePercent) {
  // BT-MZ under ME at cpu_th 5%: DC-node energy does not reward slowing
  // down a CPU-bound code, so the CPU stays at nominal (Table IV/VI).
  const auto res = run_experiment(cfg_for("bt-mz.d", settings_me(0.05)));
  EXPECT_NEAR(res.avg_cpu_ghz, 2.38, 0.02);
  EXPECT_NEAR(res.avg_imc_ghz, 2.39, 0.03);
}

TEST(PaperBehaviour, EufsSavesEnergyOnCpuBound) {
  const auto ref =
      run_averaged(cfg_for("bt-mz.d", settings_no_policy()), 2);
  const auto eufs =
      run_averaged(cfg_for("bt-mz.d", settings_me_eufs(0.05, 0.02)), 2);
  const Comparison c = compare(ref, eufs);
  EXPECT_GT(c.energy_saving_pct, 2.0);
  EXPECT_LT(c.time_penalty_pct, 4.0);
  EXPECT_GT(c.power_saving_pct, c.time_penalty_pct);
  EXPECT_LT(eufs.avg_imc_ghz, 2.0);  // explicit UFS reduced the uncore
}

TEST(PaperBehaviour, MemoryBoundMeReducesCpuNotUncore) {
  // HPCG under ME: deep CPU reduction, IMC kept at max by the HW (its
  // bandwidth utilisation pins rule 2).
  const auto res = run_experiment(cfg_for("hpcg", settings_me(0.05)));
  EXPECT_LT(res.avg_cpu_ghz, 2.25);
  EXPECT_GT(res.avg_imc_ghz, 2.3);
}

TEST(PaperBehaviour, EufsGuardLimitsMemoryBoundDamage) {
  // HPCG with eUFS: the CPI/GB-s guards stop the descent after one or two
  // bins (paper Table VI: 2.39 -> 2.29).
  const auto res =
      run_experiment(cfg_for("hpcg", settings_me_eufs(0.05, 0.02)));
  EXPECT_GT(res.avg_imc_ghz, 2.2);
}

TEST(PaperBehaviour, DgemmHardwareAlreadyClose) {
  // DGEMM: the AVX512 licence already dragged the uncore down; explicit
  // UFS only trims a little more (1.98 -> 1.87 in Table IV).
  const auto nop = run_experiment(cfg_for("dgemm", settings_no_policy()));
  const auto eufs =
      run_experiment(cfg_for("dgemm", settings_me_eufs(0.05, 0.02)));
  EXPECT_NEAR(nop.avg_imc_ghz, 1.99, 0.05);
  EXPECT_LT(eufs.avg_imc_ghz, nop.avg_imc_ghz);
  EXPECT_GT(eufs.avg_imc_ghz, 1.75);
  EXPECT_NEAR(nop.avg_cpu_ghz, 2.19, 0.03);
}

TEST(PaperBehaviour, TighterUncThresholdStopsEarlier) {
  const auto loose =
      run_experiment(cfg_for("bt-mz.d", settings_me_eufs(0.03, 0.03)));
  const auto tight =
      run_experiment(cfg_for("bt-mz.d", settings_me_eufs(0.03, 0.005)));
  EXPECT_GE(tight.avg_imc_ghz, loose.avg_imc_ghz - 0.02);
}

// ---------------------------------------------------------------------
// reduce_runs: the shared reduction both run_averaged and the Campaign
// engine fold per-run results through. Synthetic RunResults keep these
// exact: no simulation noise, every expectation is arithmetic.

RunResult synthetic_run(double time_s, double energy_j, double power_w) {
  RunResult r;
  r.total_time_s = time_s;
  r.total_energy_j = energy_j;
  r.avg_dc_power_w = power_w;
  r.avg_pkg_power_w = power_w * 0.8;
  r.avg_cpu_ghz = 2.4;
  r.avg_imc_ghz = 2.0;
  r.cpi = 0.4;
  r.gbps = 6.0;
  return r;
}

TEST(ReduceRuns, SingleRunIsIdentityWithZeroSpread) {
  const std::vector<RunResult> runs = {synthetic_run(100.0, 5000.0, 300.0)};
  const AveragedResult avg = reduce_runs(runs);
  EXPECT_DOUBLE_EQ(avg.total_time_s, 100.0);
  EXPECT_DOUBLE_EQ(avg.total_energy_j, 5000.0);
  EXPECT_DOUBLE_EQ(avg.avg_dc_power_w, 300.0);
  EXPECT_DOUBLE_EQ(avg.time_stddev_s, 0.0);
  EXPECT_EQ(avg.runs, 1u);
}

TEST(ReduceRuns, AveragesFieldsAndSumsFaults) {
  std::vector<RunResult> runs = {synthetic_run(90.0, 4000.0, 280.0),
                                 synthetic_run(110.0, 6000.0, 320.0)};
  runs[0].fault_report.msr_drops = 3;
  runs[1].fault_report.msr_drops = 4;
  runs[1].fault_report.verify_failures = 2;
  const AveragedResult avg = reduce_runs(runs);
  EXPECT_DOUBLE_EQ(avg.total_time_s, 100.0);
  EXPECT_DOUBLE_EQ(avg.total_energy_j, 5000.0);
  EXPECT_DOUBLE_EQ(avg.avg_dc_power_w, 300.0);
  // Population stddev of {90, 110} is 10.
  EXPECT_NEAR(avg.time_stddev_s, 10.0, 1e-12);
  // Fault counters sum (events happened), never average.
  EXPECT_EQ(avg.faults.msr_drops, 7u);
  EXPECT_EQ(avg.faults.verify_failures, 2u);
  EXPECT_EQ(avg.runs, 2u);
}

TEST(ReduceRuns, SpreadMatchesSingletonMergeChain) {
  // reduce_runs builds its stddev by merging one single-sample partial
  // accumulator per run; the result must equal the directly-accumulated
  // population stddev of the run times.
  const std::vector<double> times = {88.0, 97.5, 103.0, 91.25, 120.0};
  std::vector<RunResult> runs;
  common::RunningStats direct;
  for (double t : times) {
    runs.push_back(synthetic_run(t, 1000.0, 250.0));
    direct.add(t);
  }
  const AveragedResult avg = reduce_runs(runs);
  EXPECT_NEAR(avg.time_stddev_s, direct.stddev(), 1e-12);
  EXPECT_NEAR(avg.total_time_s, direct.mean(), 1e-12);
}

TEST(ReduceRuns, EmptySpanIsACheckedError) {
  EXPECT_THROW((void)reduce_runs({}), common::InvariantError);
}

TEST(PaperBehaviour, DcVsPckSavingsDiffer) {
  // Table VII: PKG savings overstate DC savings, non-uniformly.
  const auto ref = run_averaged(cfg_for("bt-mz.d", settings_no_policy()), 2);
  const auto eufs =
      run_averaged(cfg_for("bt-mz.d", settings_me_eufs(0.05, 0.02)), 2);
  const Comparison c = compare(ref, eufs);
  EXPECT_GT(c.pck_power_saving_pct, c.power_saving_pct);
}

}  // namespace
}  // namespace ear::sim
