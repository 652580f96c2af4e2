// Multi-job cluster scheduling tests: disjoint allocations, staggered
// starts, idle accounting, EARDBD integration, and shared EARGM budgets.
#include "sim/schedule.hpp"

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/presets.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"
#include "workload/synthetic.hpp"

namespace ear::sim {
namespace {

workload::AppModel small_app(double iter_seconds, std::size_t iterations,
                             const std::string& name) {
  const auto cfg = simhw::make_skylake_6148_node();
  workload::SyntheticSpec spec;
  spec.iter_seconds = iter_seconds;
  spec.cpi_core = 0.5;
  spec.gbps = 30.0;
  spec.stall_share = 0.15;
  spec.iterations = iterations;
  return workload::make_synthetic_app(cfg, spec, name);
}

ScheduleConfig two_job_config() {
  ScheduleConfig cfg;
  cfg.node_config = simhw::make_skylake_6148_node();
  cfg.cluster_nodes = 3;
  JobSpec a{.app = small_app(1.0, 60, "job-a"),
            .earl = settings_me_eufs(0.05, 0.02),
            .first_node = 0,
            .start_time_s = 0.0};
  JobSpec b{.app = small_app(1.2, 50, "job-b"),
            .earl = settings_no_policy(),
            .first_node = 1,
            .start_time_s = 20.0};
  cfg.jobs = {a, b};
  cfg.seed = 11;
  return cfg;
}

TEST(Schedule, JobsCompleteWithExpectedDurations) {
  const auto res = run_schedule(two_job_config());
  ASSERT_EQ(res.jobs.size(), 2u);
  EXPECT_NEAR(res.jobs[0].start_s, 0.0, 1e-6);
  EXPECT_NEAR(res.jobs[0].elapsed_s(), 60.0, 3.0);
  EXPECT_NEAR(res.jobs[1].start_s, 20.0, 0.5);
  EXPECT_NEAR(res.jobs[1].elapsed_s(), 60.0, 3.0);
  EXPECT_NEAR(res.makespan_s, 80.0, 4.0);
  EXPECT_GT(res.peak_aggregate_w, 300.0);
}

TEST(Schedule, EnergyAccountingIsComplete) {
  const auto res = run_schedule(two_job_config());
  // Cluster energy covers all three nodes over the makespan, so it must
  // exceed the sum of the two jobs' energies (node 2 idles throughout,
  // and allocations idle before submission / after completion).
  const double jobs_energy = res.jobs[0].energy_j + res.jobs[1].energy_j;
  EXPECT_GT(res.cluster_energy_j, jobs_energy);
  // But not absurdly: idle power is a fraction of busy power.
  EXPECT_LT(res.cluster_energy_j, jobs_energy * 3.0);
  EXPECT_GT(res.jobs[0].energy_j, 0.0);
}

TEST(Schedule, AccountingFeedsJobDatabase) {
  const auto res = run_schedule(two_job_config());
  eard::JobDatabase db;
  db.ingest(res.accounting);
  EXPECT_EQ(db.size(), 2u);  // one node record per single-node job
  const auto by_app = db.by_application();
  EXPECT_EQ(by_app.count("job-a"), 1u);
  EXPECT_EQ(by_app.count("job-b"), 1u);
  EXPECT_NEAR(by_app.at("job-a").total_energy_j, res.jobs[0].energy_j,
              res.jobs[0].energy_j * 0.01 + 2.0);
}

TEST(Schedule, PolicyStillActsPerJob) {
  // Job A runs under eUFS: its node's uncore window must have moved.
  auto cfg = two_job_config();
  cfg.jobs[0].app.phases.front().iterations = 120;  // room to converge
  const auto res = run_schedule(cfg);
  EXPECT_LT(res.jobs[0].avg_imc_ghz, 2.3);
  EXPECT_NEAR(res.jobs[1].avg_imc_ghz, 2.39, 0.02);
}

TEST(Schedule, RejectsBadAllocations) {
  auto cfg = two_job_config();
  cfg.jobs[1].first_node = 0;  // overlaps job A
  EXPECT_THROW((void)run_schedule(cfg), common::ConfigError);

  cfg = two_job_config();
  cfg.jobs[1].first_node = 2;
  cfg.jobs[1].app.nodes = 4;  // runs past the cluster edge
  EXPECT_THROW((void)run_schedule(cfg), common::ConfigError);
}

TEST(Schedule, SharedBudgetThrottlesOverlapOnly) {
  auto cfg = two_job_config();
  // Two busy nodes draw ~660 W + one idle ~85: budget above the single-
  // job phase but below the overlap forces throttling only while both
  // jobs run.
  cfg.eargm = eargm::EargmConfig{.cluster_budget = {650.0}};
  const auto res = run_schedule(cfg);
  EXPECT_GT(res.eargm_throttles, 0u);
  // Both jobs still complete; the overlap stretched them.
  EXPECT_GT(res.jobs[1].elapsed_s(), 55.0);

  auto free_cfg = two_job_config();
  free_cfg.eargm = eargm::EargmConfig{.cluster_budget = {5000.0}};
  const auto free_res = run_schedule(free_cfg);
  EXPECT_EQ(free_res.eargm_throttles, 0u);
}

TEST(Schedule, OneJobMatchesExperiment) {
  // One job submitted at t=0 on the whole cluster is exactly one
  // run_experiment: both engines step the same per-job loop, so the job's
  // end, CPU and IMC clocks must agree bit for bit.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const char* name : {"bqcd", "hpcg", "bt-mz.c.omp", "dgemm"}) {
    for (const earl::EarlSettings& earl :
         {settings_me_eufs(), settings_me()}) {
      SCOPED_TRACE(std::string(name) + " / " + earl.policy);
      const workload::AppModel app = workload::make_app(name);
      ScheduleConfig cfg;
      cfg.node_config = app.node_config;
      cfg.cluster_nodes = app.nodes;
      cfg.jobs = {JobSpec{.app = app, .earl = earl}};
      cfg.seed = 7;
      const ScheduleResult sched = run_schedule(cfg);
      const RunResult exp =
          run_experiment(ExperimentConfig{.app = app, .earl = earl, .seed = 7});
      ASSERT_EQ(sched.jobs.size(), 1u);
      EXPECT_EQ(bits(sched.jobs[0].end_s), bits(exp.total_time_s));
      EXPECT_EQ(bits(sched.jobs[0].avg_cpu_ghz), bits(exp.avg_cpu_ghz));
      EXPECT_EQ(bits(sched.jobs[0].avg_imc_ghz), bits(exp.avg_imc_ghz));
    }
  }
}

}  // namespace
}  // namespace ear::sim
