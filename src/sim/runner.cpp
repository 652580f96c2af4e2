#include "sim/runner.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/campaign.hpp"

namespace ear::sim {

ExperimentConfig config_for_run(const ExperimentConfig& cfg, std::size_t run) {
  ExperimentConfig c = cfg;
  // Mixed (not linear) derivation: seed + r*stride aliased whenever two
  // user seeds differed by a multiple of the stride, silently sharing
  // "independent" runs between campaign points.
  c.seed = common::mix_seed(cfg.seed, run);
  return c;
}

AveragedResult reduce_runs(std::span<const RunResult> runs) {
  EAR_CHECK_MSG(!runs.empty(), "need at least one run");
  AveragedResult avg;
  common::RunningStats time_stats;
  for (const RunResult& res : runs) {
    avg.total_time_s += res.total_time_s;
    avg.total_energy_j += res.total_energy_j;
    avg.avg_dc_power_w += res.avg_dc_power_w;
    avg.avg_pkg_power_w += res.avg_pkg_power_w;
    avg.avg_cpu_ghz += res.avg_cpu_ghz;
    avg.avg_imc_ghz += res.avg_imc_ghz;
    avg.cpi += res.cpi;
    avg.gbps += res.gbps;
    avg.faults += res.fault_report;
    // Cross-run aggregation goes through merge() so partial accumulators
    // (e.g. per-shard stats from a distributed campaign) reduce through
    // the exact same code path.
    common::RunningStats one;
    one.add(res.total_time_s);
    time_stats.merge(one);
  }
  const double k = static_cast<double>(runs.size());
  avg.total_time_s /= k;
  avg.total_energy_j /= k;
  avg.avg_dc_power_w /= k;
  avg.avg_pkg_power_w /= k;
  avg.avg_cpu_ghz /= k;
  avg.avg_imc_ghz /= k;
  avg.cpi /= k;
  avg.gbps /= k;
  avg.time_stddev_s = time_stats.stddev();
  avg.runs = runs.size();
  return avg;
}

AveragedResult run_averaged(const ExperimentConfig& cfg, std::size_t runs,
                            std::size_t jobs) {
  // A one-point campaign: the same per-run seeds, per-run slots and
  // run-index-order reduction, so the result is bitwise identical for any
  // job count.
  Campaign campaign(CampaignOptions{.jobs = jobs});
  campaign.add(CampaignPoint{.cfg = cfg, .runs = runs});
  return campaign.run().front().avg;
}

Comparison compare(const AveragedResult& reference,
                   const AveragedResult& result) {
  Comparison c;
  c.time_penalty_pct =
      common::percent_change(reference.total_time_s, result.total_time_s);
  c.power_saving_pct =
      -common::percent_change(reference.avg_dc_power_w, result.avg_dc_power_w);
  c.energy_saving_pct =
      -common::percent_change(reference.total_energy_j, result.total_energy_j);
  c.pck_power_saving_pct = -common::percent_change(reference.avg_pkg_power_w,
                                                   result.avg_pkg_power_w);
  // percent_change signals a zero reference with NaN; a workload that
  // reports no memory traffic (GB/s ~ 0 references exist in the CUDA
  // kernel rows) renders as "n/a" rather than a fake 0% penalty.
  c.gbps_penalty_pct = -common::percent_change(reference.gbps, result.gbps);
  const double edp_ref = reference.total_energy_j * reference.total_time_s;
  const double edp_res = result.total_energy_j * result.total_time_s;
  c.edp_change_pct = common::percent_change(edp_ref, edp_res);
  c.ed2p_change_pct = common::percent_change(
      edp_ref * reference.total_time_s, edp_res * result.total_time_s);
  return c;
}

}  // namespace ear::sim
