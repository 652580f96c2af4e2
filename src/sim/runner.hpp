// Runner: repeated runs with independent seeds, averaged — the paper runs
// everything three times and reports means — plus the penalty/saving
// comparisons all the tables and figures are built from.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "sim/experiment.hpp"

namespace ear::sim {

/// Mean metrics over repeated runs.
struct AveragedResult {
  double total_time_s = 0.0;
  double total_energy_j = 0.0;
  double avg_dc_power_w = 0.0;
  double avg_pkg_power_w = 0.0;
  double avg_cpu_ghz = 0.0;
  double avg_imc_ghz = 0.0;
  double cpi = 0.0;
  double gbps = 0.0;
  double time_stddev_s = 0.0;
  std::size_t runs = 0;
  /// Fault counters summed (not averaged) over the runs; all zero when
  /// no plan was armed.
  faults::FaultReport faults;
};

/// The config for run index `run` of a repeated experiment: the per-run
/// seed is derived with common::mix_seed so distinct (user seed, run)
/// pairs never share a random stream.
[[nodiscard]] ExperimentConfig config_for_run(const ExperimentConfig& cfg,
                                              std::size_t run);

/// Reduce per-run results (in run-index order) to the paper-style mean.
/// The Campaign engine reduces every point with it (run_averaged is a
/// one-point campaign), so equal runs give bitwise-identical numbers.
[[nodiscard]] AveragedResult reduce_runs(std::span<const RunResult> runs);

/// Execute `runs` independent runs (mixed per-run seeds) and average, as
/// a one-point Campaign. `jobs` > 1 fans the runs out over threads
/// (0 = all cores / EAR_SIM_JOBS); the reduction is always in run-index
/// order, so the result does not depend on the job count.
[[nodiscard]] AveragedResult run_averaged(const ExperimentConfig& cfg,
                                          std::size_t runs = 3,
                                          std::size_t jobs = 1);

/// Penalties/savings of `result` relative to `reference` (positive saving
/// = better than reference; positive penalty = worse), as the paper's
/// figures report them.
struct Comparison {
  double time_penalty_pct = 0.0;
  double power_saving_pct = 0.0;       // DC node power
  double energy_saving_pct = 0.0;      // DC node energy
  double pck_power_saving_pct = 0.0;   // RAPL PKG power (Table VII)
  double gbps_penalty_pct = 0.0;
  /// Energy saved per time lost; the paper's "efficiency ratio".
  /// A zero or undefined time penalty has no defined ratio: that is NaN
  /// (the zero-reference convention percent_change uses), which the
  /// table layer renders as "n/a" — not 0.0, which would print a fake
  /// "worthless trade" figure for a comparison that never happened.
  [[nodiscard]] double efficiency_ratio() const {
    return std::isfinite(time_penalty_pct) && time_penalty_pct != 0.0
               ? energy_saving_pct / time_penalty_pct
               : std::numeric_limits<double>::quiet_NaN();
  }
  /// Energy-delay-product change in percent (negative = EDP improved):
  /// a threshold-free figure of merit for energy/performance trades.
  double edp_change_pct = 0.0;
  /// Energy-delay-squared change in percent (performance-leaning merit).
  double ed2p_change_pct = 0.0;
};
[[nodiscard]] Comparison compare(const AveragedResult& reference,
                                 const AveragedResult& result);

}  // namespace ear::sim
