// IterationMemo: memoised evaluate_iteration() over the P-state × IMC grid.
//
// Not used by src/: SimNode evaluates the kernel directly (see
// docs/performance.md, "Iteration kernel: evaluated directly"). It stays
// compiled only because perfbench's layer probes still measure it, and
// goes with them.
//
// The analytic performance model is pure: for a fixed NodeConfig and
// WorkDemand, the result depends only on (f_cpu, f_imc), and both
// frequencies live on small enumerable grids (the P-state ladder and the
// 100 MHz uncore window — a few hundred points total), so a table over
// that grid turns repeated evaluations into fetches. Policies and IMC
// searches never reached such a table: they project through the learned
// models, not through the node kernel.
//
// Determinism: the table stores the *noise-free* model output, bit for
// bit. Off-grid frequencies (e.g. the dither-averaged uncore frequency of
// a finished iteration) fall through to a direct evaluation, so results
// never depend on whether a point happened to be cached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "simhw/config.hpp"
#include "simhw/demand.hpp"
#include "simhw/perf_model.hpp"

namespace ear::simhw {

class IterationMemo {
 public:
  /// The memo is bound to one node configuration; `evaluate` must be
  /// called with that same configuration.
  explicit IterationMemo(const NodeConfig& cfg);

  /// Same contract (and bitwise-identical results) as
  /// evaluate_iteration(cfg, demand, f_cpu, f_imc). Grid points are
  /// computed at most once per demand; a demand change invalidates the
  /// whole table.
  PerfResult evaluate(const NodeConfig& cfg, const WorkDemand& demand,
                      Freq f_cpu, Freq f_imc);

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index into the P-state ladder, npos if `f` is not a table frequency.
  [[nodiscard]] std::size_t cpu_index(Freq f) const;
  /// Index into the uncore grid, npos if `f` is off-grid.
  [[nodiscard]] std::size_t imc_index(Freq f) const;

  std::vector<std::uint64_t> cpu_khz_;  // P-state ladder, descending
  bool cpu_uniform_ = false;            // uniform step below nominal
  std::uint64_t cpu_step_khz_ = 0;
  std::uint64_t imc_min_khz_ = 0;
  std::uint64_t imc_step_khz_ = 0;
  std::size_t imc_steps_ = 0;

  WorkDemand demand_{};
  bool demand_valid_ = false;
  std::vector<std::optional<PerfResult>> table_;  // [cpu * imc_steps + imc]
  // Single-entry cache for the one off-grid point the stretch path
  // produces: the dither-averaged uncore frequency, which repeats every
  // control round until the P-state cap, MSR window or demand moves.
  // Stores the exact model output for the exact key, so a hit is
  // bitwise-identical to the direct evaluation it replaces.
  bool offgrid_valid_ = false;
  std::uint64_t offgrid_cpu_khz_ = 0;
  std::uint64_t offgrid_imc_khz_ = 0;
  WorkDemand offgrid_demand_{};
  PerfResult offgrid_result_{};
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace ear::simhw
