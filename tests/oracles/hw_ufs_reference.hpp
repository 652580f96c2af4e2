// Test oracle: the original per-period HW-UFS dither loop, checked
// against HwUfsGovernor::evaluate_periods by test_hw_ufs_diff and timed by
// bench_micro's BM_GovernorPeriodsReference. Never installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "simhw/hw_ufs.hpp"

namespace ear::simhw {

/// One socket's governor with the reference dither loop: one
/// `uniform() < p` draw per period, summed into a double. Seeded like
/// HwUfsGovernor, so the two consume the same stream.
class ReferenceHwUfsGovernor {
 public:
  ReferenceHwUfsGovernor(const NodeConfig& cfg, HwUfsParams params,
                         std::uint64_t seed);

  /// Semantics are the specification for HwUfsGovernor::evaluate_periods.
  double evaluate_periods(const UfsInputs& in, const UncoreRatioLimit& limit,
                          std::size_t periods);

  [[nodiscard]] Freq current() const { return current_; }
  [[nodiscard]] const common::Rng& rng() const { return rng_; }

 private:
  const NodeConfig* cfg_;
  HwUfsParams params_;
  common::Rng rng_;
  Freq current_;
};

/// The original node-level loop: every socket's periods in turn, the
/// last socket's sum returned.
double reference_evaluate_periods(std::span<ReferenceHwUfsGovernor> sockets,
                                  const UfsInputs& in,
                                  const UncoreRatioLimit& limit,
                                  std::size_t periods);

}  // namespace ear::simhw
