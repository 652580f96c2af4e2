// Test oracle: the original rescan DynAIS level detector, checked
// against dynais::LevelDetector by test_dynais_diff and timed by
// bench_micro's BM_DynaisReferenceWorstCase. Never installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynais/dynais.hpp"

namespace ear::dynais {

/// Single-level periodicity detector (reference rescan implementation).
/// Semantics are the specification for `LevelDetector`; kept for
/// differential testing and as the readable statement of the algorithm.
class ReferenceLevelDetector {
 public:
  explicit ReferenceLevelDetector(const Config& cfg);

  Status push(std::uint32_t event);

  [[nodiscard]] std::size_t period() const { return period_; }
  [[nodiscard]] bool in_loop() const { return period_ > 0; }
  [[nodiscard]] std::uint32_t loop_signature() const { return signature_; }

  void reset();

 private:
  [[nodiscard]] bool periodic_with(std::size_t p) const;
  [[nodiscard]] std::uint32_t hash_last(std::size_t n) const;

  Config cfg_;
  std::vector<std::uint32_t> buf_;  // circular
  std::size_t count_ = 0;
  std::size_t period_ = 0;
  std::size_t since_iteration_ = 0;
  std::uint32_t signature_ = 0;
};

using ReferenceDynais = BasicDynais<ReferenceLevelDetector>;

}  // namespace ear::dynais
