// Intel Node Manager (INM) DC-node energy counter emulation.
//
// The paper reads node energy through IPMI/INM, whose accumulated-energy
// counter only updates once per second — which is why EARL computes DC
// node power from >=10 s windows. We reproduce the 1 s quantisation: a
// read returns the energy accumulated up to the last whole second of
// simulated time.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace ear::simhw {

using common::Joules;
using common::Secs;

class NodeManagerCounter {
 public:
  /// Simulator side: add `e` joules consumed over `dt` of simulated time.
  void deposit(Joules e, Secs dt);
  /// Simulator side, exact total only: add `e` to exact() and leave the
  /// published reading and elapsed time as they are. For drivers that
  /// read nothing but exact() (SimNode's facility family).
  void add_exact(Joules e) {
    EAR_CHECK_MSG(e.value >= 0.0, "energy must be non-negative");
    exact_ += e;
  }

  /// IPMI-visible reading: whole joules, frozen at 1 s boundaries.
  [[nodiscard]] std::uint64_t read_joules() const { return published_; }

  /// Continuous ground truth (not visible to EARL; used by test oracles).
  [[nodiscard]] Joules exact() const { return exact_; }
  [[nodiscard]] Secs elapsed() const { return Secs{elapsed_}; }

 private:
  Joules exact_{};
  double elapsed_ = 0.0;
  std::uint64_t published_ = 0;
};

}  // namespace ear::simhw
