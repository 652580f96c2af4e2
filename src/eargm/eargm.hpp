// EARGM: the EAR Global Manager — cluster-level energy control.
//
// EAR's control service enforces a cluster power budget on top of the
// per-node optimisation policies: when aggregate DC power exceeds the
// budget, EARGM instructs the node daemons to cap their P-states
// (policies keep running but their requests are clamped); when load
// drops, the caps are released step by step. The paper lists control as
// one of EAR's four services (§III); this module implements it for the
// simulated cluster. At facility scale one EargmManager runs per island
// under a FederatedEargm (federation.hpp) that re-targets the island
// budgets every round.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "eard/eard.hpp"

namespace ear::eargm {

struct EargmConfig {
  /// Aggregate DC power budget for the managed nodes.
  common::Power cluster_budget{0.0};
  /// Throttle when aggregate power exceeds budget * trigger_margin.
  double trigger_margin = 1.00;
  /// Release one step when below budget * release_margin (hysteresis).
  double release_margin = 0.92;
  /// Never cap below this P-state index (sanity floor for throttling).
  simhw::Pstate deepest_limit = 10;  // 1.5 GHz on the Skylake table
};

class EargmManager {
 public:
  /// The manager does not own the daemons; the caller keeps them alive.
  EargmManager(EargmConfig cfg, std::vector<eard::NodeDaemon*> daemons);

  /// Feed one round of per-node average power readings (same order as
  /// the daemons). Adjusts the cluster-wide P-state limit by at most one
  /// step per call, as the real manager's control period does.
  ///
  /// A NaN reading means the node's report never arrived (daemon crash,
  /// network dropout): the manager substitutes the node's last known
  /// power — a fresh budget decision beats a stale one computed from a
  /// partial sum — and counts the miss. A round with *no* readings at
  /// all holds the current limit (the manager is blind; acting would be
  /// guessing).
  void update(std::span<const double> node_power_w) {
    step(node_power_w);
    log_step();
  }

  /// update() without its log line. Managers of distinct node sets may
  /// step concurrently; the federation steps its islands inside the
  /// facility's parallel phase and logs them at the barrier.
  void step(std::span<const double> node_power_w);
  /// Log what the last step() did: a blind hold, a throttle or a release.
  void log_step() const;

  /// Re-target the budget (federation tier: the cluster manager hands
  /// each island a fresh share every round). Must stay positive.
  void set_budget(common::Power cluster_budget);
  [[nodiscard]] common::Power budget() const { return cfg_.cluster_budget; }

  [[nodiscard]] simhw::Pstate current_limit() const { return limit_; }
  [[nodiscard]] std::size_t throttle_events() const { return throttles_; }
  [[nodiscard]] std::size_t release_events() const { return releases_; }
  [[nodiscard]] common::Power last_aggregate() const {
    return {last_total_w_};
  }
  /// Total readings substituted with the node's last known value so far
  /// (monotonic; feeds fault-report "detected" accounting).
  [[nodiscard]] std::size_t missed_readings() const {
    return missed_readings_;
  }
  /// Nodes currently in an outage (missed their most recent reading).
  /// Unlike missed_readings(), this resets per node on recovery, so one
  /// historical outage does not skew federation-tier reports forever.
  [[nodiscard]] std::size_t currently_missing_nodes() const;
  /// Consecutive rounds node `n` has been missing (0 = reporting fine).
  [[nodiscard]] std::size_t consecutive_missed(std::size_t n) const;
  /// Recovery events: a node that had missed one or more readings
  /// reported a finite value again.
  [[nodiscard]] std::size_t resumed_nodes() const { return resumed_; }
  /// Rounds where *no* node reported and the limit was held.
  [[nodiscard]] std::size_t blind_rounds() const { return blind_rounds_; }
  /// Whether the most recent update() round was blind.
  [[nodiscard]] bool last_round_blind() const {
    return last_step_ == Step::kBlind;
  }
  [[nodiscard]] std::size_t nodes() const { return daemons_.size(); }
  [[nodiscard]] const EargmConfig& config() const { return cfg_; }

 private:
  /// What the last step() did to the limit.
  enum class Step { kHeld, kBlind, kThrottled, kReleased };

  void apply_limit();

  EargmConfig cfg_;
  std::vector<eard::NodeDaemon*> daemons_;
  std::vector<double> last_known_w_;  // per node; 0 until first reading
  // Consecutive missed readings per node; reset to 0 when the node
  // resumes reporting (the old single monotonic counter could never
  // distinguish an ongoing outage from one long-recovered).
  std::vector<std::size_t> missed_by_node_;
  simhw::Pstate limit_ = 0;
  std::size_t throttles_ = 0;
  std::size_t releases_ = 0;
  std::size_t missed_readings_ = 0;  // monotonic total
  std::size_t resumed_ = 0;
  std::size_t blind_rounds_ = 0;
  Step last_step_ = Step::kHeld;
  double last_total_w_ = 0.0;
};

}  // namespace ear::eargm
