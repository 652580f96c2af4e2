#include "eargm/eargm.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ear::eargm {

EargmManager::EargmManager(EargmConfig cfg,
                           std::vector<eard::NodeDaemon*> daemons)
    : cfg_(cfg),
      daemons_(std::move(daemons)),
      last_known_w_(daemons_.size(), 0.0),
      missed_by_node_(daemons_.size(), 0) {
  EAR_CHECK_MSG(cfg_.cluster_budget.value > 0.0,
                "cluster budget must be positive");
  EAR_CHECK_MSG(!daemons_.empty(), "EARGM needs at least one node");
  EAR_CHECK_MSG(cfg_.release_margin < cfg_.trigger_margin,
                "release margin must sit below the trigger margin");
}

void EargmManager::set_budget(common::Power cluster_budget) {
  EAR_CHECK_MSG(std::isfinite(cluster_budget.value) &&
                    cluster_budget.value > 0.0,
                "cluster budget must be positive");
  cfg_.cluster_budget = cluster_budget;
}

std::size_t EargmManager::currently_missing_nodes() const {
  std::size_t out = 0;
  for (std::size_t misses : missed_by_node_) out += misses > 0 ? 1 : 0;
  return out;
}

std::size_t EargmManager::consecutive_missed(std::size_t n) const {
  EAR_CHECK_MSG(n < missed_by_node_.size(), "node index out of range");
  return missed_by_node_[n];
}

void EargmManager::apply_limit() {
  for (eard::NodeDaemon* d : daemons_) d->set_pstate_limit(limit_);
}

void EargmManager::step(std::span<const double> node_power_w) {
  EAR_CHECK_MSG(node_power_w.size() == daemons_.size(),
                "one power reading per managed node");
  double total = 0.0;
  std::size_t missing = 0;
  for (std::size_t n = 0; n < node_power_w.size(); ++n) {
    double w = node_power_w[n];
    if (!std::isfinite(w)) {
      // Missing report: hold the node's last known power instead of
      // poisoning the aggregate (NaN) or under-counting it (0).
      ++missing;
      ++missed_by_node_[n];
      w = last_known_w_[n];
    } else {
      if (missed_by_node_[n] > 0) {
        // The node is back: close its outage so reports distinguish an
        // ongoing dropout from one long-recovered.
        missed_by_node_[n] = 0;
        ++resumed_;
      }
      last_known_w_[n] = w;
    }
    total += w;
  }
  missed_readings_ += missing;
  last_total_w_ = total;
  last_step_ = Step::kHeld;
  if (missing == node_power_w.size()) {
    ++blind_rounds_;
    last_step_ = Step::kBlind;
    return;
  }

  if (total > cfg_.cluster_budget.value * cfg_.trigger_margin) {
    if (limit_ < cfg_.deepest_limit) {
      ++limit_;
      ++throttles_;
      last_step_ = Step::kThrottled;
      apply_limit();
    }
  } else if (limit_ > 0 &&
             total < cfg_.cluster_budget.value * cfg_.release_margin) {
    --limit_;
    ++releases_;
    last_step_ = Step::kReleased;
    apply_limit();
  }
}

void EargmManager::log_step() const {
  switch (last_step_) {
    case Step::kHeld:
      break;
    case Step::kBlind:
      EAR_LOG_WARN("eargm", "no node reported this round; holding limit p%zu",
                   limit_);
      break;
    case Step::kThrottled:
      EAR_LOG_DEBUG("eargm", "over budget (%.0fW > %.0fW): limit -> p%zu",
                    last_total_w_, cfg_.cluster_budget.value, limit_);
      break;
    case Step::kReleased:
      EAR_LOG_DEBUG("eargm", "under budget (%.0fW): limit -> p%zu",
                    last_total_w_, limit_);
      break;
  }
}

}  // namespace ear::eargm
