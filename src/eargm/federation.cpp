#include "eargm/federation.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ear::eargm {

FederatedEargm::FederatedEargm(
    FederationConfig cfg, std::vector<std::vector<eard::NodeDaemon*>> islands)
    : cfg_(cfg) {
  EAR_CHECK_MSG(std::isfinite(cfg_.facility_budget.value) &&
                    cfg_.facility_budget.value > 0.0,
                "facility budget must be positive");
  EAR_CHECK_MSG(!islands.empty(), "federation needs at least one island");
  EAR_CHECK_MSG(cfg_.floor_share > 0.0 && cfg_.floor_share <= 1.0,
                "floor share must be in (0, 1]");

  // Until the first readings arrive there is no demand signal, so the
  // facility cap starts as an even split.
  const double even = cfg_.facility_budget.value /
                      static_cast<double>(islands.size());
  for (auto& group : islands) {
    EAR_CHECK_MSG(!group.empty(), "island has no nodes");
    EargmConfig island_cfg = cfg_.island;
    island_cfg.cluster_budget = common::Power{even};
    sizes_.push_back(group.size());
    total_nodes_ += group.size();
    budgets_w_.push_back(even);
    last_known_island_w_.push_back(0.0);
    islands_.push_back(
        std::make_unique<EargmManager>(island_cfg, std::move(group)));
  }
}

const EargmManager& FederatedEargm::island(std::size_t i) const {
  EAR_CHECK_MSG(i < islands_.size(), "island index out of range");
  return *islands_[i];
}

common::Power FederatedEargm::island_budget(std::size_t i) const {
  EAR_CHECK_MSG(i < budgets_w_.size(), "island index out of range");
  return {budgets_w_[i]};
}

std::size_t FederatedEargm::island_blind_rounds() const {
  std::size_t out = 0;
  for (const auto& m : islands_) out += m->blind_rounds();
  return out;
}

std::size_t FederatedEargm::total_missed_readings() const {
  std::size_t out = 0;
  for (const auto& m : islands_) out += m->missed_readings();
  return out;
}

std::size_t FederatedEargm::total_resumed_nodes() const {
  std::size_t out = 0;
  for (const auto& m : islands_) out += m->resumed_nodes();
  return out;
}

std::size_t FederatedEargm::total_throttle_events() const {
  std::size_t out = 0;
  for (const auto& m : islands_) out += m->throttle_events();
  return out;
}

std::size_t FederatedEargm::total_release_events() const {
  std::size_t out = 0;
  for (const auto& m : islands_) out += m->release_events();
  return out;
}

void FederatedEargm::update(std::span<const double> node_power_w) {
  EAR_CHECK_MSG(node_power_w.size() == total_nodes_,
                "one power reading per facility node");
  std::size_t offset = 0;
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    update_island(i, node_power_w.subspan(offset, sizes_[i]));
    offset += sizes_[i];
  }
  update_cluster();
}

void FederatedEargm::update_island(std::size_t i,
                                   std::span<const double> island_power_w) {
  EAR_CHECK_MSG(i < islands_.size(), "island index out of range");
  islands_[i]->step(island_power_w);
}

void FederatedEargm::update_cluster() {
  std::size_t blind = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    islands_[i]->log_step();
    if (islands_[i]->last_round_blind()) {
      // The island went completely dark: the cluster tier carries its
      // last known aggregate forward, mirroring the node-tier rule.
      ++blind;
    } else {
      last_known_island_w_[i] = islands_[i]->last_aggregate().value;
    }
    total += last_known_island_w_[i];
  }
  facility_w_ = total;

  if (blind == islands_.size()) {
    ++facility_blind_rounds_;
    EAR_LOG_WARN("eargm", "all %zu islands dark; holding budget split",
                 islands_.size());
  } else {
    redistribute();
  }
  ++rounds_;
}

void FederatedEargm::redistribute() {
  const double budget = cfg_.facility_budget.value;
  const double floor = cfg_.floor_share * budget /
                       static_cast<double>(islands_.size());
  const double pool = budget - floor * static_cast<double>(islands_.size());
  double demand = 0.0;
  for (double w : last_known_island_w_) demand += w;

  bool moved = false;
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    // Demand-proportional share on top of the floor; before any demand
    // signal exists (or a fully idle facility) the pool splits evenly.
    const double share =
        demand > 0.0 ? last_known_island_w_[i] / demand
                     : 1.0 / static_cast<double>(islands_.size());
    const double next = floor + pool * share;
    if (std::fabs(next - budgets_w_[i]) > 1e-9) moved = true;
    budgets_w_[i] = next;
    islands_[i]->set_budget(common::Power{next});
  }
  if (moved) ++redists_;
}

}  // namespace ear::eargm
