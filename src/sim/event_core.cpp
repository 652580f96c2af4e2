#include "sim/event_core.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "eard/eard.hpp"
#include "sim/shard.hpp"
#include "simhw/cluster.hpp"

namespace ear::sim {

namespace {

/// Per-running-job bookkeeping (admission order).
struct RunningJob {
  std::size_t job = 0;
  std::size_t island = 0;
  std::vector<std::size_t> local_nodes;
  double start_inm_j = 0.0;
};

/// Persistent shard workers behind an epoch spin-barrier.
///
/// A condition-variable pool costs ~10 us per wake; every control round
/// is one barrier, so the facility dispatches hundreds of times per run
/// and the wake cost would rival the shard work itself. Workers spin
/// briefly (yielding periodically to stay polite on shared hosts) on an
/// epoch counter instead, bringing a dispatch down to about a
/// microsecond. The calling thread runs the last partition itself, so
/// `helpers + 1` partitions execute per epoch and a crew of one helper
/// still halves the wall time.
class ShardCrew {
 public:
  /// `partitions` = helpers + 1; `body(i)` must be safe to run
  /// concurrently for distinct i (each shard is owned by exactly one
  /// partition per epoch).
  ShardCrew(std::size_t partitions, std::function<void(std::size_t)> body)
      : partitions_(partitions), body_(std::move(body)) {
    EAR_CHECK(partitions_ >= 2);
    for (std::size_t p = 0; p + 1 < partitions_; ++p) {
      threads_.emplace_back([this, p] { worker(p); });
    }
  }

  ~ShardCrew() {
    quit_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  /// Run body(i) for every i in [0, n), statically partitioned over the
  /// crew; returns after all partitions finish. Rethrows the first
  /// exception any partition produced.
  void run(std::size_t n) {
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    run_partition(partitions_ - 1);
    std::size_t spins = 0;
    while (done_.load(std::memory_order_acquire) + 1 < partitions_) {
      if (++spins > kSpinLimit) {
        std::this_thread::yield();
        spins = 0;
      }
    }
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  static constexpr std::size_t kSpinLimit = 4096;

  void run_partition(std::size_t p) {
    const std::size_t lo = p * n_ / partitions_;
    const std::size_t hi = (p + 1) * n_ / partitions_;
    try {
      for (std::size_t i = lo; i < hi; ++i) body_(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void worker(std::size_t p) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e = seen;
      std::size_t spins = 0;
      while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
        if (++spins > kSpinLimit) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      seen = e;
      if (quit_.load(std::memory_order_relaxed)) return;
      run_partition(p);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  std::size_t partitions_;
  std::function<void(std::size_t)> body_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> quit_{false};
  std::size_t n_ = 0;
  std::mutex err_mu_;
  std::exception_ptr error_;
};

}  // namespace

FacilityResult run_facility_event(const FacilityConfig& cfg) {
  EAR_CHECK_MSG(!cfg.islands.empty(), "facility needs at least one island");
  EAR_CHECK_MSG(cfg.round_s > 0.0, "control round must be positive");
  EAR_CHECK_MSG(cfg.max_sim_s > cfg.round_s, "max_sim_s too small");
  const auto wall_t0 = std::chrono::steady_clock::now();

  // Hardware: one shard per island. Node streams are rooted at
  // mix_seed(seed, island) exactly as the reference loop seeds its
  // clusters, so shard advancement is independent of worker count.
  std::vector<std::unique_ptr<simhw::Cluster>> clusters(cfg.islands.size());
  std::vector<Shard> shards(cfg.islands.size());
  std::size_t total_nodes = 0;
  for (std::size_t i = 0; i < cfg.islands.size(); ++i) {
    EAR_CHECK_MSG(cfg.islands[i].nodes > 0, "island has no nodes");
    Shard& sh = shards[i];
    sh.index = i;
    sh.seed = common::mix_seed(cfg.seed, i);
    sh.offset = total_nodes;
    sh.size = cfg.islands[i].nodes;
    total_nodes += sh.size;
    sh.slots.resize(sh.size);
    sh.readings_w.resize(sh.size);
  }
  // Island hardware builds concurrently: every stream in a cluster is
  // rooted at the island seed, so the result is bitwise-independent of
  // the worker count (and of whether the build ran concurrently at all).
  common::parallel_for(
      shards.size(),
      [&](std::size_t i) {
        clusters[i] = std::make_unique<simhw::Cluster>(
            cfg.islands[i].node_config, cfg.islands[i].nodes,
            shards[i].seed, cfg.noise, cfg.ufs);
        shards[i].cluster = clusters[i].get();
      },
      cfg.sim_jobs, /*grain=*/1);

  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(total_nodes);
  for (Shard& sh : shards) {
    for (std::size_t n = 0; n < sh.size; ++n) {
      daemons.emplace_back(sh.cluster->node(n));
    }
  }

  std::unique_ptr<eargm::FederatedEargm> federation;
  if (cfg.budget.value > 0.0) {
    std::vector<std::vector<eard::NodeDaemon*>> groups;
    for (const Shard& sh : shards) {
      std::vector<eard::NodeDaemon*> group;
      for (std::size_t n = 0; n < sh.size; ++n) {
        group.push_back(&daemons[sh.offset + n]);
      }
      groups.push_back(std::move(group));
    }
    federation = std::make_unique<eargm::FederatedEargm>(
        eargm::FederationConfig{.facility_budget = cfg.budget,
                                .island = cfg.island_eargm,
                                .floor_share = cfg.floor_share},
        std::move(groups));
  }

  const auto wall_t1 = std::chrono::steady_clock::now();

  std::vector<std::size_t> island_sizes;
  for (const Shard& sh : shards) island_sizes.push_back(sh.size);
  JobQueue queue(cfg.jobs, island_sizes, cfg.backfill);
  const std::size_t job_count = cfg.jobs.size();

  FacilityResult out;
  out.budget_w = cfg.budget.value;
  out.jobs.resize(job_count);
  for (std::size_t j = 0; j < job_count; ++j) {
    out.jobs[j].name = cfg.jobs[j].name;
    out.jobs[j].submit_s = cfg.jobs[j].submit_s;
  }

  // Serial cross-shard state: the fault stream is drawn into the mask in
  // (spec, island/node) order at the barrier before each parallel phase;
  // the job demands are written at admission and only read by the
  // shards. The stretch plans are the exception: each is written inside
  // the parallel phase, but only by the shard running its job (jobs
  // never span islands).
  EAR_REDUCED_SERIAL std::vector<std::uint8_t> drop_mask(total_nodes, 0);
  EAR_REDUCED_SERIAL std::vector<simhw::WorkDemand> demands(job_count);
  EAR_SHARD_LOCAL std::vector<simhw::StretchPlan> plans(job_count);
  for (Shard& sh : shards) {
    sh.demands = demands.data();
    sh.plans = plans.data();
    sh.federation = federation.get();
  }
  common::Rng fault_rng(common::mix_seed(cfg.seed, 0xFAC111));

  // Persistent spin-barrier crew for the parallel phase (see ShardCrew).
  // crew_round is published to the workers by the epoch increment inside
  // run() (release/acquire pairing).
  const std::size_t crew_size =
      std::min(common::resolve_jobs(cfg.sim_jobs), shards.size());
  std::size_t crew_round = 0;
  std::unique_ptr<ShardCrew> crew;
  if (crew_size > 1) {
    crew = std::make_unique<ShardCrew>(
        crew_size, [&shards, &cfg, &crew_round](std::size_t i) {
          shards[i].advance_round(cfg.round_s, crew_round);
        });
  }

  double last_fault_end_s = 0.0;
  for (const auto& f : cfg.fault_plan.specs) {
    if (f.family == faults::FaultFamily::kNodeDropout ||
        f.family == faults::FaultFamily::kIslandDropout) {
      last_fault_end_s =
          std::max(last_fault_end_s, std::min(f.end_s, cfg.max_sim_s));
    }
  }

  bool nonfinite = false;
  bool wedged = false;
  std::size_t persistent_overruns = 0;
  std::size_t consecutive_over = 0;
  const double slack_w = cfg.budget.value * cfg.cap_slack_pct / 100.0;

  std::vector<RunningJob> running;  // admission order
  std::vector<std::size_t> job_running(job_count, kNoJob);
  std::size_t live_jobs = 0;

  for (std::size_t round = 0;; ++round) {
    const double now = static_cast<double>(round) * cfg.round_s;
    const double round_end = now + cfg.round_s;
    if (round_end > cfg.max_sim_s) {
      wedged = live_jobs > 0 || !queue.all_started();
      break;
    }

    // Admission: arrivals up to `now`, lowest free nodes, backfill —
    // byte-for-byte the reference loop's admission, against shard slots.
    for (JobStart& start : queue.admit(now)) {
      const FacilityJob& job = cfg.jobs[start.job];
      const simhw::NodeConfig& node_cfg =
          cfg.islands[start.island].node_config;
      workload::SyntheticSpec spec = job.work;
      spec.active_cores =
          std::min(spec.active_cores, node_cfg.total_cores());
      demands[start.job] = workload::make_demand(node_cfg, spec);

      Shard& sh = shards[start.island];
      RunningJob rj{.job = start.job,
                    .island = start.island,
                    .local_nodes = std::move(start.local_nodes),
                    .start_inm_j = 0.0};
      for (std::size_t local : rj.local_nodes) {
        NodeSlot& slot = sh.slots[local];
        slot.job = start.job;
        slot.iters_left = spec.iterations;
        rj.start_inm_j += sh.cluster->node(local).inm().exact().value;
      }
      sh.jobs.push_back(
          ShardJob{.job = start.job, .local_nodes = rj.local_nodes});
      FacilityJobOutcome& o = out.jobs[start.job];
      o.island = start.island;
      o.nodes = rj.local_nodes.size();
      o.start_s = now;
      job_running[start.job] = running.size();
      running.push_back(std::move(rj));
      ++live_jobs;
    }

    // The overrun test's degraded state: every island at its deepest
    // limit. Limits move only in the island steps inside the parallel
    // phase below, so this reads them as the oracle does, after the
    // advance and before its federation update.
    bool degraded = true;
    if (federation) {
      for (std::size_t i = 0; i < federation->islands(); ++i) {
        if (federation->island(i).current_limit() <
            cfg.island_eargm.deepest_limit) {
          degraded = false;
          break;
        }
      }
    }

    // Fault tier: one draw per target per active round, in (spec,
    // island/node) order, into a per-node mask the shards apply after
    // their advance. The draws do not depend on the readings; whether a
    // hit counts as a dropped reading does (a reading that is already
    // NaN is not dropped again), so a node dropout that is the first to
    // hide a node's reading marks it kDropCounted and the shard counts
    // it when the reading is finite.
    for (Shard& sh : shards) {
      if (sh.drop_mask == nullptr) continue;
      std::fill_n(drop_mask.begin() + static_cast<std::ptrdiff_t>(sh.offset),
                  sh.size, std::uint8_t{0});
      sh.drop_mask = nullptr;
    }
    const auto drop = [&drop_mask](Shard& sh, std::size_t n,
                                   std::uint8_t bits) {
      std::uint8_t& m = drop_mask[sh.offset + n];
      if (m == 0) m = bits;
      sh.drop_mask = drop_mask.data() + sh.offset;
    };
    for (const auto& f : cfg.fault_plan.specs) {
      if (!f.active_at(now)) continue;
      if (f.family == faults::FaultFamily::kNodeDropout) {
        for (Shard& sh : shards) {
          for (std::size_t n = 0; n < sh.size; ++n) {
            if (!f.applies_to_node(sh.offset + n)) continue;
            if (fault_rng.uniform() < f.probability) {
              drop(sh, n, kReadingDropped | kDropCounted);
            }
          }
        }
      } else if (f.family == faults::FaultFamily::kIslandDropout) {
        for (Shard& sh : shards) {
          if (!f.applies_to_island(sh.index)) continue;
          if (fault_rng.uniform() < f.probability) {
            ++out.faults.island_dropouts;
            for (std::size_t n = 0; n < sh.size; ++n) {
              drop(sh, n, kReadingDropped);
            }
          }
        }
      }
    }

    // Parallel phase: each worker owns whole shards; every RNG draw in
    // here comes from a shard-local stream. Each shard ends by stepping
    // its island's EARGM manager on its own readings.
    if (crew) {
      crew_round = round;
      crew->run(shards.size());
    } else {
      for (Shard& sh : shards) sh.advance_round(cfg.round_s, round);
    }

    // Serial merge in shard-index order — the same readings arithmetic
    // and completion order as the reference loop's per-round tail. The
    // ground-truth total folds the shards' readings in the reference
    // sweep's node order.
    double total_w = 0.0;
    for (const Shard& sh : shards) {
      for (const double w : sh.readings_w) total_w += w;
      out.faults.dropped_readings += sh.hidden_readings;
    }
    if (!std::isfinite(total_w)) nonfinite = true;
    out.peak_power_w = std::max(out.peak_power_w, total_w);

    if (cfg.budget.value > 0.0) {
      const double overrun = total_w - cfg.budget.value;
      if (overrun > 0.0) {
        ++out.cap_overrun_rounds;
        out.worst_overrun_w = std::max(out.worst_overrun_w, overrun);
      }
      if (now >= last_fault_end_s && overrun > slack_w && !degraded) {
        if (++consecutive_over > cfg.overrun_grace) ++persistent_overruns;
      } else {
        consecutive_over = 0;
      }
    }

    // Cluster tier: the islands stepped inside the shards; log their
    // steps in island order and re-split the cap for the next round.
    if (federation) federation->update_cluster();

    // Completions: settle the jobs the shards listed as drained in
    // admission order; a finished job frees its allocation for next
    // round's admission.
    std::vector<std::size_t> due;
    for (const Shard& sh : shards) {
      for (std::size_t j : sh.drained) due.push_back(job_running[j]);
    }
    std::sort(due.begin(), due.end());
    for (std::size_t ri : due) {
      const RunningJob& rj = running[ri];
      Shard& sh = shards[rj.island];
      double end_inm = 0.0;
      for (std::size_t local : rj.local_nodes) {
        end_inm += sh.slots[local].prev_inm_j;
        sh.slots[local].job = kNoJob;
      }
      FacilityJobOutcome& o = out.jobs[rj.job];
      o.end_s = round_end;
      o.energy_j = end_inm - rj.start_inm_j;
      if (!std::isfinite(o.energy_j)) nonfinite = true;
      out.makespan_s = std::max(out.makespan_s, o.end_s);
      queue.release(rj.island, rj.local_nodes);
      --live_jobs;
    }
    out.rounds = round + 1;

    if (live_jobs == 0 && queue.all_started()) break;
  }
  out.walls.build_s =
      std::chrono::duration<double>(wall_t1 - wall_t0).count();
  out.walls.core_s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - wall_t1).count();

  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& sh = shards[i];
    FacilityIslandOutcome io;
    io.node_type = cfg.islands[i].node_config.name;
    io.nodes = sh.size;
    for (std::size_t n = 0; n < sh.size; ++n) {
      io.energy_j += sh.slots[n].prev_inm_j;
    }
    if (!std::isfinite(io.energy_j)) nonfinite = true;
    if (federation) {
      const eargm::EargmManager& m = federation->island(i);
      io.final_budget_w = federation->island_budget(i).value;
      io.final_limit = m.current_limit();
      io.throttles = m.throttle_events();
      io.releases = m.release_events();
      io.blind_rounds = m.blind_rounds();
      io.missed_readings = m.missed_readings();
      io.resumed_nodes = m.resumed_nodes();
    }
    out.facility_energy_j += io.energy_j;
    out.islands.push_back(std::move(io));
  }
  if (federation) {
    out.redistributions = federation->redistributions();
    out.facility_blind_rounds = federation->facility_blind_rounds();
    out.faults.missed_readings = federation->total_missed_readings();
  }
  out.backfills = queue.backfills();
  out.peak_pending_jobs = queue.peak_pending();

  if (nonfinite) {
    out.violations.push_back("non-finite energy/power in ground truth");
  }
  if (wedged) {
    out.violations.push_back("facility wedged: max_sim_s reached with " +
                             std::to_string(live_jobs) +
                             " jobs running");
  }
  if (persistent_overruns > 0) {
    out.violations.push_back(
        "cap overrun beyond " +
        common::AsciiTable::num(cfg.cap_slack_pct, 0) +
        "% slack persisted past the grace window in " +
        std::to_string(persistent_overruns) + " rounds");
  }
  return out;
}

}  // namespace ear::sim
