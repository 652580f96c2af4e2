#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "eard/accounting.hpp"
#include "faults/injector.hpp"
#include "sim/schedule.hpp"

namespace ear::sim {

using common::ConfigError;

namespace {

/// Wrap-aware RAPL polling, as the node daemon does every few seconds:
/// single-wrap deltas per poll accumulate into a full-range total.
class RaplPoller {
 public:
  explicit RaplPoller(const simhw::SimNode& node) {
    for (std::size_t s = 0; s < node.config().sockets; ++s) {
      last_.push_back(node.rapl().pkg(s).raw());
    }
  }

  void poll(const simhw::SimNode& node) {
    for (std::size_t s = 0; s < last_.size(); ++s) {
      const std::uint32_t now = node.rapl().pkg(s).raw();
      total_j_ += simhw::RaplCounter::delta(last_[s], now).value;
      last_[s] = now;
    }
  }

  [[nodiscard]] double total_joules() const { return total_j_; }

 private:
  std::vector<std::uint32_t> last_;
  double total_j_ = 0.0;
};

/// One job on nodes [first, first + app.nodes) of a cluster: the EARL
/// sessions (one per node, as the real runtime runs), the accounting
/// records (or, without an Accounting, the INM baselines their
/// monotonic-energy check needs), the (phase, iteration) cursor with its
/// imbalance-scaled per-phase demands, and the PMU baselines for the
/// job-window averages.
/// run_experiment steps one JobRun over the whole cluster; run_schedule
/// interleaves one per job.
class JobRun {
 public:
  /// Attaches EARL to every node of the allocation (unless `attach` is
  /// false: a raw run) and opens one accounting record per node when
  /// `accounting` is given.
  JobRun(const workload::AppModel& app, const earl::EarlSettings& settings,
         bool attach, std::size_t first, simhw::Cluster& cluster,
         std::vector<eard::NodeDaemon>& daemons, eard::Accounting* accounting,
         std::uint64_t job_id, RunObserver* observer)
      : app_(app),
        first_(first),
        cluster_(cluster),
        accounting_(accounting),
        observer_(observer) {
    EAR_CHECK_MSG(!app.phases.empty(), "application has no phases");
    if (attach) {
      const simhw::NodeConfig& node_cfg = cluster.node(first).config();
      const earl::EarLibrary library(node_cfg, settings,
                                     cached_models(node_cfg));
      for (std::size_t k = 0; k < app.nodes; ++k) {
        sessions_.push_back(library.attach(daemons[first + k], app.is_mpi));
      }
    }
    if (accounting != nullptr) record_base_ = accounting->records().size();
    for (std::size_t k = 0; k < app.nodes; ++k) {
      const simhw::SimNode& node = cluster.node(first + k);
      start_.push_back(node.counters());
      if (accounting != nullptr) {
        (void)accounting->job_started(job_id, app.name, settings.policy,
                                      first + k, node);
      } else {
        start_joules_.push_back(node.inm().read_joules());
      }
    }
    enter_phase();
  }

  [[nodiscard]] bool done() const { return phase_ == app_.phases.size(); }
  /// Global index of the iteration the next step() runs.
  [[nodiscard]] std::size_t iteration() const { return iteration_; }

  /// The job's clock: its slowest allocated node.
  [[nodiscard]] double clock() const {
    double t = 0.0;
    for (std::size_t k = 0; k < app_.nodes; ++k) {
      t = std::max(t, cluster_.node(first_ + k).clock().value);
    }
    return t;
  }

  /// Run the cursor's iteration on every node, then advance the cursor.
  /// Per node k: pre(k), execute, post(k, outcome) — which still sees the
  /// operating point the iteration ran at — then the session processes
  /// the iteration and node 0 is observed. Both hooks are template
  /// parameters, so the per-node loop has no indirect call.
  template <class Pre, class Post>
  void step(Pre&& pre, Post&& post) {
    const workload::Phase& phase = app_.phases[phase_];
    for (std::size_t k = 0; k < demands_.size(); ++k) {
      pre(k);
      const simhw::IterationOutcome outcome =
          cluster_.node(first_ + k).execute_iteration(demands_[k]);
      post(k, outcome);
      if (!sessions_.empty()) {
        if (app_.is_mpi) {
          sessions_[k]->on_mpi_calls(phase.mpi_pattern);
        } else {
          sessions_[k]->on_time_tick();
        }
      }
      // Observe node 0 after its session processed the iteration, so the
      // sample carries the decision state *this* iteration ended in —
      // that is the stream a replay must reproduce exactly.
      if (k == 0 && observer_ != nullptr) observe(outcome);
    }
    ++iteration_;
    if (++in_phase_ >= phase.iterations) {
      ++phase_;
      enter_phase();
    }
  }

  /// Close the accounting records at the nodes' current clocks; without
  /// records, run the same monotonic-energy check job_ended makes.
  void finish() {
    for (std::size_t k = 0; k < app_.nodes; ++k) {
      const simhw::SimNode& node = cluster_.node(first_ + k);
      if (accounting_ != nullptr) {
        accounting_->job_ended(record_base_ + k, node);
      } else {
        EAR_CHECK_MSG(node.inm().read_joules() >= start_joules_[k],
                      "energy counter went backwards");
      }
    }
  }

  /// Node k's PMU counters over the job window (since attach).
  [[nodiscard]] simhw::PmuCounters window(std::size_t k) const {
    return cluster_.node(first_ + k).counters() - start_[k];
  }

  /// Null for a raw (EARL-less) run.
  [[nodiscard]] const earl::EarlSession* session(std::size_t k) const {
    return sessions_.empty() ? nullptr : sessions_[k].get();
  }

  struct Clocks {
    double cpu_ghz = 0.0;
    double imc_ghz = 0.0;
  };
  /// Job-window CPU and IMC clocks averaged over the job's nodes.
  [[nodiscard]] Clocks avg_clocks() const {
    Clocks c;
    for (std::size_t k = 0; k < app_.nodes; ++k) {
      const simhw::PmuCounters d = window(k);
      if (d.elapsed_seconds > 0.0) {
        c.cpu_ghz += d.avg_cpu_freq().as_ghz();
        c.imc_ghz += d.avg_imc_freq().as_ghz();
      }
    }
    const double nn = static_cast<double>(app_.nodes);
    c.cpu_ghz /= nn;
    c.imc_ghz /= nn;
    return c;
  }

 private:
  /// Enter phase_ (skipping empty phases): announce it and build its
  /// per-node demands, once per phase.
  void enter_phase() {
    in_phase_ = 0;
    for (; phase_ < app_.phases.size(); ++phase_) {
      const workload::Phase& phase = app_.phases[phase_];
      if (observer_ != nullptr) {
        observer_->phase_begin(phase_, phase.iterations);
      }
      if (phase.iterations > 0) break;
    }
    demands_.clear();
    if (done()) return;
    for (std::size_t k = 0; k < app_.nodes; ++k) {
      demands_.push_back(app_.node_demand(app_.phases[phase_], k));
    }
  }

  void observe(const simhw::IterationOutcome& outcome) {
    const simhw::SimNode& node = cluster_.node(first_);
    RunObserver::IterationSample sample{.phase = phase_,
                                        .iteration = iteration_,
                                        .t_s = node.clock().value,
                                        .cpu_freq = node.cpu_freq(),
                                        .imc_freq = outcome.uncore_freq,
                                        .dc_power = outcome.power.total()};
    if (!sessions_.empty()) {
      sample.earl_state = static_cast<std::uint8_t>(sessions_[0]->state()) + 1;
      sample.signatures = sessions_[0]->signatures_computed();
    }
    observer_->iteration(sample);
  }

  const workload::AppModel& app_;
  std::size_t first_;
  simhw::Cluster& cluster_;
  eard::Accounting* accounting_;  // null: no records, check only
  RunObserver* observer_;
  std::vector<std::unique_ptr<earl::EarlSession>> sessions_;
  std::vector<simhw::PmuCounters> start_;
  std::vector<std::uint64_t> start_joules_;  // INM baselines, no records
  std::size_t record_base_ = 0;
  std::size_t phase_ = 0;
  std::size_t in_phase_ = 0;   // iteration within phase_
  std::size_t iteration_ = 0;  // global iteration index
  std::vector<simhw::WorkDemand> demands_;  // phase_'s, per node
};

}  // namespace

const models::LearnedModels& cached_models(const simhw::NodeConfig& cfg) {
  // The global mutex only guards the (cheap) cache lookup; the expensive
  // learn_models call runs under a per-entry once_flag, so two threads
  // first-touching *different* node configs learn concurrently instead of
  // convoying behind one lock. std::map keeps entry addresses stable
  // across inserts, which is what lets the flag/models live outside the
  // lock. Cold path only: one lookup per run_experiment.
  struct Entry {
    std::once_flag once;
    models::LearnedModels models;
  };
  static std::mutex mu;
  static std::map<std::string, Entry> cache;
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[cfg.name];
  }
  std::call_once(entry->once,
                 [&] { entry->models = models::learn_models(cfg); });
  return entry->models;
}

RunResult run_experiment(const ExperimentConfig& cfg) {
  const workload::AppModel& app = cfg.app;

  simhw::Cluster cluster(app.node_config, app.nodes, cfg.seed, cfg.noise);
  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(app.nodes);
  std::vector<RaplPoller> rapl;
  for (std::size_t n = 0; n < app.nodes; ++n) {
    daemons.emplace_back(cluster.node(n));
    rapl.emplace_back(cluster.node(n));
  }
  // Arm the fault plan before EARL attaches, so attach-time probes
  // already run through the hooks (a plan can make the very first
  // writability probe fail, as a boot-time lock would).
  std::unique_ptr<faults::FaultInjector> injector;
  if (cfg.fault_plan != nullptr && !cfg.fault_plan->empty()) {
    injector = std::make_unique<faults::FaultInjector>(
        *cfg.fault_plan, common::mix_seed(cfg.seed, 0xFA171EULL),
        app.nodes);
    for (std::size_t n = 0; n < app.nodes; ++n) {
      injector->attach(n, cluster.node(n), daemons[n]);
    }
  }
  // No Accounting: nothing reads per-run records (run_schedule keeps
  // them for job_energy_j); finish() still checks the energy counters.
  JobRun job(app, cfg.earl, cfg.attach_earl, 0, cluster, daemons, nullptr,
             cfg.seed, cfg.observer);
  // Fixed operating points (motivation-style sweeps) are applied after
  // EARL's defaults so they win; they pin the node for the whole run.
  for (std::size_t n = 0; n < app.nodes; ++n) {
    if (cfg.fixed_cpu_pstate) {
      cluster.node(n).set_cpu_pstate(*cfg.fixed_cpu_pstate);
    }
    if (cfg.fixed_uncore_window) {
      cluster.node(n).set_uncore_limit_all(*cfg.fixed_uncore_window);
    }
    if (cfg.energy_perf_bias) {
      for (std::size_t s = 0; s < app.node_config.sockets; ++s) {
        cluster.node(n).msr(s).write(simhw::kMsrEnergyPerfBias,
                                     *cfg.energy_perf_bias);
      }
    }
  }

  std::unique_ptr<eargm::EargmManager> manager;
  if (cfg.eargm) {
    std::vector<eard::NodeDaemon*> ptrs;
    for (auto& d : daemons) ptrs.push_back(&d);
    manager = std::make_unique<eargm::EargmManager>(*cfg.eargm,
                                                    std::move(ptrs));
  }
  std::vector<double> round_power(app.nodes, 0.0);

  RunResult out;
  // The iteration count is known upfront; size the node-0 timeline once
  // instead of growing it geometrically through the run.
  const std::size_t stride = std::max<std::size_t>(1, cfg.timeline_stride);
  out.timeline.reserve((app.total_iterations() + stride - 1) / stride);
  out.nodes.reserve(app.nodes);
  while (!job.done()) {
    job.step(
        [&](std::size_t n) {
          if (injector) injector->poll(n);  // scheduled locks fire here
        },
        [&](std::size_t n, const simhw::IterationOutcome& outcome) {
          rapl[n].poll(cluster.node(n));
          round_power[n] = outcome.power.total().value;
          if (injector && injector->power_reading_dropped(n)) {
            // The node's report never reaches EARGM this round.
            round_power[n] = std::numeric_limits<double>::quiet_NaN();
          }
          if (n == 0 && job.iteration() % stride == 0) {
            out.timeline.push_back(TimelinePoint{
                .t_s = cluster.node(0).clock().value,
                .cpu_ghz = cluster.node(0).cpu_freq().as_ghz(),
                .imc_ghz = outcome.uncore_freq.as_ghz(),
                .dc_power_w = outcome.power.total().value,
            });
          }
        });
    if (manager) manager->update(round_power);
  }
  job.finish();
  if (manager) {
    out.eargm_throttles = manager->throttle_events();
    out.eargm_final_limit = manager->current_limit();
    out.fault_report.missed_readings = manager->missed_readings();
  }
  if (injector) {
    const faults::FaultReport& injected = injector->stats();
    out.fault_report.msr_drops = injected.msr_drops;
    out.fault_report.msr_locks = injected.msr_locks;
    out.fault_report.snapshot_faults = injected.snapshot_faults;
    out.fault_report.dropped_readings = injected.dropped_readings;
    out.fault_events = injector->events();
  }

  // Aggregate.
  for (std::size_t n = 0; n < app.nodes; ++n) {
    const simhw::SimNode& node = cluster.node(n);
    const simhw::PmuCounters c = job.window(n);
    NodeResult r;
    r.elapsed_s = node.clock().value;
    r.energy_j = node.inm().exact().value;
    r.pkg_energy_j = rapl[n].total_joules();
    r.avg_dc_power_w = r.elapsed_s > 0.0 ? r.energy_j / r.elapsed_s : 0.0;
    r.avg_pkg_power_w =
        r.elapsed_s > 0.0 ? r.pkg_energy_j / r.elapsed_s : 0.0;
    if (c.elapsed_seconds > 0.0) {
      r.avg_cpu_ghz = c.avg_cpu_freq().as_ghz();
      r.avg_imc_ghz = c.avg_imc_freq().as_ghz();
      r.gbps = c.cas_transactions * 64.0 / c.elapsed_seconds / 1e9;
    }
    if (c.instructions > 0.0) {
      r.cpi = c.cycles / c.instructions;
      r.tpi = c.cas_transactions / c.instructions;
      r.vpi = c.avx512_ops / c.instructions;
    }
    if (const earl::EarlSession* s = job.session(n)) {
      r.signatures = s->signatures_computed();
      r.rejected_windows = s->windows_rejected();
      r.reanchors = s->reanchors();
      r.degraded = s->degraded();
    }
    r.msr_writes = daemons[n].msr_writes();
    r.verify_failures = daemons[n].verify_failures();
    r.reprobes = daemons[n].reprobes();
    out.fault_report.rejected_windows += r.rejected_windows;
    out.fault_report.reanchors += r.reanchors;
    out.fault_report.verify_failures += r.verify_failures;
    out.fault_report.reprobes += r.reprobes;
    out.fault_report.fallbacks += r.degraded ? 1 : 0;
    // Settle-or-degrade: under an armed plan a session must either keep
    // producing signatures or have cleanly fallen back; one that went
    // silent without degrading is an invariant violation upstream.
    if (injector && cfg.attach_earl && r.signatures == 0 && !r.degraded) {
      ++out.fault_report.unsettled_nodes;
    }
    out.nodes.push_back(r);

    out.total_time_s = std::max(out.total_time_s, r.elapsed_s);
    out.total_energy_j += r.energy_j;
    out.avg_dc_power_w += r.avg_dc_power_w;
    out.avg_pkg_power_w += r.avg_pkg_power_w;
    out.cpi += r.cpi;
    out.gbps += r.gbps;
  }
  const double nn = static_cast<double>(app.nodes);
  out.avg_dc_power_w /= nn;
  out.avg_pkg_power_w /= nn;
  const JobRun::Clocks clocks = job.avg_clocks();
  out.avg_cpu_ghz = clocks.cpu_ghz;
  out.avg_imc_ghz = clocks.imc_ghz;
  out.cpi /= nn;
  out.gbps /= nn;
  return out;
}

ScheduleResult run_schedule(const ScheduleConfig& cfg) {
  EAR_CHECK_MSG(cfg.cluster_nodes > 0, "cluster needs nodes");
  EAR_CHECK_MSG(!cfg.jobs.empty(), "schedule needs jobs");

  // Validate allocations: inside the cluster and pairwise disjoint.
  std::vector<int> owner(cfg.cluster_nodes, -1);
  for (std::size_t j = 0; j < cfg.jobs.size(); ++j) {
    const JobSpec& job = cfg.jobs[j];
    if (job.first_node + job.app.nodes > cfg.cluster_nodes) {
      throw ConfigError("job '" + job.app.name +
                        "' allocated outside the cluster");
    }
    for (std::size_t n = job.first_node;
         n < job.first_node + job.app.nodes; ++n) {
      if (owner[n] != -1) {
        throw ConfigError("overlapping allocations on node " +
                          std::to_string(n));
      }
      owner[n] = static_cast<int>(j);
    }
  }

  simhw::Cluster cluster(cfg.node_config, cfg.cluster_nodes, cfg.seed,
                         cfg.noise);
  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(cfg.cluster_nodes);
  for (std::size_t n = 0; n < cfg.cluster_nodes; ++n) {
    daemons.emplace_back(cluster.node(n));
  }

  std::unique_ptr<eargm::EargmManager> manager;
  if (cfg.eargm) {
    std::vector<eard::NodeDaemon*> ptrs;
    for (auto& d : daemons) ptrs.push_back(&d);
    manager =
        std::make_unique<eargm::EargmManager>(*cfg.eargm, std::move(ptrs));
  }

  ScheduleResult out;
  // Last-known per-node power (EARGM input); idle nodes read 0 and are
  // reported at a probed idle wattage.
  std::vector<double> node_power(cfg.cluster_nodes, 0.0);
  std::vector<double> readings(cfg.cluster_nodes, 0.0);
  // Engaged at submission; a job has finished once its cursor is done.
  std::vector<std::optional<JobRun>> runs(cfg.jobs.size());
  std::vector<JobOutcome> outcomes(cfg.jobs.size());

  // Interleaved execution: always advance the unfinished job whose clock
  // is smallest, so cross-job ordering approximates global time and the
  // EARGM sees a coherent cluster state.
  for (;;) {
    std::size_t next = runs.size();
    double best = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < runs.size(); ++j) {
      if (runs[j] && runs[j]->done()) continue;
      const double t = runs[j] ? runs[j]->clock() : cfg.jobs[j].start_time_s;
      if (t < best) {
        best = t;
        next = j;
      }
    }
    if (next == runs.size()) break;  // all finished

    const JobSpec& spec = cfg.jobs[next];
    if (!runs[next]) {
      // Submission: idle the allocation up to the start time, then attach.
      for (std::size_t n = spec.first_node;
           n < spec.first_node + spec.app.nodes; ++n) {
        const double gap = spec.start_time_s - cluster.node(n).clock().value;
        if (gap > 0.0) cluster.node(n).idle(common::Secs{gap});
      }
      runs[next].emplace(spec.app, spec.earl, true, spec.first_node, cluster,
                         daemons, &out.accounting, next + 1, nullptr);
      outcomes[next] = JobOutcome{.app_name = spec.app.name,
                                  .policy = spec.earl.policy,
                                  .start_s = runs[next]->clock()};
    }
    JobRun& job = *runs[next];
    if (!job.done()) {  // an app of only empty phases is done at submission
      job.step([](std::size_t) {},
               [&](std::size_t k, const simhw::IterationOutcome& outcome) {
                 node_power[spec.first_node + k] =
                     outcome.power.total().value;
               });
    }
    if (job.done()) {
      job.finish();
      for (std::size_t k = 0; k < spec.app.nodes; ++k) {
        node_power[spec.first_node + k] = 0.0;  // allocation released
      }
      // Averages over the job window only (the allocation may have
      // idled before submission).
      const JobRun::Clocks clocks = job.avg_clocks();
      outcomes[next].end_s = job.clock();
      outcomes[next].avg_cpu_ghz = clocks.cpu_ghz;
      outcomes[next].avg_imc_ghz = clocks.imc_ghz;
    }

    // EARGM round: last-known powers; unallocated/idle nodes at a probed
    // idle wattage.
    double aggregate = 0.0;
    for (std::size_t n = 0; n < cfg.cluster_nodes; ++n) {
      readings[n] = node_power[n] > 0.0 ? node_power[n] : 85.0;
      aggregate += readings[n];
    }
    out.peak_aggregate_w = std::max(out.peak_aggregate_w, aggregate);
    if (manager) manager->update(readings);
  }

  // Trail idle nodes to the makespan so cluster energy covers the whole
  // horizon.
  for (const auto& o : outcomes) {
    out.makespan_s = std::max(out.makespan_s, o.end_s);
  }
  for (std::size_t n = 0; n < cfg.cluster_nodes; ++n) {
    const double gap = out.makespan_s - cluster.node(n).clock().value;
    if (gap > 0.0) cluster.node(n).idle(common::Secs{gap});
    out.cluster_energy_j += cluster.node(n).inm().exact().value;
  }
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    outcomes[j].energy_j = out.accounting.job_energy_j(j + 1);
  }
  out.jobs = std::move(outcomes);
  if (manager) out.eargm_throttles = manager->throttle_events();
  return out;
}

}  // namespace ear::sim
