// SimNode: one simulated compute node.
//
// Holds the node's mutable state inline: per-socket MSR files and UFS
// governors, PMU, RAPL and INM counters, clock and noise stream. The
// immutable part — NodeConfig, noise model, UFS tuning — is one
// NodeParams block shared by every node of a cluster. EARL/EARD talk to
// a node only through the narrow interfaces real hardware offers
// (P-state request, MSR writes, counter reads).
//
// Two families of driver methods advance a node; drive a node with one
// family only:
//  * execute_iteration / idle — the paper path (run_experiment, the
//    facility test oracle): every counter is maintained.
//  * execute_stretch / idle_cached — the facility event core, which reads
//    only inm().exact() and clock(): they advance the clock, governors,
//    noise stream, bandwidth feedback and INM exact total (with its
//    non-negative-energy check), and leave RAPL, PMU and the INM
//    published reading and elapsed time untouched.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/counters.hpp"
#include "simhw/demand.hpp"
#include "simhw/hw_ufs.hpp"
#include "simhw/inm.hpp"
#include "simhw/msr.hpp"
#include "simhw/perf_model.hpp"
#include "simhw/power_model.hpp"
#include "simhw/rapl.hpp"

namespace ear::simhw {

/// Run-to-run measurement/execution variation, applied per iteration.
struct NoiseModel {
  double time_sigma = 0.004;   // relative jitter on iteration time
  double power_sigma = 0.005;  // relative jitter on node power
};

/// What one executed iteration looked like (ground truth; EARL sees only
/// the counter deltas).
struct IterationOutcome {
  PerfResult perf;
  PowerBreakdown power;
  common::Freq uncore_freq;  // time-averaged over the iteration
  common::Joules energy;     // DC node energy of the iteration
};

/// What a phase-stable stretch looked like (see execute_stretch).
struct StretchSummary {
  std::size_t iterations = 0;   // iterations actually executed
  common::Freq uncore_freq{};   // closed-form IMC setting of the last
                                // iteration (default when none ran)
};

/// One job's busy operating point, shared by every node of the job (the
/// facility event core keeps one per running job, beside its WorkDemand).
/// Everything a busy iteration computes before its noise draws is a pure
/// function of the job's demand and the key below: the governor summary,
/// the expected IMC frequency and the noise-free kernel result. A job's
/// nodes share that key after their first iteration (the bandwidth
/// feedback is itself a function of the plan), so the plan is computed
/// once per job and operating point and replayed on every node-round.
/// Valid only for one demand on one NodeParams block: one job, one island.
struct StretchPlan {
  // Key: the node state the operating point depends on. A NaN feedback
  // matches no node, so a default plan is always recomputed.
  Pstate pstate = 0;
  std::uint64_t uncore_limit_raw = 0;  // MSR 0x620 as the node holds it
  std::uint64_t epb_raw = 0;           // MSR 0x1B0 as the node holds it
  double bw_feedback = std::numeric_limits<double>::quiet_NaN();
  // Value.
  common::Freq steady{};  // governor steady selection: every socket's
                          // current() after the stretch
  common::Freq f_imc{};   // expected IMC frequency of an iteration
  // The noise-free kernel result, trimmed to what finish_busy reads.
  common::Secs iter_time{};
  double bytes = 0.0;
  double cpi = 0.0;
  double avx512_fraction = 0.0;
  double bw_utilisation = 0.0;
};

/// What every node of a cluster shares and never changes. The node's
/// governors point into it, so it must not move while a node uses it
/// (it lives behind a shared_ptr).
struct NodeParams {
  NodeConfig config;
  NoiseModel noise;
  HwUfsParams ufs;
};

class SimNode {
 public:
  /// A node on a shared parameter block. Configs with more than
  /// kMaxSockets sockets (or none) are rejected.
  SimNode(std::shared_ptr<const NodeParams> params, std::uint64_t seed);
  /// A node with a parameter block of its own.
  SimNode(NodeConfig cfg, std::uint64_t seed, NoiseModel noise = {},
          HwUfsParams ufs = {})
      : SimNode(std::make_shared<const NodeParams>(
                    NodeParams{std::move(cfg), noise, ufs}),
                seed) {}

  // --- Control interfaces (what EARD exposes) ---------------------------
  /// Request a P-state for all cores (EAR pins the whole node).
  void set_cpu_pstate(Pstate p);
  void set_cpu_freq(common::Freq f) {
    set_cpu_pstate(config().pstates.pstate_for(f));
  }
  [[nodiscard]] Pstate cpu_pstate() const { return pstate_; }
  [[nodiscard]] common::Freq cpu_freq() const {
    return config().pstates.freq(pstate_);
  }

  /// Per-socket MSR access (privileged; EARD is the only caller in the
  /// real system). Writing UNCORE_RATIO_LIMIT constrains the governor.
  [[nodiscard]] MsrFile& msr(std::size_t socket);
  [[nodiscard]] const MsrFile& msr(std::size_t socket) const;
  /// Convenience: write the same uncore window on every socket.
  void set_uncore_limit_all(const UncoreRatioLimit& limit);
  [[nodiscard]] UncoreRatioLimit uncore_limit() const;

  // --- Measurement interfaces -------------------------------------------
  [[nodiscard]] const PmuCounters& counters() const { return counters_; }
  [[nodiscard]] const RaplDomains& rapl() const { return rapl_; }
  [[nodiscard]] const NodeManagerCounter& inm() const { return inm_; }
  [[nodiscard]] common::Secs clock() const { return clock_; }

  // --- Simulation driver -------------------------------------------------
  /// Execute one application iteration under the current settings.
  IterationOutcome execute_iteration(const WorkDemand& demand);

  /// Execute up to `max_iters` iterations of the same demand, stopping
  /// before any iteration that would *start* at or past `stop_before_s`
  /// (node clock) — the facility round-boundary rule, where the last
  /// iteration may overshoot the boundary. The control settings (P-state,
  /// MSR window, EPB) must not change mid-stretch; the caller owns that
  /// invariant (facility rounds only mutate them at barriers).
  ///
  /// The per-iteration governor period loop is replaced by its closed
  /// form (HwUfsGovernor::summarise), and everything an iteration
  /// computes before its noise draws — effective clock, governor target,
  /// perf model result — comes from `plan`, recomputed (and overwritten)
  /// only when its key no longer matches the node. Every socket's
  /// current() ends at the plan's steady value, as integrate_stretch
  /// leaves it. The per-iteration noise draws still happen, in the same
  /// order and from the same stream as execute_iteration. Facility
  /// family (file comment), so:
  ///   * with the dither gate closed (dither_probability == 0, or no
  ///     headroom above the uncore floor) the state the family maintains
  ///     is bitwise what a loop of execute_iteration leaves;
  ///   * with dithering, the per-iteration random IMC average is
  ///     replaced by its expectation — bounded by one 100 MHz dither bin
  ///     scaled by the dither probability (see docs/performance.md).
  ///
  /// Bitwise the same for any plan passed in: a plan shared by every node
  /// of a job leaves each node exactly as a fresh plan per call does.
  StretchSummary execute_stretch(const WorkDemand& demand, StretchPlan& plan,
                                 std::size_t max_iters,
                                 double stop_before_s);
  /// execute_stretch with a plan of its own.
  StretchSummary execute_stretch(const WorkDemand& demand,
                                 std::size_t max_iters,
                                 double stop_before_s) {
    StretchPlan plan;
    return execute_stretch(demand, plan, max_iters, stop_before_s);
  }

  /// Advance idle time (no application work; cores idle).
  void idle(common::Secs dt);

  /// idle() in the facility family (file comment), with the idle power
  /// total cached on the (core frequency, governor output) pair: idle
  /// power is duration-independent — no active cores, no GPU work, zero
  /// bandwidth — so it only changes when the P-state or the uncore window
  /// moves. The governor still runs every call (it owns the per-socket
  /// UFS state). The state the family maintains is bitwise what idle()
  /// leaves (proved in test_node.cpp).
  void idle_cached(common::Secs dt);

  [[nodiscard]] const NodeConfig& config() const { return params_->config; }
  /// The shared immutable block (one per Cluster).
  [[nodiscard]] const NodeParams& params() const { return *params_; }
  /// Current (last-period) uncore frequency of socket 0.
  [[nodiscard]] common::Freq uncore_freq() const;
  /// Socket `socket`'s UFS governor and the node's noise stream, for
  /// tests that compare their state after a call.
  [[nodiscard]] const HwUfsGovernor& governor(std::size_t socket) const;
  [[nodiscard]] const common::Rng& rng() const { return rng_; }

 private:
  /// The governors of the config's sockets.
  [[nodiscard]] std::span<HwUfsGovernor> governors() {
    return {governors_.data(), config().sockets};
  }

  /// Run the HW governor for the periods covering `duration` and return
  /// the time-averaged uncore frequency it produced.
  common::Freq run_governor(const UfsInputs& in, common::Secs duration);

  /// Governor inputs of a busy iteration at core frequency `f_cpu`.
  [[nodiscard]] UfsInputs busy_inputs(const WorkDemand& demand,
                                      Freq f_cpu) const;

  /// The stretch plan for the node's current key (execute_stretch).
  [[nodiscard]] StretchPlan make_plan(const WorkDemand& demand, Freq f_cpu,
                                      std::uint64_t uncore_limit_raw,
                                      std::uint64_t epb_raw) const;

  /// The tail every busy iteration shares: run-to-run noise on the
  /// noise-free kernel result `perf`, the power model, the clock and the
  /// bandwidth feedback. It deposits no energy or PMU count; each family
  /// deposits what it maintains.
  IterationOutcome finish_busy(const WorkDemand& demand, PerfResult perf,
                               Freq f_cpu, Freq f_imc);

  /// RAPL and INM deposits of `power` held for `dt`.
  void deposit_energy(const PowerBreakdown& power, common::Secs dt);

  // Hot state first: the facility family touches only the members up to
  // and including msrs_; counters_ and rapl_ are paper-family only.
  std::shared_ptr<const NodeParams> params_;
  common::Rng rng_;
  Pstate pstate_;
  common::Secs clock_{};
  NodeManagerCounter inm_;
  // Bandwidth utilisation of the previous busy iteration: the one
  // governor input a busy iteration feeds back (the loop is reactive).
  double last_bw_ = 0.5;
  // Cache for idle_cached(): the idle power total keyed on the
  // (core, uncore) frequency pair that produced it.
  bool idle_cache_valid_ = false;
  common::Freq idle_cache_f_cpu_{};
  common::Freq idle_cache_f_imc_{};
  common::Watts idle_cache_w_{};
  // Per socket; only the first config().sockets entries are live.
  std::array<HwUfsGovernor, kMaxSockets> governors_;
  std::array<MsrFile, kMaxSockets> msrs_{};
  PmuCounters counters_;
  RaplDomains rapl_;
};

}  // namespace ear::simhw
