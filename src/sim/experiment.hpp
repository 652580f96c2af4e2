// Experiment engine: run one application on a simulated cluster with EARL
// attached, and collect the metrics the paper's tables report.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "earl/library.hpp"
#include "eargm/eargm.hpp"
#include "faults/fault_plan.hpp"
#include "simhw/cluster.hpp"
#include "workload/phase.hpp"

namespace ear::sim {

/// Observation hook for one run: the engine reports node-0's phase
/// boundaries and per-iteration operating point / runtime state as they
/// happen. This is the record side of the service-layer record/replay
/// traces (service::TraceRecorder); the hook is null by default and the
/// engine takes the exact same path — observers read, never steer.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  struct IterationSample {
    std::size_t phase = 0;      // phase index within the app
    std::size_t iteration = 0;  // global iteration index
    double t_s = 0.0;           // node-0 simulated clock after the iteration
    common::Freq cpu_freq;
    common::Freq imc_freq;
    common::Power dc_power;
    /// EarlSession::State of node 0 shifted by one (1 = kNoLoop, ...);
    /// 0 = EARL not attached to this run.
    std::uint8_t earl_state = 0;
    /// Signatures node 0's session has computed so far (0 when detached).
    std::size_t signatures = 0;
  };

  virtual void phase_begin(std::size_t phase, std::size_t iterations) = 0;
  virtual void iteration(const IterationSample& sample) = 0;
};

struct ExperimentConfig {
  workload::AppModel app;
  earl::EarlSettings earl{};
  bool attach_earl = true;  // false = raw run without the runtime
  std::uint64_t seed = 1;
  simhw::NoiseModel noise{};
  /// Fixed operating point applied before the run (the paper's Fig. 1
  /// motivation sweeps): a CPU P-state and/or a pinned uncore window.
  /// Usually combined with attach_earl = false.
  std::optional<simhw::Pstate> fixed_cpu_pstate;
  std::optional<simhw::UncoreRatioLimit> fixed_uncore_window;
  /// Attach the EARGM cluster power manager with this configuration.
  std::optional<eargm::EargmConfig> eargm;
  /// Programme IA32_ENERGY_PERF_BIAS on every socket (0 = performance,
  /// 15 = powersave; >= 8 biases the HW UFS loop one bin lower).
  std::optional<std::uint64_t> energy_perf_bias;
  /// Arm a fault plan (chaos mode): a FaultInjector applies it through
  /// the simhw/eard hook points for the whole run. Null (the default)
  /// installs no hooks at all — results are bitwise identical to a build
  /// without the fault layer.
  std::shared_ptr<const faults::FaultPlan> fault_plan;
  /// Keep every `timeline_stride`-th node-0 timeline sample (0/1 = all).
  /// Campaign sweeps that only read the averaged scalars set this high to
  /// skip the per-iteration timeline work; scalar results are unaffected.
  std::size_t timeline_stride = 1;
  /// Per-run observation hook (record/replay traces). Not owned; must
  /// outlive the run. Null = no observation, bit-identical engine path.
  /// Unlike the timeline, observation is never strided: a replay trace
  /// is a full-fidelity decision stream.
  RunObserver* observer = nullptr;
};

/// One sample of node 0's operating point (per application iteration).
struct TimelinePoint {
  double t_s = 0.0;
  double cpu_ghz = 0.0;
  double imc_ghz = 0.0;
  double dc_power_w = 0.0;
};

/// Per-node outcome of one run.
struct NodeResult {
  double elapsed_s = 0.0;
  double energy_j = 0.0;       // DC node energy (exact INM ground truth)
  double pkg_energy_j = 0.0;   // RAPL PKG, wrap-corrected by polling
  double avg_dc_power_w = 0.0;
  double avg_pkg_power_w = 0.0;
  double avg_cpu_ghz = 0.0;
  double avg_imc_ghz = 0.0;
  double cpi = 0.0;
  double tpi = 0.0;
  double gbps = 0.0;
  double vpi = 0.0;
  std::size_t signatures = 0;
  std::uint64_t msr_writes = 0;
  /// Resilience accounting (all zero on fault-free runs).
  std::size_t rejected_windows = 0;
  std::size_t reanchors = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t reprobes = 0;
  bool degraded = false;  // session fell back to HW-UFS/CPU-only mid-run
};

/// Whole-job outcome.
struct RunResult {
  double total_time_s = 0.0;    // slowest node
  double total_energy_j = 0.0;  // sum over nodes
  double avg_dc_power_w = 0.0;  // per-node average
  double avg_pkg_power_w = 0.0;
  double avg_cpu_ghz = 0.0;
  double avg_imc_ghz = 0.0;
  double cpi = 0.0;
  double gbps = 0.0;  // per-node average
  std::vector<NodeResult> nodes;
  /// Node-0 operating-point timeline (one sample per iteration, or per
  /// `timeline_stride` iterations).
  std::vector<TimelinePoint> timeline;
  /// EARGM statistics when a cluster budget was configured.
  std::size_t eargm_throttles = 0;
  simhw::Pstate eargm_final_limit = 0;
  /// Fault accounting: injected counts from the injector plus detected /
  /// recovered counts from the resilience layers. All zero when no plan
  /// was armed.
  faults::FaultReport fault_report;
  /// Chronological fault timeline (empty when no plan was armed).
  std::vector<faults::FaultEvent> fault_events;
};

/// Execute one run. The learned models for the app's node type are cached
/// process-wide (the learning phase runs once per architecture, as in the
/// real system).
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& cfg);

/// Access to the process-wide learned-model cache (benches reuse it).
[[nodiscard]] const models::LearnedModels& cached_models(
    const simhw::NodeConfig& cfg);

}  // namespace ear::sim
