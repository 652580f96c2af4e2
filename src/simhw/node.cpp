#include "simhw/node.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ear::simhw {

using common::Freq;
using common::Joules;
using common::Secs;

namespace {
/// Clock droop of busy cores vs the requested P-state (package C-state
/// exits, thermal management); makes a 2.40 GHz request read as ~2.39.
constexpr double kCoreFreqDroop = 0.995;
/// Frequency idle cores report through APERF/MPERF-style averaging.
const Freq kIdleReportFreq = Freq::ghz(2.0);

PowerBreakdown scale(PowerBreakdown p, double factor) {
  p.base.value *= factor;
  p.cores.value *= factor;
  p.uncore.value *= factor;
  p.dram.value *= factor;
  p.gpu.value *= factor;
  return p;
}

/// Time-averaged clock of an active core: the VPI-weighted blend of the
/// requested frequency and the AVX512 licence cap, in kHz.
double active_core_khz(const NodeConfig& cfg, const WorkDemand& demand,
                       Freq f_cpu) {
  const Freq f_cap = cfg.pstates.avx512_effective(f_cpu);
  return (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
         demand.vpi * static_cast<double>(f_cap.as_khz());
}

/// Reported core clock: AVX512 licence throttling shows up in the
/// APERF-style average (the paper's DGEMM reads 2.19 against a 2.40
/// request), and idle cores dilute it on mostly-idle nodes.
double reported_core_khz(const NodeConfig& cfg, const WorkDemand& demand,
                         Freq f_cpu) {
  const double active_khz = active_core_khz(cfg, demand, f_cpu);
  const double active = static_cast<double>(demand.active_cores);
  const double idle =
      static_cast<double>(cfg.total_cores() - demand.active_cores);
  const double total = static_cast<double>(cfg.total_cores());
  return total > 0.0
             ? (active * active_khz * kCoreFreqDroop +
                idle * static_cast<double>(kIdleReportFreq.as_khz())) /
                   total
             : 0.0;
}
/// One governor per modelled socket, seeded in socket order from the
/// node seed; the entries past the config's socket count are never run.
std::array<HwUfsGovernor, kMaxSockets> make_governors(const NodeParams& p,
                                                      std::uint64_t seed) {
  static_assert(kMaxSockets == 2);
  EAR_CHECK_MSG(p.config.sockets >= 1 && p.config.sockets <= kMaxSockets,
                "node config has more sockets than a node models");
  common::SplitMix64 seeder(seed ^ 0x5eed);
  const std::uint64_t s0 = seeder.next();
  const std::uint64_t s1 = seeder.next();
  return {HwUfsGovernor(p.config, p.ufs, s0),
          HwUfsGovernor(p.config, p.ufs, s1)};
}
}  // namespace

SimNode::SimNode(std::shared_ptr<const NodeParams> params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      pstate_(config().pstates.nominal_pstate()),
      governors_(make_governors(*params_, seed)),
      rapl_(config().sockets) {
  // After boot the register holds the full supported window.
  for (MsrFile& m : msrs_) {
    m.set_uncore_limit(
        {.max_freq = config().uncore.max(), .min_freq = config().uncore.min()});
  }
}

void SimNode::set_cpu_pstate(Pstate p) {
  EAR_CHECK_MSG(p < config().pstates.size(), "pstate out of range");
  pstate_ = p;
}

MsrFile& SimNode::msr(std::size_t socket) {
  EAR_CHECK(socket < config().sockets);
  return msrs_[socket];
}

const MsrFile& SimNode::msr(std::size_t socket) const {
  EAR_CHECK(socket < config().sockets);
  return msrs_[socket];
}

void SimNode::set_uncore_limit_all(const UncoreRatioLimit& limit) {
  for (std::size_t s = 0; s < config().sockets; ++s) {
    msrs_[s].set_uncore_limit(limit);
  }
}

UncoreRatioLimit SimNode::uncore_limit() const {
  return msrs_.front().uncore_limit();
}

Freq SimNode::uncore_freq() const { return governors_.front().current(); }

const HwUfsGovernor& SimNode::governor(std::size_t socket) const {
  EAR_CHECK(socket < config().sockets);
  return governors_[socket];
}

Freq SimNode::run_governor(const UfsInputs& in, Secs duration) {
  // The loop re-evaluates every ~10 ms; average its output across the
  // periods an iteration spans (bounded to keep long iterations cheap —
  // beyond a few hundred periods the average has converged anyway).
  const double period = params_->ufs.evaluation_period_s;
  const auto periods = static_cast<std::size_t>(std::clamp(
      duration.value / period, 1.0, 400.0));
  const UncoreRatioLimit limit = msrs_.front().uncore_limit();
  // One call steps every socket's governor (each on its own rng stream);
  // the last socket drives the reported value, and the other sockets
  // track identically because EAR applies node-level workloads
  // symmetrically.
  const double sum_khz =
      HwUfsGovernor::evaluate_periods(governors(), in, limit, periods);
  return Freq::khz(static_cast<std::uint64_t>(
      sum_khz / static_cast<double>(periods)));
}

UfsInputs SimNode::busy_inputs(const WorkDemand& demand, Freq f_cpu) const {
  UfsInputs inputs{
      .requested_core_freq = f_cpu,
      // The effective clock the governor keys on.
      .effective_core_freq = Freq::khz(static_cast<std::uint64_t>(
          active_core_khz(config(), demand, f_cpu))),
      .bw_utilisation = last_bw_,
      .relaxed_fraction = demand.relaxed_wait_fraction,
      .active_cores = demand.active_cores,
      .epb = msrs_.front().read(kMsrEnergyPerfBias),
  };
  if (inputs.epb == 0) inputs.epb = 6;  // unprogrammed MSR -> default bias
  return inputs;
}

IterationOutcome SimNode::execute_iteration(const WorkDemand& demand) {
  const Freq f_cpu = cpu_freq();
  const UfsInputs inputs = busy_inputs(demand, f_cpu);

  // First pass: estimate duration at the governor's current setting to
  // know how many control periods the iteration spans.
  const PerfResult estimate = evaluate_iteration(
      config(), demand, f_cpu, governors_.front().current());
  const Freq f_imc = run_governor(inputs, estimate.iter_time);

  const IterationOutcome out = finish_busy(
      demand, evaluate_iteration(config(), demand, f_cpu, f_imc), f_cpu,
      f_imc);
  deposit_energy(out.power, out.perf.iter_time);

  // PMU counters (node aggregated).
  const double dt = out.perf.iter_time.value;
  const double active = static_cast<double>(demand.active_cores);
  counters_.instructions += out.perf.instructions_per_core * active;
  counters_.cycles += out.perf.cycles_per_core * active;
  counters_.avx512_ops += demand.vpi * demand.instructions_per_core * active;
  counters_.cas_transactions += out.perf.bytes / 64.0;
  counters_.cpu_freq_cycles += reported_core_khz(config(), demand, f_cpu) * dt;
  counters_.imc_freq_cycles += static_cast<double>(f_imc.as_khz()) * dt;
  counters_.elapsed_seconds += dt;
  counters_.wait_seconds += demand.comm_seconds + demand.gpu_seconds;
  return out;
}

StretchPlan SimNode::make_plan(const WorkDemand& demand, Freq f_cpu,
                               std::uint64_t uncore_limit_raw,
                               std::uint64_t epb_raw) const {
  const UfsInputs inputs = busy_inputs(demand, f_cpu);
  // Every socket's governor shares this node's config and UFS tuning, so
  // one summary stands for all of them (run_governor's last socket).
  const UfsStretchSummary s = governors_.front().summarise(
      inputs, UncoreRatioLimit::decode(uncore_limit_raw));
  // Dither-free this is bitwise run_governor's khz(sum/periods): the sum
  // is exactly steady*periods, so the quotient is exact and the
  // truncation lands on the same integer. Dithered, the Bernoulli
  // per-period average is replaced by its expectation.
  const Freq f_imc = s.expected_freq(params_->ufs.dither_probability);
  const PerfResult perf = evaluate_iteration(config(), demand, f_cpu, f_imc);
  return StretchPlan{.pstate = pstate_,
                     .uncore_limit_raw = uncore_limit_raw,
                     .epb_raw = epb_raw,
                     .bw_feedback = last_bw_,
                     .steady = s.steady,
                     .f_imc = f_imc,
                     .iter_time = perf.iter_time,
                     .bytes = perf.bytes,
                     .cpi = perf.cpi,
                     .avx512_fraction = perf.avx512_fraction,
                     .bw_utilisation = perf.bw_utilisation};
}

StretchSummary SimNode::execute_stretch(const WorkDemand& demand,
                                        StretchPlan& plan,
                                        std::size_t max_iters,
                                        double stop_before_s) {
  StretchSummary out;
  // The caller guarantees no control-plane mutation mid-stretch, so of
  // the plan's key only the bandwidth feedback can move inside the loop:
  // it reaches its fixed point after the first iteration, because it is
  // a pure function of the plan itself.
  const Freq f_cpu = cpu_freq();
  const std::uint64_t limit_raw = msrs_.front().read(kMsrUncoreRatioLimit);
  const std::uint64_t epb_raw = msrs_.front().read(kMsrEnergyPerfBias);
  while (out.iterations < max_iters && clock_.value < stop_before_s) {
    if (plan.bw_feedback != last_bw_ || plan.pstate != pstate_ ||
        plan.uncore_limit_raw != limit_raw || plan.epb_raw != epb_raw) {
      plan = make_plan(demand, f_cpu, limit_raw, epb_raw);
    }
    PerfResult perf{};
    perf.iter_time = plan.iter_time;
    perf.bytes = plan.bytes;
    perf.cpi = plan.cpi;
    perf.avx512_fraction = plan.avx512_fraction;
    perf.bw_utilisation = plan.bw_utilisation;
    inm_.add_exact(finish_busy(demand, perf, f_cpu, plan.f_imc).energy);
    ++out.iterations;
    out.uncore_freq = plan.f_imc;
  }
  // Every socket's governor ends where integrate_stretch leaves it for
  // the last iteration's key.
  if (out.iterations > 0) {
    for (HwUfsGovernor& g : governors()) g.hold(plan.steady);
  }
  return out;
}

IterationOutcome SimNode::finish_busy(const WorkDemand& demand,
                                      PerfResult perf, Freq f_cpu,
                                      Freq f_imc) {
  const NoiseModel& noise = params_->noise;
  // Run-to-run noise: jitter the wall time (OS, network, DRAM refresh...).
  const double tnoise =
      std::max(0.5, 1.0 + rng_.normal(0.0, noise.time_sigma));
  perf.iter_time.value *= tnoise;
  perf.gbps = perf.iter_time.value > 0.0
                  ? perf.bytes / perf.iter_time.value / 1e9
                  : 0.0;

  PowerBreakdown power =
      evaluate_power(config(), demand, perf, f_cpu, f_imc);
  const double pnoise =
      std::max(0.5, 1.0 + rng_.normal(0.0, noise.power_sigma));
  power = scale(power, pnoise);

  const Secs dt = perf.iter_time;
  clock_ += dt;
  last_bw_ = perf.bw_utilisation;

  return IterationOutcome{.perf = perf,
                          .power = power,
                          .uncore_freq = f_imc,
                          .energy = power.total() * dt};
}

void SimNode::deposit_energy(const PowerBreakdown& power, Secs dt) {
  // Package energy splits evenly across sockets.
  const Joules pkg_each = power.package() * dt;
  const std::size_t sockets = config().sockets;
  for (std::size_t s = 0; s < sockets; ++s) {
    rapl_.deposit_pkg(
        s, Joules{pkg_each.value / static_cast<double>(sockets)});
  }
  rapl_.deposit_dram(power.dram * dt);
  inm_.deposit(power.total() * dt, dt);
}

void SimNode::idle(Secs dt) {
  EAR_CHECK(dt.value >= 0.0);
  if (dt.value == 0.0) return;
  PerfResult perf{};
  perf.iter_time = dt;
  const Freq f_imc = run_governor(
      UfsInputs{.requested_core_freq = cpu_freq(),
                .effective_core_freq = cpu_freq(),
                .bw_utilisation = 0.0,
                .relaxed_fraction = 1.0,
                .active_cores = 0,
                .epb = 6},
      dt);
  // The default demand is the idle one: no active cores, no GPU work.
  deposit_energy(
      evaluate_power(config(), WorkDemand{}, perf, cpu_freq(), f_imc), dt);
  counters_.elapsed_seconds += dt.value;
  counters_.cpu_freq_cycles +=
      static_cast<double>(kIdleReportFreq.as_khz()) * dt.value;
  counters_.imc_freq_cycles +=
      static_cast<double>(f_imc.as_khz()) * dt.value;
  clock_ += dt;
}

void SimNode::idle_cached(Secs dt) {
  EAR_CHECK(dt.value >= 0.0);
  if (dt.value == 0.0) return;
  const Freq f_cpu = cpu_freq();
  // The governor must run unconditionally: it owns the per-socket UFS
  // state (current frequency, limit windowing) that uncore_freq() and
  // later busy stretches observe. settle_idle is the idle special case
  // of run_governor — draw-free, bitwise the same result and state for
  // any period count — without the per-period input vector and
  // averaging. The last socket drives the value, like run_governor.
  const UncoreRatioLimit limit = msrs_.front().uncore_limit();
  Freq f_imc{};
  for (HwUfsGovernor& g : governors()) f_imc = g.settle_idle(limit);
  if (!idle_cache_valid_ || idle_cache_f_cpu_.as_khz() != f_cpu.as_khz() ||
      idle_cache_f_imc_.as_khz() != f_imc.as_khz()) {
    PerfResult perf{};
    perf.iter_time = dt;  // unused by the idle breakdown (no GPU work)
    idle_cache_w_ =
        evaluate_power(config(), WorkDemand{}, perf, f_cpu, f_imc).total();
    idle_cache_f_cpu_ = f_cpu;
    idle_cache_f_imc_ = f_imc;
    idle_cache_valid_ = true;
  }
  // idle()'s energy, power.total() * dt, bit for bit.
  inm_.add_exact(idle_cache_w_ * dt);
  clock_ += dt;
}

}  // namespace ear::simhw
