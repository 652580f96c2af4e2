// Layer probes: each module's public calls timed from outside, on inputs
// derived from the seed, plus the node-iteration ledger. Every traced run
// makes them, whatever its workload.
//
// The node probes use the Skylake 6148 node and the default synthetic
// demand, the inputs of bench_micro's BM_NodeIteration.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dynais/dynais.hpp"
#include "eard/eard.hpp"
#include "eargm/federation.hpp"
#include "models/learning.hpp"
#include "policies/registry.hpp"
#include "simhw/config.hpp"
#include "simhw/hw_ufs.hpp"
#include "simhw/kernel_memo.hpp"
#include "simhw/node.hpp"
#include "simhw/power_model.hpp"
#include "simhw/rapl.hpp"
#include "sim/experiment.hpp"
#include "workload/catalog.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

using namespace ear;
using common::Freq;

constexpr std::size_t kCalls = 8000;
constexpr std::size_t kBatches = 7;
// Rounds of the interleaved node probes.
constexpr std::size_t kRounds = 15;
// The federation probe: 8 islands of 512 nodes.
constexpr std::size_t kFedIslands = 8;
constexpr std::size_t kFedIslandNodes = 512;
constexpr std::size_t kFedUpdates = 200;

/// Median over `batches` batches of the mean wall time per call of
/// `calls` calls to fn(i), in nanoseconds.
template <class Fn>
double ns_per_call(std::size_t calls, std::size_t batches, Fn&& fn) {
  std::vector<double> per_call;
  std::size_t i = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn(i++);
    per_call.push_back(seconds_since(t0) * 1e9 / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

/// Governor inputs of one iteration, built the way SimNode does.
simhw::UfsInputs iteration_inputs(const simhw::NodeConfig& cfg,
                                  const simhw::WorkDemand& demand, Freq f_cpu,
                                  double bw_utilisation) {
  const Freq f_cap = cfg.pstates.avx512_effective(f_cpu);
  return simhw::UfsInputs{
      .requested_core_freq = f_cpu,
      .effective_core_freq = Freq::khz(static_cast<std::uint64_t>(
          (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
          demand.vpi * static_cast<double>(f_cap.as_khz()))),
      .bw_utilisation = bw_utilisation,
      .relaxed_fraction = demand.relaxed_wait_fraction,
      .active_cores = demand.active_cores,
      .epb = 6,
  };
}

/// A probe: `run(calls)` makes `calls` calls of one public function.
struct Probe {
  const char* span;
  const char* metric;
  std::size_t calls;
  std::function<void(std::size_t calls)> run;
  std::vector<double> ns;  // per call, one entry per round
};

/// Run the probes round-robin, so that every probe, and the ledger built
/// from them, sees the same host conditions; returns the median ns per
/// call of each probe, in order.
std::vector<double> run_interleaved(std::vector<Probe>& probes,
                                    Report& report, Tracer& tracer,
                                    std::uint64_t parent) {
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (Probe& p : probes) {
      Tracer::Scope s(tracer, p.span, parent);
      const auto t0 = Clock::now();
      p.run(p.calls);
      p.ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(p.calls));
    }
  }
  std::vector<double> out;
  for (Probe& p : probes) {
    out.push_back(median(p.ns));
    report.metric(p.metric, out.back(), "ns");
  }
  return out;
}

/// Node-level probes and the node-iteration ledger.
void probe_node(std::uint64_t seed, Report& report, Tracer& tracer,
                std::uint64_t parent) {
  const simhw::NodeConfig cfg = simhw::make_skylake_6148_node();
  const simhw::WorkDemand demand =
      workload::make_demand(cfg, workload::SyntheticSpec{});
  const Freq f_cpu = cfg.pstates.freq(0);

  // The inputs of the calls execute_iteration makes, taken from a node
  // after one iteration: the governor's current setting (on the uncore
  // grid), the period-averaged setting (off it), the bandwidth the
  // governor reacts to and the number of control periods it runs.
  simhw::SimNode node(cfg, seed);
  (void)node.execute_iteration(demand);
  const Freq f_grid = node.uncore_freq();
  const simhw::IterationOutcome sample = node.execute_iteration(demand);
  const Freq f_avg = sample.uncore_freq;
  const simhw::PerfResult estimate =
      simhw::evaluate_iteration(cfg, demand, f_cpu, node.uncore_freq());
  const simhw::PerfResult perf =
      simhw::evaluate_iteration(cfg, demand, f_cpu, f_avg);
  const simhw::UfsInputs in =
      iteration_inputs(cfg, demand, f_cpu, sample.perf.bw_utilisation);
  const simhw::HwUfsParams params{};
  const auto periods = static_cast<std::size_t>(
      std::clamp(estimate.iter_time.value / params.evaluation_period_s, 1.0,
                 400.0));
  const simhw::UncoreRatioLimit window{cfg.uncore.max(), cfg.uncore.min()};
  const simhw::UncoreRatioLimit pinned{cfg.uncore.min(), cfg.uncore.min()};

  simhw::IterationMemo memo(cfg);
  simhw::HwUfsGovernor gov(cfg, params, seed);
  simhw::HwUfsGovernor gov_stretch(cfg, params, seed);
  simhw::MsrFile msr;
  msr.set_uncore_limit(window);
  simhw::MsrFile msr_w;
  simhw::RaplDomains rapl(cfg.sockets);
  simhw::NodeManagerCounter inm;
  const common::Joules e_pkg{perf.iter_time.value * 150.0};
  // Facility-style calls: one stretch per 1 s control round with the
  // phase-stable (10x) iterations, and idle rounds.
  workload::SyntheticSpec busy{};
  busy.iter_seconds *= 10.0;
  const simhw::WorkDemand long_demand = workload::make_demand(cfg, busy);
  simhw::SimNode stretch_node(cfg, seed);
  simhw::SimNode idle_node(cfg, seed);

  std::vector<Probe> probes;
  probes.push_back({"simhw.SimNode.execute_iteration",
                    "simhw.execute_iteration_ns", kCalls / 8,
                    [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        (void)node.execute_iteration(demand);
                      }
                    }});
  probes.push_back({"simhw.IterationMemo.evaluate", "simhw.memo_evaluate_ns",
                    kCalls, [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        (void)memo.evaluate(cfg, demand, f_cpu,
                                            i % 2 == 0 ? f_grid : f_avg);
                      }
                    }});
  // The governor work of one iteration on one socket: evaluate_periods
  // over the control periods the iteration spans.
  probes.push_back({"simhw.HwUfsGovernor.evaluate_periods",
                    "simhw.governor_evaluate_ns", kCalls / 8,
                    [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        (void)gov.evaluate_periods(in, window, periods);
                      }
                    }});
  probes.push_back({"simhw.evaluate_power", "simhw.power_evaluate_ns", kCalls,
                    [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        (void)simhw::evaluate_power(cfg, demand, perf, f_cpu,
                                                    f_avg);
                      }
                    }});
  probes.push_back({"simhw.MsrFile.uncore_limit", "simhw.msr_uncore_limit_ns",
                    kCalls, [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        const simhw::UncoreRatioLimit l = msr.uncore_limit();
                        asm volatile("" : : "r"(&l) : "memory");
                      }
                    }});
  probes.push_back({"simhw.RaplDomains.deposit_pkg", "simhw.rapl_deposit_ns",
                    kCalls, [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        rapl.deposit_pkg(i % cfg.sockets, e_pkg);
                      }
                    }});
  probes.push_back({"simhw.NodeManagerCounter.deposit",
                    "simhw.inm_deposit_ns", kCalls, [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        inm.deposit(common::Joules{3.1}, perf.iter_time);
                      }
                    }});
  probes.push_back({"simhw.MsrFile.set_uncore_limit", "simhw.msr_write_ns",
                    kCalls, [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        msr_w.set_uncore_limit(i % 2 == 0 ? pinned : window);
                      }
                    }});
  probes.push_back({"simhw.HwUfsGovernor.integrate_stretch",
                    "simhw.governor_integrate_ns", kCalls,
                    [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        (void)gov_stretch.integrate_stretch(in, window);
                      }
                    }});
  probes.push_back({"simhw.SimNode.execute_stretch",
                    "simhw.execute_stretch_ns", kCalls / 8,
                    [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        (void)stretch_node.execute_stretch(
                            long_demand, 1000,
                            stretch_node.clock().value + 1.0);
                      }
                    }});
  probes.push_back({"simhw.SimNode.idle_cached", "simhw.idle_cached_ns",
                    kCalls, [&](std::size_t n) {
                      for (std::size_t i = 0; i < n; ++i) {
                        idle_node.idle_cached(common::Secs{1.0});
                      }
                    }});
  const std::vector<double> ns =
      run_interleaved(probes, report, tracer, parent);

  {
    Tracer::Scope s(tracer, "simhw.IterationMemo.construct", parent);
    std::vector<double> us;
    for (std::size_t i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      simhw::IterationMemo built(cfg);
      us.push_back(seconds_since(t0) * 1e6);
      asm volatile("" : : "r"(&built) : "memory");
    }
    report.metric("simhw.memo_build_us", median(us), "us");
  }

  // The node-iteration ledger: the probe times, weighted by how often one
  // execute_iteration makes each call (src/simhw/node.cpp), set against
  // the whole iteration.
  const auto sockets = static_cast<double>(cfg.sockets);
  struct Row {
    const char* what;
    double calls;
    double ns;
  };
  const Row rows[] = {
      {"IterationMemo::evaluate", 2.0, ns[1]},
      {"HwUfsGovernor::evaluate_periods", sockets, ns[2]},
      {"evaluate_power", 1.0, ns[3]},
      {"MsrFile::uncore_limit", 1.0, ns[4]},
      {"RaplDomains::deposit_*", sockets + 1.0, ns[5]},
      {"NodeManagerCounter::deposit", 1.0, ns[6]},
  };
  const double iteration_ns = ns[0];
  double attributed = 0.0;
  std::printf("node-iteration ledger (execute_iteration %.1f ns, governor "
              "%zu periods per iteration):\n",
              iteration_ns, periods);
  for (const Row& r : rows) {
    const double row_ns = r.calls * r.ns;
    attributed += row_ns;
    std::printf("  %-34s %4.0f x %8.1f ns = %8.1f ns (%5.1f%%)\n", r.what,
                r.calls, r.ns, row_ns, 100.0 * row_ns / iteration_ns);
  }
  const double rest = iteration_ns - attributed;
  std::printf("  %-34s %26.1f ns (%5.1f%%)\n", "unattributed", rest,
              100.0 * rest / iteration_ns);
  report.metric("simhw.iteration_unattributed_ns", rest, "ns");
}

/// The iteration memo's hit ratio on the key sequence execute_iteration
/// produces: a node runs a catalog app's phases in order, and each
/// iteration's two lookups are replayed into a standalone memo.
void probe_memo_hits(std::uint64_t seed, Report& report, Tracer& tracer,
                     std::uint64_t parent) {
  Tracer::Scope s(tracer, "simhw.IterationMemo.replay", parent);
  const workload::AppModel app = workload::make_app("bqcd");
  simhw::SimNode node(app.node_config, seed);
  simhw::IterationMemo memo(app.node_config);
  for (const workload::Phase& phase : app.phases) {
    const simhw::WorkDemand demand = app.node_demand(phase, 0);
    for (std::size_t i = 0; i < phase.iterations; ++i) {
      const Freq f_cpu = node.cpu_freq();
      (void)memo.evaluate(app.node_config, demand, f_cpu, node.uncore_freq());
      const simhw::IterationOutcome o = node.execute_iteration(demand);
      (void)memo.evaluate(app.node_config, demand, f_cpu, o.uncore_freq);
    }
  }
  const auto lookups = static_cast<double>(memo.hits() + memo.misses());
  report.metric("simhw.memo_hit_ratio",
                static_cast<double>(memo.hits()) / lookups, "ratio");
}

/// Bytes the heap has handed out, in arena chunks and in mmapped blocks.
std::size_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

/// Node construction cost and heap footprint, and the federation update
/// over daemons of the same nodes.
void probe_nodes_and_federation(std::uint64_t seed, Report& report,
                                Tracer& tracer, std::uint64_t parent) {
  const simhw::NodeConfig cfg = simhw::make_skylake_6148_node();
  const std::size_t n = kFedIslands * kFedIslandNodes;
  std::vector<simhw::SimNode> nodes;
  nodes.reserve(n);
  double construct_s = 0.0;
  const std::size_t heap_before = heap_in_use();
  {
    Tracer::Scope s(tracer, "simhw.SimNode.construct", parent);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      nodes.emplace_back(cfg, common::mix_seed(seed, i));
      construct_s += seconds_since(t0);
    }
  }
  const std::size_t heap_after = heap_in_use();
  report.metric("simhw.node_construct_us",
                construct_s * 1e6 / static_cast<double>(n), "us");
  // The node itself, which the caller's array holds inline, plus what its
  // construction allocated.
  report.metric("simhw.node_bytes",
                static_cast<double>(sizeof(simhw::SimNode)) +
                    static_cast<double>(heap_after - heap_before) /
                        static_cast<double>(n),
                "bytes");

  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(n);
  for (simhw::SimNode& node : nodes) daemons.emplace_back(node);
  std::vector<std::vector<eard::NodeDaemon*>> islands(kFedIslands);
  for (std::size_t i = 0; i < n; ++i) {
    islands[i / kFedIslandNodes].push_back(&daemons[i]);
  }
  eargm::FederatedEargm fed(
      eargm::FederationConfig{
          .facility_budget = {static_cast<double>(n) * 200.0}},
      std::move(islands));
  // Node powers drawn around the cap so throttles and releases happen.
  common::Rng rng(common::mix_seed(seed, 0xFED));
  std::vector<std::vector<double>> rounds(16, std::vector<double>(n));
  for (std::vector<double>& r : rounds) {
    for (double& w : r) w = rng.uniform(150.0, 260.0);
  }
  Tracer::Scope s(tracer, "eargm.FederatedEargm.update", parent);
  report.metric("eargm.federation_update_us",
                ns_per_call(kFedUpdates, kBatches,
                            [&](std::size_t i) {
                              fed.update(rounds[i % rounds.size()]);
                            }) /
                    1e3,
                "us");
}

void probe_models_policies_dynais(std::uint64_t seed, Report& report,
                                  Tracer& tracer, std::uint64_t parent) {
  const simhw::NodeConfig cfg = simhw::make_skylake_6148_node();
  {
    Tracer::Scope s(tracer, "models.learn_models", parent);
    const auto t0 = Clock::now();
    const models::LearnedModels learned = models::learn_models(cfg);
    report.metric("models.learn_s", seconds_since(t0), "s");
  }
  const models::LearnedModels& learned = sim::cached_models(cfg);
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.6;
  sig.tpi = 0.02;
  sig.vpi = 0.4;
  sig.gbps = 40.0;
  sig.dc_power_w = 320.0;
  sig.avg_imc_freq = Freq::ghz(2.39);
  {
    Tracer::Scope s(tracer, "models.Avx512Model.predict", parent);
    report.metric("models.predict_ns",
                  ns_per_call(kCalls, kBatches, [&](std::size_t i) {
                    (void)learned.avx512->predict(sig, 1 + i % 6, 7);
                  }),
                  "ns");
  }
  {
    Tracer::Scope s(tracer, "policies.Policy.apply", parent);
    auto policy = policies::make_policy(
        "min_energy_eufs",
        policies::PolicyContext{.pstates = cfg.pstates,
                                .uncore = cfg.uncore,
                                .model = learned.avx512,
                                .settings = {}});
    report.metric("policies.apply_ns",
                  ns_per_call(kCalls / 10, kBatches, [&](std::size_t) {
                    policies::NodeFreqs out;
                    (void)policy->apply(sig, out);
                    policy->restart();
                  }),
                  "ns");
  }
  {
    // An MPI call stream: the catalog's periodic pattern with a seeded
    // perturbation every few hundred events.
    Tracer::Scope s(tracer, "dynais.Dynais.push", parent);
    common::Rng rng(common::mix_seed(seed, 0xD1A));
    const std::vector<std::uint32_t> pattern = {101, 102, 102, 103};
    std::vector<std::uint32_t> events(4096);
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i] = rng.below(300) == 0 ? 900 + static_cast<std::uint32_t>(i)
                                      : pattern[i % pattern.size()];
    }
    dynais::Dynais dyn;
    report.metric("dynais.push_ns",
                  ns_per_call(kCalls, kBatches, [&](std::size_t i) {
                    (void)dyn.push(events[i % events.size()]);
                  }),
                  "ns");
  }
}

}  // namespace

void run_layer_probes(const Args& args, Report& report, Tracer& tracer) {
  Tracer::Scope root(tracer, "perfbench.layer_probes");
  probe_node(args.seed, report, tracer, root.id());
  probe_memo_hits(args.seed, report, tracer, root.id());
  probe_nodes_and_federation(args.seed, report, tracer, root.id());
  probe_models_policies_dynais(args.seed, report, tracer, root.id());
}

}  // namespace perfbench
