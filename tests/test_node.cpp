#include "simhw/node.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "simhw/cluster.hpp"

namespace ear::simhw {
namespace {

using common::Freq;
using common::Secs;

NoiseModel quiet() { return NoiseModel{.time_sigma = 0.0, .power_sigma = 0.0}; }

WorkDemand demand() {
  WorkDemand d;
  d.instructions_per_core = 2.0e9;
  d.cpi_core = 0.5;
  d.bytes = 30e9;
  d.active_cores = 40;
  return d;
}

TEST(SimNode, StartsAtNominalWithOpenWindow) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  EXPECT_EQ(node.cpu_freq(), Freq::ghz(2.4));
  const auto lim = node.uncore_limit();
  EXPECT_EQ(lim.max_freq, Freq::ghz(2.4));
  EXPECT_EQ(lim.min_freq, Freq::ghz(1.2));
}

TEST(SimNode, ExecuteAdvancesClockAndCounters) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  const auto out = node.execute_iteration(demand());
  EXPECT_GT(out.perf.iter_time.value, 0.0);
  EXPECT_DOUBLE_EQ(node.clock().value, out.perf.iter_time.value);
  EXPECT_GT(node.counters().instructions, 0.0);
  EXPECT_GT(node.counters().cycles, 0.0);
  EXPECT_GT(node.counters().cas_transactions, 0.0);
  EXPECT_GT(node.inm().exact().value, 0.0);
}

TEST(SimNode, EnergyEqualsPowerTimesTime) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  const auto out = node.execute_iteration(demand());
  EXPECT_NEAR(out.energy.value,
              out.power.total().value * out.perf.iter_time.value, 1e-6);
}

TEST(SimNode, PstateChangesTakeEffect) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  const auto fast = node.execute_iteration(demand());
  node.set_cpu_pstate(15);  // 1.0 GHz
  EXPECT_EQ(node.cpu_freq(), Freq::ghz(1.0));
  const auto slow = node.execute_iteration(demand());
  EXPECT_GT(slow.perf.iter_time.value, fast.perf.iter_time.value * 1.5);
}

TEST(SimNode, PinnedUncoreWindowIsObeyed) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.set_uncore_limit_all({.max_freq = Freq::ghz(1.5),
                             .min_freq = Freq::ghz(1.5)});
  const auto out = node.execute_iteration(demand());
  EXPECT_EQ(out.uncore_freq, Freq::ghz(1.5));
}

TEST(SimNode, WindowMaxLimitsGovernor) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.set_uncore_limit_all({.max_freq = Freq::ghz(1.8),
                             .min_freq = Freq::ghz(1.2)});
  for (int i = 0; i < 5; ++i) {
    const auto out = node.execute_iteration(demand());
    EXPECT_LE(out.uncore_freq, Freq::ghz(1.8));
  }
}

TEST(SimNode, LowerUncoreLowersPower) {
  SimNode a(make_skylake_6148_node(), 1, quiet());
  SimNode b(make_skylake_6148_node(), 1, quiet());
  b.set_uncore_limit_all({.max_freq = Freq::ghz(1.2),
                          .min_freq = Freq::ghz(1.2)});
  const auto pa = a.execute_iteration(demand());
  const auto pb = b.execute_iteration(demand());
  EXPECT_LT(pb.power.total().value, pa.power.total().value);
}

TEST(SimNode, AvgFrequencyCountersTrackSettings) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  for (int i = 0; i < 10; ++i) node.execute_iteration(demand());
  const auto& c = node.counters();
  const double avg_cpu = c.cpu_freq_cycles / c.elapsed_seconds / 1e6;
  const double avg_imc = c.imc_freq_cycles / c.elapsed_seconds / 1e6;
  EXPECT_NEAR(avg_cpu, 2.39, 0.02);  // droop below the 2.40 request
  EXPECT_NEAR(avg_imc, 2.39, 0.02);  // dither below the 2.40 limit
}

TEST(SimNode, WaitSecondsAccumulated) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  WorkDemand d = demand();
  d.comm_seconds = 0.25;
  node.execute_iteration(d);
  EXPECT_NEAR(node.counters().wait_seconds, 0.25, 1e-9);
}

TEST(SimNode, IdleConsumesBaselinePower) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.idle(Secs{10.0});
  EXPECT_DOUBLE_EQ(node.clock().value, 10.0);
  const double watts = node.inm().exact().value / 10.0;
  EXPECT_GT(watts, 50.0);
  EXPECT_LT(watts, 200.0);  // far below a busy node
}

TEST(SimNode, RaplPkgAndDramAccumulate) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.execute_iteration(demand());
  EXPECT_GT(node.rapl().pkg(0).raw(), 0u);
  EXPECT_GT(node.rapl().pkg(1).raw(), 0u);
  EXPECT_GT(node.rapl().dram().raw(), 0u);
}

TEST(SimNode, NoiseProducesRunVariation) {
  SimNode a(make_skylake_6148_node(), 1);
  SimNode b(make_skylake_6148_node(), 2);
  const auto ra = a.execute_iteration(demand());
  const auto rb = b.execute_iteration(demand());
  EXPECT_NE(ra.perf.iter_time.value, rb.perf.iter_time.value);
  // ...but only slightly (sub-percent sigma).
  EXPECT_NEAR(ra.perf.iter_time.value, rb.perf.iter_time.value,
              0.05 * ra.perf.iter_time.value);
}

TEST(SimNode, DeterministicForEqualSeeds) {
  SimNode a(make_skylake_6148_node(), 7);
  SimNode b(make_skylake_6148_node(), 7);
  for (int i = 0; i < 5; ++i) {
    const auto ra = a.execute_iteration(demand());
    const auto rb = b.execute_iteration(demand());
    EXPECT_DOUBLE_EQ(ra.perf.iter_time.value, rb.perf.iter_time.value);
    EXPECT_DOUBLE_EQ(ra.power.total().value, rb.power.total().value);
  }
}

/// Every RAPL raw value and PMU field of `node`, for checking that the
/// facility family leaves them exactly as they were.
struct CounterSnapshot {
  explicit CounterSnapshot(const SimNode& node)
      : pmu(node.counters()),
        pkg0(node.rapl().pkg(0).raw()),
        pkg1(node.rapl().pkg(1).raw()),
        dram(node.rapl().dram().raw()) {}

  void expect_unchanged(const SimNode& node) const {
    const PmuCounters& now = node.counters();
    EXPECT_EQ(now.instructions, pmu.instructions);
    EXPECT_EQ(now.cycles, pmu.cycles);
    EXPECT_EQ(now.avx512_ops, pmu.avx512_ops);
    EXPECT_EQ(now.cas_transactions, pmu.cas_transactions);
    EXPECT_EQ(now.cpu_freq_cycles, pmu.cpu_freq_cycles);
    EXPECT_EQ(now.imc_freq_cycles, pmu.imc_freq_cycles);
    EXPECT_EQ(now.elapsed_seconds, pmu.elapsed_seconds);
    EXPECT_EQ(now.wait_seconds, pmu.wait_seconds);
    EXPECT_EQ(node.rapl().pkg(0).raw(), pkg0);
    EXPECT_EQ(node.rapl().pkg(1).raw(), pkg1);
    EXPECT_EQ(node.rapl().dram().raw(), dram);
  }

  PmuCounters pmu;
  std::uint32_t pkg0;
  std::uint32_t pkg1;
  std::uint32_t dram;
};

// idle_cached() is the event core's fast path; its contract is bitwise
// equality with idle() on the clock, the INM exact total and the
// governor state under any interleaving of idle stretches, P-state
// moves, uncore-window writes and busy iterations — and no RAPL or PMU
// deposit at all.
TEST(SimNode, IdleCachedIsBitwiseIdenticalToIdle) {
  SimNode ref(make_skylake_6148_node(), 9);
  SimNode fast(make_skylake_6148_node(), 9);
  auto step = [&](auto&& fn) {
    fn(ref);
    fn(fast);
  };
  auto idle_both = [&](double dt) {
    ref.idle(Secs{dt});
    const CounterSnapshot before(fast);
    fast.idle_cached(Secs{dt});
    before.expect_unchanged(fast);
    EXPECT_EQ(ref.inm().exact().value, fast.inm().exact().value);
    EXPECT_EQ(ref.clock().value, fast.clock().value);
    EXPECT_EQ(ref.uncore_freq().as_khz(), fast.uncore_freq().as_khz());
  };
  idle_both(10.0);
  idle_both(0.25);            // memo hit: same (f_cpu, f_imc)
  step([](SimNode& n) { n.set_cpu_pstate(Pstate{3}); });
  idle_both(4.0);             // memo miss: core frequency moved
  step([](SimNode& n) {
    n.set_uncore_limit_all({Freq::ghz(1.6), Freq::ghz(1.2)});
  });
  idle_both(4.0);             // memo miss: uncore window narrowed
  step([](SimNode& n) { (void)n.execute_iteration(demand()); });
  idle_both(7.5);             // governor state perturbed by busy work
  idle_both(7.5);             // and hit again
  EXPECT_GT(fast.inm().exact().value, 0.0);
}

// execute_stretch() is the event core's busy path. With the dither gate
// closed its contract is bitwise equality with a loop of
// execute_iteration() on the clock, the INM exact total, the governor
// state and the noise stream — and no RAPL or PMU deposit at all.
TEST(SimNode, ExecuteStretchIsBitwiseIdenticalToIterationLoopWhenGateClosed) {
  HwUfsParams ufs;
  ufs.dither_probability = 0.0;
  // Default (non-zero) noise, so the noise stream is exercised.
  SimNode ref(make_skylake_6148_node(), 11, NoiseModel{}, ufs);
  SimNode fast(make_skylake_6148_node(), 11, NoiseModel{}, ufs);
  auto stretch_both = [&](const WorkDemand& d, std::size_t max_iters,
                          double stop_before_s) {
    std::size_t ran = 0;
    while (ran < max_iters && ref.clock().value < stop_before_s) {
      (void)ref.execute_iteration(d);
      ++ran;
    }
    const CounterSnapshot before(fast);
    const StretchSummary s = fast.execute_stretch(d, max_iters, stop_before_s);
    before.expect_unchanged(fast);
    EXPECT_EQ(s.iterations, ran);
    EXPECT_EQ(ref.clock().value, fast.clock().value);
    EXPECT_EQ(ref.inm().exact().value, fast.inm().exact().value);
    EXPECT_EQ(ref.uncore_freq().as_khz(), fast.uncore_freq().as_khz());
  };
  WorkDemand light = demand();
  light.bytes = 1e9;  // a second, low-bandwidth operating point
  stretch_both(demand(), 4, 1e9);                // max_iters bound
  stretch_both(demand(), 1000, fast.clock().value + 3.0);  // clock bound
  ref.set_cpu_pstate(Pstate{6});
  fast.set_cpu_pstate(Pstate{6});
  stretch_both(light, 7, 1e9);
  ref.set_uncore_limit_all({Freq::ghz(1.8), Freq::ghz(1.4)});
  fast.set_uncore_limit_all({Freq::ghz(1.8), Freq::ghz(1.4)});
  stretch_both(demand(), 5, 1e9);
  stretch_both(demand(), 5, fast.clock().value);  // starts at the stop
  // The next noise draws: one more paper-path iteration on each node
  // must come out bit for bit the same.
  const IterationOutcome a = ref.execute_iteration(demand());
  const IterationOutcome b = fast.execute_iteration(demand());
  EXPECT_EQ(a.perf.iter_time.value, b.perf.iter_time.value);
  EXPECT_EQ(a.power.total().value, b.power.total().value);
  EXPECT_EQ(a.energy.value, b.energy.value);
}

/// The next `n` draws of a copy of `rng`: equal draws mean equal state.
std::vector<std::uint64_t> next_draws(common::Rng rng, std::size_t n = 4) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.next_u64());
  return out;
}

// The facility event core keeps one StretchPlan per job and shares it
// between the job's nodes. Sharing must be invisible: over many control
// rounds — each a stretch to the round boundary and an idle tail, as the
// shard drives them — two nodes on one plan end every round bitwise where
// the same two nodes with a fresh plan per call do, through P-state and
// uncore-window changes between rounds and with the dither gate open
// (where the plan carries the expected IMC frequency) or closed.
TEST(SimNode, SharedStretchPlanMatchesFreshPlanPerCall) {
  for (const double dither : {0.0, 0.12}) {
    SCOPED_TRACE(dither);
    const auto params = std::make_shared<const NodeParams>(NodeParams{
        .config = make_skylake_6148_node(),
        .noise = NoiseModel{},
        .ufs = HwUfsParams{.dither_probability = dither}});
    std::vector<SimNode> shared;
    std::vector<SimNode> fresh;
    for (std::uint64_t seed : {21u, 22u}) {
      shared.emplace_back(params, seed);
      fresh.emplace_back(params, seed);
    }
    // A different bandwidth feedback on the second node, so the shared
    // plan is recomputed whenever the nodes alternate on it at first.
    WorkDemand light = demand();
    light.bytes = 1e9;
    (void)shared[1].execute_iteration(light);
    (void)fresh[1].execute_iteration(light);

    StretchPlan plan;
    std::vector<std::size_t> iters_left(2, 60);
    for (int round = 0; round < 40; ++round) {
      const double round_end = 1.0 * (round + 1) + 1.0;
      if (round == 12) {  // an EARGM throttle between rounds
        for (SimNode& n : shared) n.set_cpu_pstate(Pstate{5});
        for (SimNode& n : fresh) n.set_cpu_pstate(Pstate{5});
      }
      if (round == 24) {  // an explicit uncore window between rounds
        const UncoreRatioLimit w{Freq::ghz(1.8), Freq::ghz(1.4)};
        for (SimNode& n : shared) n.set_uncore_limit_all(w);
        for (SimNode& n : fresh) n.set_uncore_limit_all(w);
      }
      for (std::size_t i = 0; i < 2; ++i) {
        SimNode& a = shared[i];
        SimNode& b = fresh[i];
        if (iters_left[i] > 0 && a.clock().value < round_end) {
          const StretchSummary sa =
              a.execute_stretch(demand(), plan, iters_left[i], round_end);
          const StretchSummary sb =
              b.execute_stretch(demand(), iters_left[i], round_end);
          ASSERT_EQ(sa.iterations, sb.iterations);
          EXPECT_EQ(sa.uncore_freq.as_khz(), sb.uncore_freq.as_khz());
          iters_left[i] -= sa.iterations;
        }
        if (round_end > a.clock().value) {
          a.idle_cached(Secs{round_end - a.clock().value});
          b.idle_cached(Secs{round_end - b.clock().value});
        }
        EXPECT_EQ(a.clock().value, b.clock().value) << round;
        EXPECT_EQ(a.inm().exact().value, b.inm().exact().value) << round;
        for (std::size_t s = 0; s < a.config().sockets; ++s) {
          EXPECT_EQ(a.governor(s).current().as_khz(),
                    b.governor(s).current().as_khz())
              << round;
          EXPECT_EQ(next_draws(a.governor(s).rng()),
                    next_draws(b.governor(s).rng()));
        }
        EXPECT_EQ(next_draws(a.rng()), next_draws(b.rng())) << round;
      }
    }
    EXPECT_EQ(iters_left, (std::vector<std::size_t>{0, 0}));
  }
}

// Nodes live in growing vectors (clusters, benches), so a moved node must
// behave exactly like one that never moved: nothing it holds may point
// into its own old storage.
TEST(SimNode, MovedNodesMatchNodesBuiltInPlace) {
  const NodeConfig cfg = make_skylake_6148_node();
  constexpr std::uint64_t kNodes = 9;
  std::vector<SimNode> moved;  // no reserve: growth moves the nodes
  for (std::uint64_t i = 0; i < kNodes; ++i) {
    moved.emplace_back(cfg, 100 + i);
  }
  for (std::uint64_t i = 0; i < kNodes; ++i) {
    SimNode in_place(cfg, 100 + i);
    SimNode& m = moved[i];
    const IterationOutcome a = m.execute_iteration(demand());
    const IterationOutcome b = in_place.execute_iteration(demand());
    EXPECT_EQ(a.perf.iter_time.value, b.perf.iter_time.value);
    EXPECT_EQ(a.power.total().value, b.power.total().value);
    EXPECT_EQ(a.uncore_freq.as_khz(), b.uncore_freq.as_khz());
    const StretchSummary sa = m.execute_stretch(demand(), 6, 1e9);
    const StretchSummary sb = in_place.execute_stretch(demand(), 6, 1e9);
    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_EQ(sa.uncore_freq.as_khz(), sb.uncore_freq.as_khz());
    m.idle_cached(Secs{2.5});
    in_place.idle_cached(Secs{2.5});
    EXPECT_EQ(m.clock().value, in_place.clock().value);
    EXPECT_EQ(m.inm().exact().value, in_place.inm().exact().value);
    EXPECT_EQ(m.counters().instructions, in_place.counters().instructions);
    EXPECT_EQ(m.counters().cpu_freq_cycles,
              in_place.counters().cpu_freq_cycles);
    EXPECT_EQ(m.counters().imc_freq_cycles,
              in_place.counters().imc_freq_cycles);
    EXPECT_EQ(m.rapl().pkg(0).raw(), in_place.rapl().pkg(0).raw());
    EXPECT_EQ(m.rapl().pkg(1).raw(), in_place.rapl().pkg(1).raw());
    EXPECT_EQ(m.rapl().dram().raw(), in_place.rapl().dram().raw());
    EXPECT_EQ(m.uncore_freq().as_khz(), in_place.uncore_freq().as_khz());
  }
}

TEST(Cluster, NodesShareOneConfig) {
  Cluster cluster(make_skylake_6148_node(), 4, 42);
  for (const SimNode& node : cluster) {
    EXPECT_EQ(&node.config(), &cluster.node(0).config());
  }
}

TEST(Cluster, NodesShareOneParameterBlock) {
  HwUfsParams ufs;
  ufs.dither_probability = 0.25;
  const NoiseModel noise{.time_sigma = 0.01, .power_sigma = 0.02};
  Cluster cluster(make_skylake_6148_node(), 4, 42, noise, ufs);
  const NodeParams& shared = cluster.node(0).params();
  EXPECT_EQ(&shared.config, &cluster.node(0).config());
  EXPECT_EQ(shared.ufs.dither_probability, 0.25);
  EXPECT_EQ(shared.noise.power_sigma, 0.02);
  for (const SimNode& node : cluster) {
    EXPECT_EQ(&node.params(), &shared);
    EXPECT_EQ(&node.params().ufs, &shared.ufs);
    EXPECT_EQ(&node.params().noise, &shared.noise);
  }
}

TEST(Cluster, MoreSocketsThanModelledRejected) {
  NodeConfig cfg = make_skylake_6148_node();
  cfg.sockets = kMaxSockets + 1;
  EXPECT_THROW(Cluster(cfg, 2, 1), common::InvariantError);
  EXPECT_THROW(SimNode(cfg, 1), common::InvariantError);
  EXPECT_THROW(RaplDomains(kMaxSockets + 1), common::InvariantError);
  cfg.sockets = 0;
  EXPECT_THROW(Cluster(cfg, 2, 1), common::InvariantError);
}

TEST(Cluster, IndependentlySeededNodes) {
  Cluster cluster(make_skylake_6148_node(), 3, 42);
  const auto r0 = cluster.node(0).execute_iteration(demand());
  const auto r1 = cluster.node(1).execute_iteration(demand());
  EXPECT_NE(r0.perf.iter_time.value, r1.perf.iter_time.value);
  EXPECT_EQ(cluster.size(), 3u);
  EXPECT_GT(cluster.total_energy().value, 0.0);
  EXPECT_GT(cluster.max_clock().value, 0.0);
}

TEST(Cluster, EmptyClusterRejected) {
  EXPECT_THROW(Cluster(make_skylake_6148_node(), 0, 1),
               common::InvariantError);
}

}  // namespace
}  // namespace ear::simhw
