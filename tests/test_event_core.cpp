// Differential suite for the event-driven sharded facility core: the
// round loop in tests/oracles/ is the executable specification, and the
// event core must reproduce it bitwise whenever the UFS dither gate is
// closed (dither_probability == 0 — neither draws governor randomness
// then), across uncapped/capped x quiet/faulted configurations and the
// ear_sim facility CLI's own configurations. With dithering enabled the
// two agree within a documented tolerance (the event core replaces the
// Bernoulli per-period average with its expectation; see
// docs/performance.md).
#include "sim/event_core.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "facility_reference.hpp"
#include "faults/fault_plan.hpp"
#include "sim/facility.hpp"

namespace ear::sim {
namespace {

/// Every simulated field, bit for bit; the message names the first
/// field that differs.
void expect_bitwise_equal(const FacilityResult& ev,
                          const FacilityResult& ref) {
  EXPECT_EQ(facility_result_difference(ev, ref), "");
}

FacilityConfig dither_free(std::size_t nodes, std::size_t islands,
                           std::size_t jobs, std::uint64_t seed) {
  FacilityConfig cfg = make_facility_config(nodes, islands, jobs, seed);
  cfg.ufs.dither_probability = 0.0;
  return cfg;
}

/// `ear_sim facility --nodes 16 --islands 2 --job-count 8 --seed S
/// --dither 0`, with the CLI's default worker count (0 = auto).
FacilityConfig cli_facility(std::uint64_t seed) {
  FacilityConfig cfg = dither_free(16, 2, 8, seed);
  cfg.sim_jobs = 0;
  return cfg;
}

void add_chaos(FacilityConfig& cfg) {
  cfg.fault_plan.specs.push_back(
      {.family = faults::FaultFamily::kNodeDropout,
       .node = 1,
       .start_s = 1.0,
       .end_s = 6.0,
       .probability = 0.7});
  cfg.fault_plan.specs.push_back(
      {.family = faults::FaultFamily::kIslandDropout,
       .island = 1,
       .start_s = 2.0,
       .end_s = 8.0});
}

TEST(EventCore, BitwiseEqualUncappedQuiet) {
  FacilityConfig cfg = dither_free(24, 3, 10, 3);
  cfg.budget = {0.0};  // federation off
  expect_bitwise_equal(run_facility_event(cfg), run_facility_reference(cfg));
}

TEST(EventCore, BitwiseEqualCappedQuiet) {
  FacilityConfig cfg = dither_free(16, 2, 10, 5);
  cfg.budget = {16 * 200.0};  // binds between idle floor and busy draw
  expect_bitwise_equal(run_facility_event(cfg), run_facility_reference(cfg));
}

TEST(EventCore, BitwiseEqualUncappedFaulted) {
  FacilityConfig cfg = dither_free(16, 2, 10, 7);
  cfg.budget = {0.0};
  add_chaos(cfg);
  expect_bitwise_equal(run_facility_event(cfg), run_facility_reference(cfg));
}

TEST(EventCore, BitwiseEqualCappedFaulted) {
  FacilityConfig cfg = dither_free(16, 2, 12, 11);
  cfg.budget = {16 * 200.0};
  add_chaos(cfg);
  expect_bitwise_equal(run_facility_event(cfg), run_facility_reference(cfg));
}

TEST(EventCore, BitwiseEqualOverlappingDropoutsInBothOrders) {
  // The shards apply a fault mask drawn before the round; whether a hit
  // counts as a dropped reading depends on which spec hid the reading
  // first, so overlapping node- and island-dropout specs must count
  // exactly as the oracle's in-place NaN sweep in either list order.
  const faults::FaultSpec every_node{
      .family = faults::FaultFamily::kNodeDropout,
      .start_s = 1.0,
      .end_s = 12.0,
      .probability = 0.4};
  const faults::FaultSpec one_node{.family = faults::FaultFamily::kNodeDropout,
                                   .node = 9,
                                   .start_s = 0.0,
                                   .end_s = 14.0,
                                   .probability = 0.9};
  const faults::FaultSpec island{
      .family = faults::FaultFamily::kIslandDropout,
      .island = 1,
      .start_s = 2.0,
      .end_s = 10.0,
      .probability = 0.6};
  for (const bool island_first : {false, true}) {
    FacilityConfig cfg = dither_free(16, 2, 12, 31);
    cfg.budget = {16 * 200.0};
    if (island_first) {
      cfg.fault_plan.specs = {island, every_node, one_node};
    } else {
      cfg.fault_plan.specs = {every_node, one_node, island};
    }
    const FacilityResult ref = run_facility_reference(cfg);
    EXPECT_GT(ref.faults.dropped_readings, 0u);
    EXPECT_GT(ref.faults.island_dropouts, 0u);
    EXPECT_GT(ref.faults.missed_readings, 0u);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "island_first " << island_first
                                      << " sim_jobs " << jobs);
      cfg.sim_jobs = jobs;
      const FacilityResult ev = run_facility_event(cfg);
      EXPECT_EQ(ev.faults.dropped_readings, ref.faults.dropped_readings);
      EXPECT_EQ(ev.faults.island_dropouts, ref.faults.island_dropouts);
      EXPECT_EQ(ev.faults.missed_readings, ref.faults.missed_readings);
      expect_bitwise_equal(ev, ref);
    }
  }
}

TEST(EventCore, BitwiseEqualStrictFifo) {
  FacilityConfig cfg = dither_free(24, 3, 12, 13);
  cfg.backfill = false;
  expect_bitwise_equal(run_facility_event(cfg), run_facility_reference(cfg));
}

TEST(EventCore, BitwiseEqualWedgedHorizon) {
  // Horizon too short to drain: both engines must wedge on the same
  // round with the same violation text.
  FacilityConfig cfg = dither_free(8, 2, 8, 17);
  cfg.max_sim_s = 40.0;
  const FacilityResult ev = run_facility_event(cfg);
  const FacilityResult ref = run_facility_reference(cfg);
  EXPECT_FALSE(ref.violations.empty());
  expect_bitwise_equal(ev, ref);
}

TEST(EventCore, BitwiseEqualCliFacility) {
  const FacilityConfig cfg = cli_facility(1);
  const FacilityResult ref = run_facility_reference(cfg);
  EXPECT_TRUE(ref.violations.empty());  // the CLI runs it with --check
  expect_bitwise_equal(run_facility_event(cfg), ref);
}

TEST(EventCore, BitwiseEqualCliFacilityChaos) {
  FacilityConfig cfg = cli_facility(7);
  cfg.fault_plan = faults::load_fault_plan(
      EAR_SOURCE_DIR "/examples/facility_chaos.plan");
  ASSERT_EQ(cfg.fault_plan.specs.size(), 3u);
  const FacilityResult ref = run_facility_reference(cfg);
  EXPECT_TRUE(ref.violations.empty());
  expect_bitwise_equal(run_facility_event(cfg), ref);
}

TEST(EventCore, BitwiseDeterministicAcrossWorkerCounts) {
  // Chaos included on purpose: the fault stream must not depend on the
  // worker count either; the dithered config also covers the per-shard
  // governor dither streams, and the uncapped one the federation-off path.
  FacilityConfig uncapped = dither_free(24, 3, 10, 29);
  uncapped.budget = {0.0};
  for (FacilityConfig cfg : {dither_free(16, 4, 10, 19),
                             make_facility_config(16, 2, 10, 5),
                             uncapped}) {
    add_chaos(cfg);
    FacilityResult base{};
    for (const std::size_t jobs :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      cfg.sim_jobs = jobs;
      const FacilityResult r = run_facility_event(cfg);
      if (jobs == 1) {
        base = r;
        continue;
      }
      expect_bitwise_equal(r, base);
    }
  }
}

TEST(EventCore, DitheredRunsAgreeWithinDocumentedTolerance) {
  // Dither gate open (hardware-default p = 0.12): the event core swaps
  // the Bernoulli per-period uncore average for its expectation, so
  // per-job energies may drift but stay within the documented bound
  // (docs/performance.md derives ~one uncore bin of power sensitivity;
  // 2% is the enforced envelope, measured drift is well under it).
  const FacilityConfig cfg = make_facility_config(16, 2, 10, 23);
  ASSERT_GT(cfg.ufs.dither_probability, 0.0);
  const FacilityResult ev = run_facility_event(cfg);
  const FacilityResult ref = run_facility_reference(cfg);

  EXPECT_TRUE(ev.violations.empty());
  EXPECT_TRUE(ref.violations.empty());
  ASSERT_EQ(ev.jobs.size(), ref.jobs.size());
  for (std::size_t j = 0; j < ref.jobs.size(); ++j) {
    ASSERT_GT(ref.jobs[j].energy_j, 0.0);
    EXPECT_NEAR(ev.jobs[j].energy_j, ref.jobs[j].energy_j,
                0.02 * ref.jobs[j].energy_j)
        << ref.jobs[j].name;
  }
  EXPECT_NEAR(ev.facility_energy_j, ref.facility_energy_j,
              0.02 * ref.facility_energy_j);
  EXPECT_NEAR(ev.makespan_s, ref.makespan_s, 0.02 * ref.makespan_s);
}

}  // namespace
}  // namespace ear::sim
