// Event-driven sharded facility engine — the only one.
//
// One FacilityConfig in, one FacilityResult out. Instead of stepping every
// node through every 10 ms governor period of every control round (what
// the original round loop, now the test oracle in
// tests/oracles/facility_reference.hpp, does), the engine:
//
//   * integrates each node's energy/time analytically through
//     phase-stable stretches (simhw::SimNode::execute_stretch — one
//     kernel evaluation per operating point + closed-form UFS governor
//     integration);
//   * advances shard-local state (one shard per island, per-shard RNG
//     streams rooted at mix_seed(seed, island)) in parallel, exactly one
//     control round per barrier — the paper's EARGM re-splits the cap
//     every round, so a round is the natural unit of the control loop;
//   * merges cross-shard effects serially in shard-index order at every
//     barrier — readings, fault draws and job completions in the exact
//     order and arithmetic of the oracle's round loop.
//
// Equivalence: bitwise-identical to the oracle whenever the UFS dither
// gate is closed (cfg.ufs.dither_probability == 0 — neither draws
// governor randomness then); tolerance-bounded otherwise (the Bernoulli
// per-period dither average is replaced by its expectation; see
// docs/performance.md for the bound). tests/test_event_core.cpp holds
// both proofs.
#pragma once

#include "sim/facility.hpp"

namespace ear::sim {

[[nodiscard]] FacilityResult run_facility_event(const FacilityConfig& cfg);

}  // namespace ear::sim
