// Shard-local state for the event-driven facility core.
//
// A shard is one island: the facility's natural unit of isolation. Every
// RNG stream inside a shard (its nodes' noise streams, its governors'
// dither streams) derives from the shard seed `mix_seed(facility_seed,
// shard_index)` — the same per-island seeding the oracle loop uses —
// so shard advancement is fully independent of both the worker-thread
// count and the other shards. Cross-shard effects (the cluster tier's
// cap re-split, fault draws against the shared fault stream, job
// admission and completion accounting) happen only at the barriers
// around every control round, in serial shard-index order, which keeps
// every result bitwise-identical at any `sim_jobs`.
//
// Between barriers a shard advances its nodes through exactly one control
// round, leaving each node's INM energy in its NodeSlot, its reading in
// `readings_w` and the jobs that drained in `drained`; it then hides the
// readings the barrier's fault draws dropped and steps its island's EARGM
// manager on what is left. The serial merge reproduces the round loop
// kept as the test oracle (tests/oracles/facility_reference.hpp) in its
// exact order. The owner-thread discipline follows the RROS per-CPU
// run-queue idiom cited in the roadmap: all EAR_SHARD_LOCAL members are
// touched only by the shard's current owner (one worker inside the
// parallel round advance, the merge thread between barriers — handover
// synchronises through the crew's epoch barrier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "eargm/federation.hpp"
#include "simhw/cluster.hpp"
#include "simhw/demand.hpp"

namespace ear::sim {

inline constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();

/// Per-node fault-mask bits (Shard::drop_mask), drawn at the barrier
/// before the round's parallel phase.
inline constexpr std::uint8_t kReadingDropped = 1;  // the EARGM sees NaN
/// The first dropout to hide the reading this round was a node dropout:
/// it counts as a dropped reading if the reading itself was finite.
inline constexpr std::uint8_t kDropCounted = 2;

/// Per-node execution/accounting state (one array per shard). The job's
/// WorkDemand and StretchPlan are read from Shard::demands and
/// Shard::plans, not copied per node; the held reading is the node's
/// entry in Shard::readings_w.
struct NodeSlot {
  std::size_t job = kNoJob;
  std::size_t iters_left = 0;
  double prev_inm_j = 0.0;
  double prev_clock_s = 0.0;
};

/// One running job as its owning shard sees it (jobs never span islands).
struct ShardJob {
  std::size_t job = 0;                   // facility job index
  std::vector<std::size_t> local_nodes;  // island-local, ascending
};

struct Shard {
  std::size_t index = 0;            // == island index
  std::uint64_t seed = 0;           // mix_seed(facility seed, index);
                                    // root of every stream in the shard
  simhw::Cluster* cluster = nullptr;
  std::size_t offset = 0;           // first global node index
  std::size_t size = 0;
  /// Per-job demand, indexed by facility job index: one array for the
  /// whole facility, written at admission between barriers, read-only
  /// while the shards advance.
  const simhw::WorkDemand* demands = nullptr;
  /// Per-job stretch plan, indexed like `demands`: written while the
  /// shards advance, each only by the shard running its job.
  EAR_SHARD_LOCAL simhw::StretchPlan* plans = nullptr;
  /// The federation whose island `index` this shard steps after every
  /// advance; null when the facility is uncapped.
  eargm::FederatedEargm* federation = nullptr;
  /// This round's fault mask over the shard's nodes (kReadingDropped /
  /// kDropCounted bits); null when no dropout hit the shard this round.
  const std::uint8_t* drop_mask = nullptr;

  EAR_SHARD_LOCAL std::vector<NodeSlot> slots;
  /// Each node's reading for the last advanced round, contiguous so the
  /// serial merge streams it. A node whose clock did not move holds its
  /// previous reading.
  EAR_SHARD_LOCAL std::vector<double> readings_w;
  /// The readings as the island's EARGM manager sees them: readings_w
  /// with the dropped ones hidden. Filled only in rounds with a mask.
  EAR_SHARD_LOCAL std::vector<double> managed_w;
  /// Finite readings this round's node dropouts hid.
  EAR_SHARD_LOCAL std::size_t hidden_readings = 0;
  /// Running jobs, in admission order.
  EAR_SHARD_LOCAL std::vector<ShardJob> jobs;
  /// Facility indices of the jobs whose last node drained in the last
  /// advanced round; the merge settles every one of them that round.
  EAR_SHARD_LOCAL std::vector<std::size_t> drained;

  /// Advance every node of the shard through control round `round`: one
  /// phase-stable stretch per busy node, idling to the round boundary;
  /// then take each node's reading with the oracle's arithmetic, move
  /// the drained jobs from `jobs` to `drained`, apply `drop_mask` and
  /// step the island's EARGM manager. Owner-thread only.
  void advance_round(double round_s, std::size_t round);
};

}  // namespace ear::sim
