// Job-admission queue for the facility tier: an arrival stream of jobs
// with per-job node counts, dispatched onto island-partitioned nodes
// with optional backfill.
//
// This generalises the campaign engine's per-(point, run) slot
// dispatcher: campaign tasks are all ready at t = 0 and each occupies
// one worker, so LPT ordering is the whole scheduling story. Facility
// jobs instead *arrive over time* and each wants a contiguous-free set
// of nodes on a single island (allocations never span islands — an
// island is a homogeneous partition and a job's demand is built for one
// node type). The queue is strictly deterministic: jobs are considered
// in (submit time, submission index) order, islands are probed in index
// order, and each allocation takes the lowest-numbered free nodes.
//
// Backfill is the aggressive first-fit flavour: when the queue head does
// not fit anywhere, later jobs that do fit may start ahead of it. With a
// finite job stream this cannot starve the head forever — running jobs
// finish, frees accumulate, and the head fits an empty island by
// construction — but it can delay it; `backfills()` counts how often
// that trade was taken. `backfill = false` degrades to strict FIFO.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/synthetic.hpp"

namespace ear::sim {

/// Per-island free-node set behind the admission scan. The original
/// representation was a sorted vector of free indices: every allocation
/// erased a prefix (shifting the whole tail) and every release re-sorted
/// the vector. This packs the island into 64-node bitmask words with a
/// lowest-live-word cursor instead: the fit probe is an O(1) count
/// compare, take() pops the k lowest-numbered free nodes straight off
/// the words, and put() re-sets bits in place — no shifting or sorting.
/// Allocation order is identical to the sorted vector's (both hand out
/// the lowest-numbered free nodes), which test_job_queue.cpp proves by
/// replaying randomised arrival streams against the old scan.
class FreeSet {
 public:
  FreeSet() = default;
  explicit FreeSet(std::size_t size);

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Append the `k` lowest-numbered free nodes to `out` (ascending) and
  /// remove them from the set. Requires k <= count().
  void take(std::size_t k, std::vector<std::size_t>& out);

  /// Return nodes to the set. Double-releasing a node or releasing one
  /// past the island size is a checked error.
  void put(const std::vector<std::size_t>& nodes);

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;  // lowest word that may hold a set bit
};

/// One job in the facility arrival stream. The work is a single-phase
/// synthetic spec so the demand can be instantiated for whichever
/// island (node type) the job lands on.
struct FacilityJob {
  std::string name;
  std::size_t nodes = 1;   // requested node count (one island)
  double submit_s = 0.0;   // arrival time in simulated seconds
  workload::SyntheticSpec work{};
};

/// An admission decision: job -> island + island-local node indices.
struct JobStart {
  std::size_t job = 0;  // index into the submitted job list
  std::size_t island = 0;
  std::vector<std::size_t> local_nodes;
};

class JobQueue {
 public:
  /// Throws common::ConfigError when a job is wider than every island
  /// (it could never start) or requests zero nodes. The queue keeps only
  /// each job's node count and submit time; names and work stay with
  /// the caller's list.
  JobQueue(const std::vector<FacilityJob>& jobs,
           std::vector<std::size_t> island_sizes, bool backfill = true);

  /// Admit every job that has arrived by `now_s` and fits, in arrival
  /// order. Mutates the free-node bookkeeping; call once per round with
  /// a non-decreasing clock.
  [[nodiscard]] std::vector<JobStart> admit(double now_s);

  /// Return a finished job's nodes to the island's free pool.
  void release(std::size_t island, const std::vector<std::size_t>& nodes);

  [[nodiscard]] std::size_t started() const { return started_; }
  [[nodiscard]] bool all_started() const {
    return started_ == requests_.size();
  }
  /// Jobs that had arrived but were still waiting after the last admit.
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }
  /// Times a job started while an earlier-arrived job kept waiting.
  [[nodiscard]] std::size_t backfills() const { return backfills_; }
  [[nodiscard]] std::size_t free_nodes(std::size_t island) const;

 private:
  /// What admission reads of a job.
  struct Request {
    std::size_t nodes = 1;
    double submit_s = 0.0;
  };

  /// The most free nodes any island has.
  [[nodiscard]] std::size_t widest_free() const;

  std::vector<Request> requests_;           // by job index
  std::vector<std::size_t> arrival_order_;  // job indices by (submit, id)
  std::vector<FreeSet> free_;               // per island
  std::vector<std::size_t> pending_;  // arrived, waiting (arrival order)
  std::size_t next_arrival_ = 0;      // into arrival_order_
  std::size_t started_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t backfills_ = 0;
  bool backfill_ = true;
};

}  // namespace ear::sim
