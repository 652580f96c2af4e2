#include "sim/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace ear::sim {

void Shard::advance_round(double round_s, std::size_t round) {
  const double round_end = static_cast<double>(round) * round_s + round_s;
  // Index the cluster's nodes directly: node(n) is an out-of-line
  // bounds-checked call, and this loop is the simulator's innermost.
  simhw::SimNode* const nodes = &*cluster->begin();
  for (std::size_t n = 0; n < size; ++n) {
    NodeSlot& slot = slots[n];
    // A multi-second iteration overshoots the round boundary and then
    // sits out the following rounds. Such a node-round is a bitwise
    // no-op — no stretch starts, there is no gap to idle, the clock does
    // not move so the reading is held — so it does not even load the
    // node (about 45% of all node-rounds in the capped busy regime).
    if (slot.prev_clock_s >= round_end) continue;
    simhw::SimNode& node = nodes[n];
    if (slot.job != kNoJob && slot.iters_left > 0) {
      // One phase-stable stretch from the job's shared plan: closed-form
      // governor integration in place of the reference loop's
      // iteration-at-a-time stepping.
      const simhw::StretchSummary s = node.execute_stretch(
          demands[slot.job], plans[slot.job], slot.iters_left, round_end);
      slot.iters_left -= s.iterations;
    }
    const double gap = round_end - node.clock().value;
    // idle_cached: idle()'s clock, INM exact total and governor state,
    // bit for bit, with the constant idle power memoised and none of the
    // counters the facility does not read — the bulk of a mostly-idle
    // facility's node-rounds.
    if (gap > 0.0) node.idle_cached(common::Secs{gap});
    // The reference loop's reading arithmetic, verbatim: power is the INM
    // delta over the clock delta since the previous round, and a stalled
    // clock holds the last reading.
    const double e = node.inm().exact().value;
    const double t = node.clock().value;
    const double de = e - slot.prev_inm_j;
    const double dt = t - slot.prev_clock_s;
    if (dt > 0.0) readings_w[n] = de / dt;
    slot.prev_inm_j = e;
    slot.prev_clock_s = t;
  }

  // A job completes the round its slowest node drains — the round the
  // reference sweep detects it.
  drained.clear();
  std::erase_if(jobs, [this](const ShardJob& j) {
    const bool done = std::all_of(
        j.local_nodes.begin(), j.local_nodes.end(),
        [this](std::size_t local) { return slots[local].iters_left == 0; });
    if (done) drained.push_back(j.job);
    return done;
  });

  // The readings the island's manager sees: the barrier drew this
  // round's dropouts into drop_mask before the advance.
  std::span<const double> managed(readings_w);
  hidden_readings = 0;
  if (drop_mask != nullptr) {
    managed_w.resize(size);
    for (std::size_t n = 0; n < size; ++n) {
      double w = readings_w[n];
      if ((drop_mask[n] & kReadingDropped) != 0) {
        if ((drop_mask[n] & kDropCounted) != 0 && std::isfinite(w)) {
          ++hidden_readings;
        }
        w = std::numeric_limits<double>::quiet_NaN();
      }
      managed_w[n] = w;
    }
    managed = managed_w;
  }
  if (federation != nullptr) federation->update_island(index, managed);
}

}  // namespace ear::sim
