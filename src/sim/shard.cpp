#include "sim/shard.hpp"

#include <algorithm>

namespace ear::sim {

void Shard::advance_round(double round_s, std::size_t round) {
  const double round_end = static_cast<double>(round) * round_s + round_s;
  // Iterate the cluster directly: node(n) is an out-of-line bounds-checked
  // call, and this loop is the simulator's innermost.
  std::size_t n = 0;
  for (simhw::SimNode& node : *cluster) {
    NodeSlot& slot = slots[n];
    // Guard on the clock too: a multi-second iteration overshoots the
    // round boundary and then sits out the following rounds, and
    // execute_stretch's hoisted setup is pure waste on those (~45% of all
    // node-rounds in the capped busy-regime bench).
    if (slot.job != kNoJob && slot.iters_left > 0 &&
        node.clock().value < round_end) {
      // One phase-stable stretch: closed-form governor integration in
      // place of the reference loop's iteration-at-a-time stepping.
      const simhw::StretchSummary s = node.execute_stretch(
          demands[slot.job], slot.iters_left, round_end);
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
    if (dt > 0.0) slot.last_reading = common::Power{de / dt};
    slot.prev_inm_j = e;
    slot.prev_clock_s = t;
    readings_w[n++] = slot.last_reading.value;
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
}

}  // namespace ear::sim
