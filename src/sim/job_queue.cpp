#include "sim/job_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>

#include "common/error.hpp"

namespace ear::sim {

using common::ConfigError;

FreeSet::FreeSet(std::size_t size) : size_(size), count_(size) {
  words_.assign((size + 63) / 64, ~std::uint64_t{0});
  // Mask the tail word so count() and the bit scan agree on the island
  // boundary.
  const std::size_t tail = size % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() = (std::uint64_t{1} << tail) - 1;
  }
}

void FreeSet::take(std::size_t k, std::vector<std::size_t>& out) {
  EAR_CHECK_MSG(k <= count_, "take() asked for more nodes than are free");
  count_ -= k;
  std::size_t w = cursor_;
  while (k > 0) {
    EAR_CHECK(w < words_.size());
    std::uint64_t bits = words_[w];
    while (bits != 0 && k > 0) {
      const int b = std::countr_zero(bits);
      out.push_back(w * 64 + static_cast<std::size_t>(b));
      bits &= bits - 1;  // clear the lowest set bit
      --k;
    }
    words_[w] = bits;
    if (k > 0) ++w;
  }
  // Every word below w drained on the way here, so the cursor can only
  // move forward; put() pulls it back when a lower node frees up.
  cursor_ = w;
}

void FreeSet::put(const std::vector<std::size_t>& nodes) {
  for (std::size_t n : nodes) {
    EAR_CHECK_MSG(n < size_, "released node index past the island size");
    const std::size_t w = n / 64;
    const std::uint64_t bit = std::uint64_t{1} << (n % 64);
    EAR_CHECK_MSG((words_[w] & bit) == 0, "node released twice");
    words_[w] |= bit;
    cursor_ = std::min(cursor_, w);
  }
  count_ += nodes.size();
}

JobQueue::JobQueue(const std::vector<FacilityJob>& jobs,
                   std::vector<std::size_t> island_sizes, bool backfill)
    : backfill_(backfill) {
  EAR_CHECK_MSG(!jobs.empty(), "job queue needs at least one job");
  EAR_CHECK_MSG(!island_sizes.empty(), "job queue needs at least one island");

  std::size_t widest_island = 0;
  for (std::size_t size : island_sizes) {
    EAR_CHECK_MSG(size > 0, "island has no nodes");
    widest_island = std::max(widest_island, size);
    free_.emplace_back(size);
  }
  requests_.reserve(jobs.size());
  for (const FacilityJob& j : jobs) {
    if (j.nodes == 0) {
      throw ConfigError("job '" + j.name + "' requests zero nodes");
    }
    if (j.nodes > widest_island) {
      throw ConfigError("job '" + j.name + "' wants " +
                        std::to_string(j.nodes) +
                        " nodes but the widest island has " +
                        std::to_string(widest_island));
    }
    requests_.push_back(Request{.nodes = j.nodes, .submit_s = j.submit_s});
  }

  // Arrival order: submit time, then submission index — the index pins
  // the tie-break so identical submit times dispatch identically
  // everywhere (same lesson as the campaign LPT sort).
  arrival_order_.resize(requests_.size());
  std::iota(arrival_order_.begin(), arrival_order_.end(), std::size_t{0});
  std::sort(arrival_order_.begin(), arrival_order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (requests_[a].submit_s != requests_[b].submit_s) {
                return requests_[a].submit_s < requests_[b].submit_s;
              }
              return a < b;
            });
}

std::size_t JobQueue::widest_free() const {
  std::size_t widest = 0;
  for (const FreeSet& f : free_) widest = std::max(widest, f.count());
  return widest;
}

std::size_t JobQueue::free_nodes(std::size_t island) const {
  EAR_CHECK_MSG(island < free_.size(), "island index out of range");
  return free_[island].count();
}

std::vector<JobStart> JobQueue::admit(double now_s) {
  while (next_arrival_ < arrival_order_.size() &&
         requests_[arrival_order_[next_arrival_]].submit_s <= now_s) {
    pending_.push_back(arrival_order_[next_arrival_]);
    ++next_arrival_;
  }
  peak_pending_ = std::max(peak_pending_, pending_.size());

  std::vector<JobStart> starts;
  std::vector<std::size_t> still_waiting;
  bool head_blocked = false;
  // A job wider than the widest free island fits nowhere: it waits
  // without probing the islands, exactly as a probe that found no fit.
  std::size_t widest = widest_free();
  for (std::size_t qpos = 0; qpos < pending_.size(); ++qpos) {
    const std::size_t j = pending_[qpos];
    if (head_blocked && !backfill_) {
      // Strict FIFO: nothing behind a blocked head starts.
      still_waiting.insert(still_waiting.end(),
                           pending_.begin() + static_cast<std::ptrdiff_t>(qpos),
                           pending_.end());
      break;
    }
    const std::size_t want = requests_[j].nodes;
    // First island (in index order) with enough free nodes wins; the
    // allocation takes its lowest-numbered free nodes.
    std::size_t island = free_.size();
    if (want <= widest) {
      for (std::size_t i = 0; i < free_.size(); ++i) {
        if (free_[i].count() >= want) {
          island = i;
          break;
        }
      }
    }
    if (island == free_.size()) {
      head_blocked = true;
      still_waiting.push_back(j);
      continue;
    }
    if (head_blocked) ++backfills_;
    JobStart start{.job = j, .island = island, .local_nodes = {}};
    start.local_nodes.reserve(want);
    free_[island].take(want, start.local_nodes);
    widest = widest_free();
    starts.push_back(std::move(start));
    ++started_;
  }
  pending_ = std::move(still_waiting);
  return starts;
}

void JobQueue::release(std::size_t island,
                       const std::vector<std::size_t>& nodes) {
  EAR_CHECK_MSG(island < free_.size(), "island index out of range");
  free_[island].put(nodes);
}

}  // namespace ear::sim
