// Crash-safe campaign checkpoints.
//
// A checkpoint is a versioned, CRC-guarded binary snapshot of campaign
// progress: every completed (point, run) slot with its full RunResult,
// stored bit-exactly (doubles travel as IEEE bit patterns). Resume feeds
// the slots back through Campaign::preload, so the run-index-order
// reduction consumes exactly the bytes an uninterrupted campaign would
// have produced — the resumed report is bitwise identical, at any job
// count.
//
// File layout (all integers little-endian):
//
//   magic   "EARCKPT1"                      8 bytes
//   len     payload length                  u32
//   payload format version                  u32
//           stamp (writer's BuildStamp)     varint-length string
//           fingerprint (campaign grid)     u64
//           total_slots                     u64
//           slot count                      varint
//           slots: point, run, RunResult    (see serialize_run_result)
//   crc     CRC-32 of payload               u32
//
// Snapshots are written atomically (temp file + rename), so a reader
// never observes a half-written file; a SIGKILL mid-write leaves the
// previous snapshot intact. Loading is forgiving by design:
// try_load_checkpoint never throws on bad content — a truncated,
// corrupt, version-skewed or foreign-binary checkpoint yields
// "start clean" plus a human-readable note.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/wire.hpp"
#include "sim/campaign.hpp"

namespace ear::service {

/// Bumped on any incompatible layout change; old files are rejected
/// with a clear note, never misread.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// One completed (point, run) slot.
struct SlotRecord {
  std::uint64_t point = 0;
  std::uint64_t run = 0;
  sim::RunResult result;
};

struct CheckpointMeta {
  std::uint32_t format = kCheckpointFormatVersion;
  /// BuildStamp::line() of the writing binary; resume requires an exact
  /// match so a rebuilt simulator cannot silently mix results.
  std::string stamp;
  /// campaign_fingerprint() of the writer's grid; rejects reuse against
  /// a changed spec (different apps, policies, seeds or run counts).
  std::uint64_t fingerprint = 0;
  /// Total (point, run) slots of the full campaign, for progress display.
  std::uint64_t total_slots = 0;
};

struct Checkpoint {
  CheckpointMeta meta;
  std::vector<SlotRecord> slots;
};

/// Identity of a campaign grid: FNV-1a over each point's label, run
/// count, seed, workload/policy coordinates, policy tunables (the
/// cpu_th/unc_th thresholds a sweep spec sets, as IEEE bit patterns)
/// and the full fault-plan contents, in point order. Anything that can
/// change a run's results belongs here — the resume gate compares this
/// hash to decide whether checkpointed slots may be mixed with new runs.
[[nodiscard]] std::uint64_t campaign_fingerprint(
    const std::vector<sim::CampaignPoint>& points);
[[nodiscard]] std::uint64_t campaign_fingerprint(const sim::Campaign& c);

/// Bit-exact RunResult encoding (doubles as IEEE-754 bit patterns).
void serialize_run_result(ByteWriter* w, const sim::RunResult& r);
[[nodiscard]] sim::RunResult deserialize_run_result(ByteReader* r);

[[nodiscard]] std::string encode_checkpoint(const Checkpoint& c);
/// Strict decode; throws WireError on any defect (tests use this to
/// pin down *why* a file is rejected).
[[nodiscard]] Checkpoint decode_checkpoint(std::string_view bytes);

struct CheckpointLoad {
  bool loaded = false;
  Checkpoint checkpoint;  // valid only when loaded
  /// Why the file was not loaded ("no checkpoint at ...", "checkpoint
  /// written by a different binary: ...", ...); empty on success.
  std::string note;
};

/// Forgiving load for resume: missing, truncated, corrupt, foreign-stamp
/// or foreign-fingerprint files all return loaded = false with a note —
/// the campaign starts clean instead of crashing or double-counting.
[[nodiscard]] CheckpointLoad try_load_checkpoint(
    const std::string& path, std::string_view expect_stamp,
    std::uint64_t expect_fingerprint);

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, then rename over the target (plus a directory fsync). Readers
/// see the old file or the new one, never a mixture — and a power loss
/// after return cannot leave a zero-length or partial file behind.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Read a whole file; throws WireError when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Accumulates completed slots and persists a snapshot every
/// `every` newly recorded slots (plus on flush()). Mutation is not
/// thread-safe by itself: the campaign engine already serialises
/// on_slot_complete callbacks under its internal mutex, which is where
/// record() runs. recorded() alone is safe to poll from any thread
/// (should_stop hooks run on worker threads).
class CheckpointManager {
 public:
  CheckpointManager(std::string path, CheckpointMeta meta,
                    std::size_t every = 1);

  /// Seed with slots restored from a previous snapshot (no write).
  void adopt(std::vector<SlotRecord> slots);
  /// Record a newly completed slot; flushes when `every` divides the
  /// number of slots recorded since the last flush.
  void record(std::size_t point, std::size_t run,
              const sim::RunResult& result);
  /// Persist now (atomic). Idempotent when nothing changed.
  void flush();

  [[nodiscard]] const std::vector<SlotRecord>& slots() const {
    return slots_;
  }
  /// Slots recorded by *this* process (excludes adopted ones).
  [[nodiscard]] std::size_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  CheckpointMeta meta_;
  std::size_t every_;
  std::vector<SlotRecord> slots_;
  // Atomic because worker threads poll recorded() via should_stop while
  // record() increments under the campaign mutex.
  std::atomic<std::size_t> recorded_{0};
  std::size_t dirty_ = 0;  // slots not yet on disk
};

}  // namespace ear::service
