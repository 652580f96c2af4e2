#include "service/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/contracts.hpp"
#include "faults/fault_plan.hpp"
#include "policies/policy_api.hpp"

namespace ear::service {

namespace {

constexpr std::string_view kMagic = "EARCKPT1";

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Doubles hash as their IEEE-754 bit patterns — the same convention the
/// checkpoint payload uses, so "same value" means "same bits".
std::uint64_t fnv1a_f64(std::uint64_t h, double v) {
  return fnv1a_u64(h, std::bit_cast<std::uint64_t>(v));
}

void serialize_node_result(ByteWriter* w, const sim::NodeResult& n) {
  w->f64(n.elapsed_s);
  w->f64(n.energy_j);
  w->f64(n.pkg_energy_j);
  w->f64(n.avg_dc_power_w);
  w->f64(n.avg_pkg_power_w);
  w->f64(n.avg_cpu_ghz);
  w->f64(n.avg_imc_ghz);
  w->f64(n.cpi);
  w->f64(n.tpi);
  w->f64(n.gbps);
  w->f64(n.vpi);
  w->varint(n.signatures);
  w->varint(n.msr_writes);
  w->varint(n.rejected_windows);
  w->varint(n.reanchors);
  w->varint(n.verify_failures);
  w->varint(n.reprobes);
  w->u8(n.degraded ? 1 : 0);
}

sim::NodeResult deserialize_node_result(ByteReader* r) {
  sim::NodeResult n;
  n.elapsed_s = r->f64();
  n.energy_j = r->f64();
  n.pkg_energy_j = r->f64();
  n.avg_dc_power_w = r->f64();
  n.avg_pkg_power_w = r->f64();
  n.avg_cpu_ghz = r->f64();
  n.avg_imc_ghz = r->f64();
  n.cpi = r->f64();
  n.tpi = r->f64();
  n.gbps = r->f64();
  n.vpi = r->f64();
  n.signatures = r->varint();
  n.msr_writes = r->varint();
  n.rejected_windows = r->varint();
  n.reanchors = r->varint();
  n.verify_failures = r->varint();
  n.reprobes = r->varint();
  n.degraded = r->u8() != 0;
  return n;
}

void serialize_fault_report(ByteWriter* w, const faults::FaultReport& f) {
  w->varint(f.msr_drops);
  w->varint(f.msr_locks);
  w->varint(f.snapshot_faults);
  w->varint(f.dropped_readings);
  w->varint(f.island_dropouts);
  w->varint(f.verify_failures);
  w->varint(f.rejected_windows);
  w->varint(f.missed_readings);
  w->varint(f.reprobes);
  w->varint(f.fallbacks);
  w->varint(f.reanchors);
  w->varint(f.unsettled_nodes);
}

faults::FaultReport deserialize_fault_report(ByteReader* r) {
  faults::FaultReport f;
  f.msr_drops = r->varint();
  f.msr_locks = r->varint();
  f.snapshot_faults = r->varint();
  f.dropped_readings = r->varint();
  f.island_dropouts = r->varint();
  f.verify_failures = r->varint();
  f.rejected_windows = r->varint();
  f.missed_readings = r->varint();
  f.reprobes = r->varint();
  f.fallbacks = r->varint();
  f.reanchors = r->varint();
  f.unsettled_nodes = r->varint();
  return f;
}

std::string encode_payload(const Checkpoint& c) {
  ByteWriter w;
  w.u32(c.meta.format);
  w.str(c.meta.stamp);
  w.u64(c.meta.fingerprint);
  w.u64(c.meta.total_slots);
  w.varint(c.slots.size());
  for (const SlotRecord& s : c.slots) {
    w.varint(s.point);
    w.varint(s.run);
    serialize_run_result(&w, s.result);
  }
  return w.bytes();
}

/// Inverse of encode_payload, over the CRC-verified payload bytes.
Checkpoint decode_payload(std::string_view payload) {
  ByteReader p(payload);
  Checkpoint c;
  c.meta.format = p.u32();
  if (c.meta.format != kCheckpointFormatVersion) {
    throw WireError("checkpoint format v" + std::to_string(c.meta.format) +
                    " (this binary reads v" +
                    std::to_string(kCheckpointFormatVersion) + ")");
  }
  c.meta.stamp = p.str();
  c.meta.fingerprint = p.u64();
  c.meta.total_slots = p.u64();
  const std::uint64_t count = p.varint();
  c.slots.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SlotRecord s;
    s.point = p.varint();
    s.run = p.varint();
    s.result = deserialize_run_result(&p);
    c.slots.push_back(std::move(s));
  }
  if (!p.at_end()) {
    throw WireError("checkpoint payload has trailing garbage");
  }
  return c;
}

}  // namespace

std::uint64_t campaign_fingerprint(
    const std::vector<sim::CampaignPoint>& points) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  h = fnv1a_u64(h, points.size());
  for (const sim::CampaignPoint& p : points) {
    h = fnv1a(h, p.label);
    h = fnv1a_u64(h, p.runs);
    h = fnv1a_u64(h, p.cfg.seed);
    h = fnv1a(h, p.cfg.app.name);
    h = fnv1a(h, p.cfg.earl.policy);
    h = fnv1a_u64(h, p.cfg.app.nodes);
    h = fnv1a_u64(h, p.cfg.app.total_iterations());
    h = fnv1a_u64(h, p.cfg.attach_earl ? 1 : 0);
    // Policy tunables steer every frequency decision — sweep specs feed
    // cpu_th/unc_th straight into these — so they are part of the grid's
    // identity: a re-run with edited thresholds must not silently mix
    // its results into an old checkpoint.
    const policies::PolicySettings& ps = p.cfg.earl.policy_settings;
    h = fnv1a(h, p.cfg.earl.model);
    h = fnv1a_f64(h, ps.cpu_policy_th);
    h = fnv1a_f64(h, ps.unc_policy_th);
    h = fnv1a_f64(h, ps.sig_change_th);
    h = fnv1a_f64(h, ps.min_eff_gain);
    h = fnv1a_f64(h, ps.raise_gain_th);
    h = fnv1a_f64(h, ps.validate_margin);
    h = fnv1a_u64(h, ps.min_time_default_offset);
    h = fnv1a_u64(h, (ps.hw_guided_imc ? 1u : 0u) |
                         (ps.raise_uncore ? 2u : 0u));
    // Fault plans hash by content, not by event count: editing a plan
    // file without adding or removing events still changes the grid.
    const faults::FaultPlan* plan = p.cfg.fault_plan.get();
    h = fnv1a_u64(h, plan != nullptr ? plan->specs.size() : 0);
    if (plan != nullptr) {
      for (const faults::FaultSpec& s : plan->specs) {
        h = fnv1a_u64(h, static_cast<std::uint64_t>(s.family));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(s.node)));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(s.socket)));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(s.island)));
        h = fnv1a_f64(h, s.start_s);
        h = fnv1a_f64(h, s.end_s);
        h = fnv1a_f64(h, s.probability);
        h = fnv1a_f64(h, s.magnitude);
        h = fnv1a_u64(h, s.reg);
      }
    }
  }
  return h;
}

std::uint64_t campaign_fingerprint(const sim::Campaign& c) {
  return campaign_fingerprint(c.points());
}

void serialize_run_result(ByteWriter* w, const sim::RunResult& r) {
  w->f64(r.total_time_s);
  w->f64(r.total_energy_j);
  w->f64(r.avg_dc_power_w);
  w->f64(r.avg_pkg_power_w);
  w->f64(r.avg_cpu_ghz);
  w->f64(r.avg_imc_ghz);
  w->f64(r.cpi);
  w->f64(r.gbps);
  w->varint(r.nodes.size());
  for (const sim::NodeResult& n : r.nodes) serialize_node_result(w, n);
  w->varint(r.timeline.size());
  for (const sim::TimelinePoint& p : r.timeline) {
    w->f64(p.t_s);
    w->f64(p.cpu_ghz);
    w->f64(p.imc_ghz);
    w->f64(p.dc_power_w);
  }
  w->varint(r.eargm_throttles);
  w->varint(r.eargm_final_limit);
  serialize_fault_report(w, r.fault_report);
  w->varint(r.fault_events.size());
  for (const faults::FaultEvent& e : r.fault_events) {
    w->f64(e.t_s);
    w->varint(e.node);
    w->u8(static_cast<std::uint8_t>(e.family));
  }
}

sim::RunResult deserialize_run_result(ByteReader* r) {
  sim::RunResult out;
  out.total_time_s = r->f64();
  out.total_energy_j = r->f64();
  out.avg_dc_power_w = r->f64();
  out.avg_pkg_power_w = r->f64();
  out.avg_cpu_ghz = r->f64();
  out.avg_imc_ghz = r->f64();
  out.cpi = r->f64();
  out.gbps = r->f64();
  const std::uint64_t nodes = r->varint();
  out.nodes.reserve(nodes);
  for (std::uint64_t i = 0; i < nodes; ++i) {
    out.nodes.push_back(deserialize_node_result(r));
  }
  const std::uint64_t tl = r->varint();
  out.timeline.reserve(tl);
  for (std::uint64_t i = 0; i < tl; ++i) {
    sim::TimelinePoint p;
    p.t_s = r->f64();
    p.cpu_ghz = r->f64();
    p.imc_ghz = r->f64();
    p.dc_power_w = r->f64();
    out.timeline.push_back(p);
  }
  out.eargm_throttles = r->varint();
  out.eargm_final_limit = r->varint();
  out.fault_report = deserialize_fault_report(r);
  const std::uint64_t events = r->varint();
  out.fault_events.reserve(events);
  for (std::uint64_t i = 0; i < events; ++i) {
    faults::FaultEvent e;
    e.t_s = r->f64();
    e.node = static_cast<std::uint32_t>(r->varint());
    e.family = static_cast<faults::FaultFamily>(r->u8());
    out.fault_events.push_back(e);
  }
  return out;
}

std::string encode_checkpoint(const Checkpoint& c) {
  const std::string payload = encode_payload(c);
  // The length field is u32; a payload over 4 GiB would silently
  // truncate and fail the CRC only at load time, losing the campaign.
  EAR_EXPECT(payload.size() <= 0xFFFFFFFFu);
  ByteWriter w;
  w.raw(kMagic);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));
  return w.bytes();
}

Checkpoint decode_checkpoint(std::string_view bytes) {
  ByteReader r(bytes);
  if (bytes.size() < kMagic.size() ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    throw WireError("not a checkpoint file (bad magic)");
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) (void)r.u8();
  const std::uint32_t len = r.u32();
  // 64-bit on purpose: a corrupted length near UINT32_MAX would wrap a
  // 32-bit `len + 4` to a tiny value and sail past the truncation check.
  if (r.remaining() < static_cast<std::uint64_t>(len) + 4) {
    throw WireError("checkpoint truncated: payload of " +
                    std::to_string(len) + " byte(s) not fully present");
  }
  const std::string_view payload = bytes.substr(r.pos(), len);
  ByteReader tail(bytes.substr(r.pos() + len));
  const std::uint32_t want = tail.u32();
  if (!tail.at_end()) {
    throw WireError("checkpoint has trailing garbage after the CRC");
  }
  if (crc32(payload) != want) {
    throw WireError("checkpoint CRC mismatch (file corrupt)");
  }
  return decode_payload(payload);
}

CheckpointLoad try_load_checkpoint(const std::string& path,
                                   std::string_view expect_stamp,
                                   std::uint64_t expect_fingerprint) {
  CheckpointLoad out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.note = "no checkpoint at " + path;
    return out;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  try {
    out.checkpoint = decode_checkpoint(bytes);
  } catch (const std::exception& e) {
    // Catch everything, not just WireError: "forgiving load" is a
    // contract — no file content may crash the serve command, even one
    // that trips a defect in the decoder itself.
    out.note = std::string("ignoring ") + path + ": " + e.what();
    return out;
  }
  if (out.checkpoint.meta.stamp != expect_stamp) {
    out.note = "checkpoint written by a different binary (" +
               out.checkpoint.meta.stamp + "; this binary is " +
               std::string(expect_stamp) +
               "); starting clean — pass the original binary or --fresh";
    out.checkpoint = {};
    return out;
  }
  if (out.checkpoint.meta.fingerprint != expect_fingerprint) {
    out.note =
        "checkpoint belongs to a different campaign grid (spec changed); "
        "starting clean";
    out.checkpoint = {};
    return out;
  }
  out.loaded = true;
  return out;
}

#if defined(__unix__) || defined(__APPLE__)
namespace {
/// Best-effort fsync of a file or directory by path. Failure is not an
/// error: some filesystems reject fsync on directories, and durability
/// beyond the rename is defence in depth, not a correctness invariant
/// (the CRC gate degrades a torn write to "start clean").
void fsync_path(const char* path, bool directory) {
  const int fd = ::open(path, O_RDONLY | (directory ? O_DIRECTORY : 0));
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}
}  // namespace
#endif

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw WireError("cannot open " + tmp + " for writing");
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw WireError("short write to " + tmp);
  }
#if defined(__unix__) || defined(__APPLE__)
  // rename() makes the *name* change atomic, not the data durable: on a
  // power loss the rename can survive while the bytes do not, leaving a
  // zero-length or partial file under a valid name. Sync data before
  // the rename, and the directory entry after it.
  fsync_path(tmp.c_str(), /*directory=*/false);
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw WireError("cannot rename " + tmp + " over " + path);
  }
#if defined(__unix__) || defined(__APPLE__)
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  fsync_path(parent.empty() ? "." : parent.c_str(), /*directory=*/true);
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw WireError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CheckpointManager::CheckpointManager(std::string path, CheckpointMeta meta,
                                     std::size_t every)
    : path_(std::move(path)),
      meta_(std::move(meta)),
      every_(every == 0 ? 1 : every) {}

void CheckpointManager::adopt(std::vector<SlotRecord> slots) {
  slots_ = std::move(slots);
}

void CheckpointManager::record(std::size_t point, std::size_t run,
                               const sim::RunResult& result) {
  slots_.push_back(SlotRecord{.point = point, .run = run, .result = result});
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (++dirty_ >= every_) flush();
}

void CheckpointManager::flush() {
  Checkpoint c;
  c.meta = meta_;
  c.slots = slots_;
  // Completion order depends on the job count; the file must not. Sort
  // by (point, run) so identical progress always produces identical
  // bytes.
  std::sort(c.slots.begin(), c.slots.end(),
            [](const SlotRecord& a, const SlotRecord& b) {
              return a.point != b.point ? a.point < b.point : a.run < b.run;
            });
  write_file_atomic(path_, encode_checkpoint(c));
  dirty_ = 0;
}

}  // namespace ear::service
