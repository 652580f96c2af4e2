// The service layer's probes, made in paper_grid's traced run: the same
// 13-app × 4-policy × 3-run grid through service::run_sweep into a fresh
// store with checkpoint_every = 1, halted midway (halt_after_slots) and
// resumed to completion in the same process, then the checkpoint and
// trace codecs timed on what the sweep left in the store.
//
// No timed workload runs the service: its sweeps are one serialised
// chain of checkpoint encodes and fsynced rewrites, and on a shared host
// their walls varied too much from run to run to hold a bound
// (perfbench/DECISIONS.md).
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "service/checkpoint.hpp"
#include "service/sweep.hpp"
#include "service/trace.hpp"
#include "workload/catalog.hpp"

namespace perfbench {
namespace {

using namespace ear;
namespace fs = std::filesystem;

constexpr std::size_t kProbeReps = 5;

service::SweepSpec make_spec(std::uint64_t seed) {
  service::SweepSpec spec;
  spec.name = "perfbench-serve";
  spec.apps = workload::kernel_names();
  for (const std::string& a : workload::application_names()) {
    spec.apps.push_back(a);
  }
  spec.policies = {"monitoring", "min_energy", "min_energy_eufs",
                   "min_time_eufs"};
  spec.runs = 3;
  spec.seed = seed;
  spec.checkpoint_every = 1;
  return spec;
}

std::uintmax_t tree_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

template <class Fn>
double median_ms(std::size_t reps, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(std::move(ms));
}

/// Checkpoint and trace costs, measured by calling the service layer's
/// codecs on what the sweep left in `store`.
void probe_store(const fs::path& store, Report& report, Tracer& tracer) {
  Tracer::Scope probes(tracer, "service.probes");
  const std::string ckpt_path = (store / "campaign.ckpt").string();
  const std::string bytes = service::read_file(ckpt_path);
  service::Checkpoint ckpt;
  report.metric("service.checkpoint.decode_ms", median_ms(kProbeReps, [&] {
    Tracer::Scope s(tracer, "service.decode_checkpoint", probes.id());
    ckpt = service::decode_checkpoint(bytes);
  }), "ms");
  report.metric("service.checkpoint.encode_ms", median_ms(kProbeReps, [&] {
    Tracer::Scope s(tracer, "service.encode_checkpoint", probes.id());
    if (service::encode_checkpoint(ckpt).size() != bytes.size()) {
      throw std::runtime_error("checkpoint re-encoding changed its size");
    }
  }), "ms");
  const std::string probe_path = (store / "probe.ckpt").string();
  report.metric("service.checkpoint.write_ms", median_ms(kProbeReps, [&] {
    Tracer::Scope s(tracer, "service.write_file_atomic", probes.id());
    service::write_file_atomic(probe_path, bytes);
  }), "ms");
  fs::remove(probe_path);
  report.metric("service.checkpoint.bytes", static_cast<double>(bytes.size()),
                "bytes");
  // checkpoint_every = 1 rewrites the whole snapshot after every slot, so
  // the k-th write holds the first k slots in completion order.
  double written = 0.0;
  {
    Tracer::Scope s(tracer, "service.encode_checkpoint.prefixes",
                    probes.id());
    service::Checkpoint prefix{ckpt.meta, {}};
    for (const service::SlotRecord& slot : ckpt.slots) {
      prefix.slots.push_back(slot);
      written += static_cast<double>(service::encode_checkpoint(prefix).size());
    }
  }
  report.metric("service.checkpoint.bytes_written_total", written, "bytes");

  double trace_bytes = 0.0;
  double read_s = 0.0;
  double serialize_s = 0.0;
  std::size_t traces = 0;
  {
    Tracer::Scope s(tracer, "service.trace.read_and_serialize", probes.id());
    for (const auto& e : fs::recursive_directory_iterator(store)) {
      if (e.path().filename() != "trace.bin") continue;
      std::string file = service::read_file(e.path().string());
      trace_bytes += static_cast<double>(file.size());
      const auto t0 = Clock::now();
      service::TraceReader reader(file);
      std::vector<service::TraceEvent> events;
      for (std::uint64_t i = 0; i < reader.event_count(); ++i) {
        events.push_back(reader.at(i));
      }
      read_s += seconds_since(t0);
      const auto t1 = Clock::now();
      service::TraceWriter writer(reader.meta());
      for (const service::TraceEvent& ev : events) writer.add(ev);
      const std::string again = writer.finish();
      serialize_s += seconds_since(t1);
      if (again != file) throw std::runtime_error("trace re-serialization differs");
      ++traces;
    }
  }
  if (traces == 0) throw std::runtime_error("no trace.bin in the store");
  const auto n = static_cast<double>(traces);
  report.metric("service.trace.bytes", trace_bytes, "bytes");
  report.metric("service.trace.read_us", read_s * 1e6 / n, "us");
  report.metric("service.trace.serialize_us", serialize_s * 1e6 / n, "us");
  report.metric("service.store_bytes", static_cast<double>(tree_bytes(store)),
                "bytes");
}

}  // namespace

void run_service_probes(const Args& args, Report& report, Tracer& tracer) {
  const std::size_t jobs = host_cpus();
  const fs::path root =
      fs::path(kOutDir) / ("service-" + std::to_string(args.seed));
  fs::remove_all(root);
  const service::SweepSpec spec = make_spec(args.seed);
  const std::size_t total = service::sweep_points(spec).size() * spec.runs;

  // A sweep halted after half its slots, then resumed.
  const fs::path store = root / "resumed";
  service::SweepOptions opts;
  opts.jobs = jobs;
  opts.fresh = true;
  opts.halt_after_slots = total / 2;
  service::SweepOutcome halted;
  service::SweepOutcome resumed;
  // Write back what earlier work left in the page cache, so that the
  // sweep's fsyncs do not pay for it.
  ::sync();
  {
    Tracer::Scope span(tracer, "service.run_sweep.halted");
    halted = service::run_sweep(spec, store.string(), opts);
  }
  opts.fresh = false;
  opts.halt_after_slots = 0;
  {
    Tracer::Scope span(tracer, "service.run_sweep.resumed");
    resumed = service::run_sweep(spec, store.string(), opts);
  }
  report.ops(total, total - std::min(total, resumed.completed),
             "service sweep slots left incomplete");
  report.check(halted.interrupted && !resumed.interrupted &&
                   resumed.restored == halted.completed,
               "the resume restored exactly the slots the halted sweep "
               "completed");

  // Output check: an uninterrupted sweep of the same spec.
  const fs::path reference = root / "uninterrupted";
  opts.fresh = true;
  (void)service::run_sweep(spec, reference.string(), opts);
  report.check(service::read_file((reference / "campaign.json").string()) ==
                   service::read_file((store / "campaign.json").string()),
               "resumed campaign.json byte-identical to an uninterrupted "
               "sweep");

  probe_store(store, report, tracer);
  fs::remove_all(root);
}

}  // namespace perfbench
