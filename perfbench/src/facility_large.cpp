// facility_large: the event core at tens of thousands of nodes. 8
// islands, a 200 W/node cap and phase-stable jobs (the synthesiser's
// iterations stretched 10×, as bench_cluster_scale --busy-scale 10 does),
// run through sim::run_facility_event at sim_jobs = nproc.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "sim/event_core.hpp"
#include "sim/facility.hpp"
#include "sim/job_queue.hpp"

namespace perfbench {
namespace {

using namespace ear;

constexpr std::size_t kNodes = 32768;
constexpr std::size_t kIslands = 8;
constexpr std::size_t kJobCount = kNodes / 2;
constexpr double kBudgetPerNodeW = 200.0;
constexpr double kBusyScale = 10.0;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMinReps = 3;

sim::FacilityConfig make_config(std::uint64_t seed, std::size_t workers) {
  sim::FacilityConfig cfg =
      sim::make_facility_config(kNodes, kIslands, kJobCount, seed);
  cfg.budget = {static_cast<double>(kNodes) * kBudgetPerNodeW};
  cfg.sim_jobs = workers;
  cfg.core = sim::SimCore::kEvent;
  for (sim::FacilityJob& job : cfg.jobs) job.work.iter_seconds *= kBusyScale;
  return cfg;
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_f64(std::string& out, double v) { put_u64(out, bits(v)); }

/// Every simulated field of a FacilityResult as bytes (the host walls are
/// left out), so two results compare bitwise.
std::string fingerprint(const sim::FacilityResult& r) {
  std::string out;
  for (const sim::FacilityJobOutcome& j : r.jobs) {
    out += j.name;
    put_u64(out, j.island);
    put_u64(out, j.nodes);
    put_f64(out, j.submit_s);
    put_f64(out, j.start_s);
    put_f64(out, j.end_s);
    put_f64(out, j.energy_j);
  }
  for (const sim::FacilityIslandOutcome& i : r.islands) {
    out += i.node_type;
    put_u64(out, i.nodes);
    put_f64(out, i.energy_j);
    put_f64(out, i.final_budget_w);
    for (std::size_t v : {i.final_limit, i.throttles, i.releases,
                          i.blind_rounds, i.missed_readings,
                          i.resumed_nodes}) {
      put_u64(out, v);
    }
  }
  for (double v : {r.makespan_s, r.facility_energy_j, r.peak_power_w,
                   r.budget_w, r.worst_overrun_w}) {
    put_f64(out, v);
  }
  for (std::size_t v : {r.rounds, r.cap_overrun_rounds, r.redistributions,
                        r.facility_blind_rounds, r.backfills,
                        r.peak_pending_jobs}) {
    put_u64(out, v);
  }
  put_u64(out, r.faults.injected());
  put_u64(out, r.faults.detected());
  put_u64(out, r.faults.recovered());
  for (const std::string& v : r.violations) out += v;
  return out;
}

/// Replays the run's job stream through a fresh JobQueue — releases at
/// each job's end, admit() once per control round — and returns the mean
/// wall time of one admit() call in microseconds.
double job_queue_admit_us(const sim::FacilityConfig& cfg,
                          const sim::FacilityResult& r) {
  std::vector<std::size_t> sizes;
  for (const sim::FacilityIsland& i : cfg.islands) sizes.push_back(i.nodes);
  sim::JobQueue queue(cfg.jobs, sizes, cfg.backfill);
  struct Running {
    double end_s;
    sim::JobStart start;
  };
  std::vector<Running> running;
  double admit_s = 0.0;
  std::size_t calls = 0;
  for (std::size_t round = 0; round <= r.rounds; ++round) {
    const double now = static_cast<double>(round) * cfg.round_s;
    std::erase_if(running, [&](const Running& j) {
      if (j.end_s > now) return false;
      queue.release(j.start.island, j.start.local_nodes);
      return true;
    });
    const auto t0 = Clock::now();
    std::vector<sim::JobStart> started = queue.admit(now);
    admit_s += seconds_since(t0);
    ++calls;
    for (sim::JobStart& s : started) {
      running.push_back(Running{r.jobs.at(s.job).end_s, std::move(s)});
    }
  }
  return admit_s * 1e6 / static_cast<double>(calls);
}

}  // namespace

void run_facility_large(const Args& args, Report& report, Tracer& tracer) {
  const std::size_t workers = host_cpus();

  // Set-up: facility and job-mix synthesis, repeated here and once more
  // after every timed run so that its median samples the same host
  // conditions as the runs. Facility assembly runs inside
  // run_facility_event and is timed there (walls.build_s).
  std::vector<double> config_walls;
  sim::FacilityConfig cfg;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    cfg = make_config(args.seed, workers);
    config_walls.push_back(seconds_since(t0));
  }

  // Timed phase: whole facility runs, closed loop.
  std::vector<double> walls;  // run wall minus assembly
  std::vector<double> build_walls;
  std::vector<double> core_walls;
  std::string first;
  sim::FacilityResult result;
  std::size_t mismatched = 0;
  const auto phase_t0 = Clock::now();
  while (walls.size() < kMinReps || seconds_since(phase_t0) < args.seconds) {
    // Give back what the previous run freed, so that every run's assembly
    // starts from the same heap: otherwise it reuses a varying share of
    // that memory and its wall flips between two levels.
    ::malloc_trim(0);
    const auto t0 = Clock::now();
    result = sim::run_facility_event(cfg);
    const double wall = seconds_since(t0);
    walls.push_back(wall - result.walls.build_s);
    build_walls.push_back(result.walls.build_s);
    core_walls.push_back(result.walls.core_s);
    report.ops(1, result.violations.empty() ? 0 : 1,
               "facility run with chaos violations");
    const auto s0 = Clock::now();
    (void)make_config(args.seed, workers);
    config_walls.push_back(seconds_since(s0));
    for (const std::string& v : result.violations) {
      std::printf("violation: %s\n", v.c_str());
    }
    const std::string fp = fingerprint(result);
    if (first.empty()) {
      first = fp;
    } else if (fp != first) {
      ++mismatched;
    }
  }
  const double peak_kb = peak_rss_kb();
  const double wall = median(walls);
  print_walls(args.workload + " config walls", config_walls);
  print_walls(args.workload + " assembly walls", build_walls);
  print_walls(args.workload + " batch walls", walls);
  const double node_rounds =
      static_cast<double>(kNodes) * static_cast<double>(result.rounds);
  std::printf("facility_large: %zu nodes, %zu islands, %zu jobs, %zu rounds, "
              "%zu runs, workers %zu\n",
              kNodes, kIslands, result.jobs.size(), result.rounds,
              walls.size(), workers);
  report.check(mismatched == 0,
               "every facility run bitwise-equal to the first");

  if (!args.trace) {
    report.metric("setup_s", median(config_walls) + median(build_walls), "s");
    report.metric("wall_s", wall, "s");
    report.metric("slots_per_s",
                  static_cast<double>(result.jobs.size()) / wall, "1/s");
    report.metric("node_rounds_per_s", node_rounds / wall, "1/s");
    report.metric("peak_rss_mb", peak_kb / 1024.0, "MB");
    report.metric("rss_per_node_kb", peak_kb / static_cast<double>(kNodes),
                  "KB");
    report.metric("paper_err_pp", measure_paper_error(args.seed, workers),
                  "pp");
    return;
  }

  // Traced: one run at nproc workers inside a span (overhead), then one
  // at a single worker for scaling and the bitwise check.
  sim::FacilityResult traced;
  double traced_wall = 0.0;
  ::malloc_trim(0);
  {
    Tracer::Scope span(tracer, "sim.run_facility_event");
    const auto t0 = Clock::now();
    traced = sim::run_facility_event(cfg);
    traced_wall = seconds_since(t0) - traced.walls.build_s;
  }
  report.metric("trace.overhead_pct", (traced_wall / wall - 1.0) * 100.0, "%");
  sim::FacilityConfig serial_cfg = cfg;
  serial_cfg.sim_jobs = 1;
  sim::FacilityResult serial;
  ::malloc_trim(0);
  {
    Tracer::Scope span(tracer, "sim.run_facility_event.1worker");
    serial = sim::run_facility_event(serial_cfg);
  }
  report.check(fingerprint(serial) == first,
               std::to_string(workers) +
                   "-worker FacilityResult bitwise-equal to 1 worker");
  if (workers < 2) {
    report.not_measured("sim.shard.scale_eff",
                        "host has one CPU; scaling needs two workers");
  } else {
    report.metric("sim.shard.scale_eff",
                  serial.walls.core_s /
                      (static_cast<double>(workers) * median(core_walls)),
                  "ratio");
  }
  {
    Tracer::Scope span(tracer, "sim.job_queue.replay");
    report.metric("sim.job_queue.admit_us", job_queue_admit_us(cfg, result),
                  "us");
  }
  std::size_t blind = result.facility_blind_rounds;
  for (const sim::FacilityIslandOutcome& i : result.islands) {
    blind += i.blind_rounds;
  }
  report.metric("workload.make_facility_config_ms",
                median(config_walls) * 1e3, "ms");
  report.metric("sim.facility.build_s", median(build_walls), "s");
  report.metric("sim.facility.core_s", median(core_walls), "s");
  report.metric("sim.facility.core_us_per_round",
                median(core_walls) * 1e6 / static_cast<double>(result.rounds),
                "us");
  report.metric("sim.job_queue.backfills",
                static_cast<double>(result.backfills), "count");
  report.metric("eargm.redistributions",
                static_cast<double>(result.redistributions), "count");
  report.metric("eargm.blind_rounds", static_cast<double>(blind), "count");
}

}  // namespace perfbench
