// Extension bench: facility-scale sweep. Runs the facility tier — job
// arrival stream, heterogeneous islands, hierarchical EARGM federation
// under a tight facility cap — from 10 to 10k nodes and reports scale
// behaviour: simulated makespan, wall-clock throughput (node-rounds per
// second of host time), cap enforcement quality and queue statistics.
//
//   bench_cluster_scale [--nodes 10,100,1000,10000] [--jobs N]
//                       [--budget-per-node W] [--out FILE.csv]
//                       [--event-diff] [--diff-out FILE.json]
//
// --out writes a CSV report (the CI facility-smoke job uploads it).
// --event-diff appends the event-vs-oracle sweep: for every size the
// facility runs once on the event core and once on the round-loop test
// oracle (tests/oracles/), single-threaded (speedup is the wall-clock
// ratio, so the machine cancels out), then the event core runs again at
// 2/4/8 workers over an 8-island build to measure shard scaling. Each
// size is also checked: with the dither gate closed the two engines'
// FacilityResults must be bitwise equal, and with the default dither the
// facility energy and makespan must agree within the 2% envelope
// test_event_core enforces.
// --diff-out writes the JSON that bench_guard.py --event-core checks
// against bench/BENCH_event_core_baseline.json in CI.
//
// Exits 1 if any run reports a chaos-invariant violation or any
// event-vs-oracle check fails, so a CI step running it can fail.
#include "bench_util.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/args.hpp"
#include "common/error.hpp"
#include "facility_reference.hpp"
#include "sim/event_core.hpp"
#include "sim/facility.hpp"

namespace {

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t from = 0;
  while (from <= csv.size()) {
    const std::size_t comma = csv.find(',', from);
    const std::string item = csv.substr(
        from, comma == std::string::npos ? std::string::npos : comma - from);
    if (!item.empty()) {
      out.push_back(static_cast<std::size_t>(std::stoull(item)));
    }
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  if (out.empty()) throw ear::common::ConfigError("--nodes list is empty");
  return out;
}

std::size_t islands_for(std::size_t nodes) {
  // 1 island up to 32 nodes, then roughly one per 512, capped at 8 —
  // enough tiers to make federation meaningful without making tiny
  // facilities degenerate.
  if (nodes <= 32) return 1;
  return std::min<std::size_t>(8, 2 + nodes / 512);
}

}  // namespace

namespace {

/// Whole-run and core-loop wall seconds for one facility run, and its
/// result. The core wall excludes facility assembly (the same code in the
/// event core and the oracle), isolating what the two implement
/// differently.
struct TimedRun {
  double total_s = 0.0;
  double core_s = 0.0;
  ear::sim::FacilityResult result;
};

using FacilityEngine =
    ear::sim::FacilityResult (*)(const ear::sim::FacilityConfig&);

/// Failed checks so far (violations and event-vs-oracle mismatches).
std::size_t g_failures = 0;

void report_violations(const ear::sim::FacilityResult& r, const char* name,
                       std::size_t nodes) {
  for (const std::string& v : r.violations) {
    std::printf("VIOLATION (%s, %zu nodes): %s\n", name, nodes, v.c_str());
    ++g_failures;
  }
}

TimedRun time_facility(FacilityEngine engine, const char* name,
                       std::size_t nodes,
                       const ear::sim::FacilityConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  ear::sim::FacilityResult r = engine(cfg);
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  report_violations(r, name, nodes);
  const double core_s = r.walls.core_s;
  return {wall, core_s, std::move(r)};
}

/// The dithered event core against the oracle: facility energy and
/// makespan must agree within test_event_core's 2% envelope. Per-job
/// drift is reported, not gated: a job whose end moves by one round can
/// reorder later admissions and land on another island, which moves its
/// energy by more than the stretch tolerance while the facility totals
/// stay put (docs/performance.md, "Closed-form stretches").
void check_dithered(const ear::sim::FacilityResult& ev,
                    const ear::sim::FacilityResult& ref, std::size_t nodes) {
  constexpr double kEnvelope = 0.02;
  const auto rel = [](double a, double b) {
    return b != 0.0 ? std::abs(a - b) / std::abs(b) : std::abs(a - b);
  };
  const double energy = rel(ev.facility_energy_j, ref.facility_energy_j);
  const double makespan = rel(ev.makespan_s, ref.makespan_s);
  std::size_t outside = 0;
  std::size_t moved = 0;  // of those, started elsewhere or at another time
  double worst = 0.0;
  const std::size_t jobs = std::min(ev.jobs.size(), ref.jobs.size());
  for (std::size_t j = 0; j < jobs; ++j) {
    const double d = rel(ev.jobs[j].energy_j, ref.jobs[j].energy_j);
    if (d > kEnvelope) {
      ++outside;
      if (ev.jobs[j].island != ref.jobs[j].island ||
          ev.jobs[j].start_s != ref.jobs[j].start_s) {
        ++moved;
      }
    }
    worst = std::max(worst, d);
  }
  std::printf("dithered %zu nodes: facility energy %.2e, makespan %.2e "
              "relative to the oracle; %zu of %zu jobs beyond 2%% "
              "(worst %.1f%%; %zu of them started on another island or "
              "round)\n",
              nodes, energy, makespan, outside, jobs, 100.0 * worst, moved);
  if (!(energy <= kEnvelope) || !(makespan <= kEnvelope)) {
    std::printf("MISMATCH (dithered, %zu nodes): facility energy or "
                "makespan outside the 2%% envelope\n",
                nodes);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ear;
  using Clock = std::chrono::steady_clock;
  const common::ArgParser args(argc, argv, {"event-diff"});
  const std::vector<std::size_t> sizes =
      parse_sizes(args.get("nodes", std::string("10,100,1000,10000")));
  const auto jobs =
      static_cast<std::size_t>(args.get("jobs", std::int64_t{0}));
  // ~200 W/node sits between the idle floor (~150 W) and the busy draw
  // (~300-450 W), so the cap binds and the federation has to work at
  // every scale while staying physically reachable.
  const double budget_per_node = args.get("budget-per-node", 200.0);
  const std::string out_path = args.get("out", std::string());
  const bool event_diff = args.flag("event-diff");
  const std::string diff_out = args.get("diff-out", std::string());

  bench::banner("Extension: facility scale sweep (job stream + federated "
                "EARGM under a tight cap)");

  common::AsciiTable table;
  table.columns({"nodes", "islands", "jobs", "rounds", "makespan (s)",
                 "peak (kW)", "budget (kW)", "overrun rds", "worst over "
                 "(kW)", "mean wait (s)", "backfills", "wall (s)",
                 "node-rounds/s", "violations"});
  std::ofstream csv;
  if (!out_path.empty()) {
    csv.open(out_path);
    if (!csv) throw common::ConfigError("cannot open " + out_path);
    csv << "nodes,islands,jobs,rounds,makespan_s,peak_w,budget_w,"
           "overrun_rounds,worst_overrun_w,mean_wait_s,backfills,"
           "wall_s,node_rounds_per_s,violations\n";
  }

  for (const std::size_t nodes : sizes) {
    const std::size_t islands = islands_for(nodes);
    // Job count scales with the facility so big runs stay busy; widths
    // and work mix come from the deterministic synthesiser.
    const std::size_t job_count = std::max<std::size_t>(8, nodes / 2);
    sim::FacilityConfig cfg =
        sim::make_facility_config(nodes, islands, job_count, bench::kSeed);
    cfg.budget = {static_cast<double>(nodes) * budget_per_node};
    cfg.sim_jobs = jobs;

    const auto t0 = Clock::now();
    const sim::FacilityResult r = sim::run_facility_event(cfg);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double node_rounds =
        static_cast<double>(nodes) * static_cast<double>(r.rounds);
    const double throughput = wall > 0.0 ? node_rounds / wall : 0.0;

    table.add_row({std::to_string(nodes), std::to_string(islands),
                   std::to_string(r.jobs.size()), std::to_string(r.rounds),
                   common::AsciiTable::num(r.makespan_s, 1),
                   common::AsciiTable::num(r.peak_power_w / 1e3, 1),
                   common::AsciiTable::num(r.budget_w / 1e3, 1),
                   std::to_string(r.cap_overrun_rounds),
                   common::AsciiTable::num(r.worst_overrun_w / 1e3, 2),
                   common::AsciiTable::num(r.mean_wait_s(), 1),
                   std::to_string(r.backfills),
                   common::AsciiTable::num(wall, 2),
                   common::AsciiTable::num(throughput, 0),
                   std::to_string(r.violations.size())});
    if (csv.is_open()) {
      csv << nodes << ',' << islands << ',' << r.jobs.size() << ','
          << r.rounds << ',' << r.makespan_s << ',' << r.peak_power_w << ','
          << r.budget_w << ',' << r.cap_overrun_rounds << ','
          << r.worst_overrun_w << ',' << r.mean_wait_s() << ','
          << r.backfills << ',' << wall << ',' << throughput << ','
          << r.violations.size() << '\n';
    }
    report_violations(r, "event core", nodes);
  }
  table.print();
  std::printf(
      "Expected: peak power hugs the budget as the federation throttles;\n"
      "transient overruns shrink as islands settle; throughput grows with\n"
      "facility size (rounds amortise), and no run reports a violation.\n");

  if (event_diff) {
    bench::banner("Event core vs oracle round loop (single-thread speedup "
                  "+ 1..8 shard scaling over 8 islands)");
    const double busy_scale = args.get("busy-scale", 10.0);
    const unsigned host_cpus = std::thread::hardware_concurrency();
    std::printf("host cpus: %u (shard-scaling walls are only meaningful "
                "when the host has as many cores as workers;\n"
                "speedup is a same-machine ratio and holds anywhere)\n",
                host_cpus);
    common::AsciiTable diff_table;
    diff_table.columns({"nodes", "ref 1t (s)", "event 1t (s)", "speedup",
                        "core speedup", "event 2w (s)", "event 4w (s)",
                        "event 8w (s)", "scale eff @8"});
    std::ofstream json;
    if (!diff_out.empty()) {
      json.open(diff_out);
      if (!json) throw common::ConfigError("cannot open " + diff_out);
      json << "{\n  \"schema\": \"event_core_baseline_v1\",\n"
           << "  \"budget_per_node_w\": " << budget_per_node << ",\n"
           << "  \"busy_scale\": " << busy_scale << ",\n"
           << "  \"host_cpus\": " << host_cpus << ",\n"
           << "  \"entries\": [\n";
    }
    bool first = true;
    for (const std::size_t nodes : sizes) {
      // Fixed 8 islands (= 8 shards): the shard count bounds event-core
      // parallelism, and the scaling story needs all eight.
      const std::size_t islands = std::min<std::size_t>(8, nodes);
      const std::size_t job_count = std::max<std::size_t>(8, nodes / 2);
      sim::FacilityConfig cfg =
          sim::make_facility_config(nodes, islands, job_count, bench::kSeed);
      cfg.budget = {static_cast<double>(nodes) * budget_per_node};
      cfg.sim_jobs = 1;
      // Run the catalog in its phase-stable regime: stretching the
      // synthesiser's iterations to multi-second phases (the paper's MPI
      // workloads iterate at 0.2-3 s) keeps most nodes busy for most
      // rounds — the production regime, and the one where the oracle
      // loop pays its per-10 ms-period governor stepping.
      for (sim::FacilityJob& job : cfg.jobs) {
        job.work.iter_seconds *= busy_scale;
      }

      const TimedRun ref_1t =
          time_facility(sim::run_facility_reference, "oracle", nodes, cfg);
      const TimedRun ev_1t =
          time_facility(sim::run_facility_event, "event core", nodes, cfg);
      check_dithered(ev_1t.result, ref_1t.result, nodes);
      {
        // Dither gate closed: neither engine draws governor randomness,
        // and the event core must reproduce the oracle bit for bit.
        sim::FacilityConfig quiet = cfg;
        quiet.ufs.dither_probability = 0.0;
        const sim::FacilityResult ev0 = sim::run_facility_event(quiet);
        const sim::FacilityResult ref0 = sim::run_facility_reference(quiet);
        report_violations(ev0, "event core, dither 0", nodes);
        report_violations(ref0, "oracle, dither 0", nodes);
        const std::string diff = ear::sim::facility_result_difference(ev0, ref0);
        if (diff.empty()) {
          std::printf("dither-free %zu nodes: event core bitwise equal to "
                      "the oracle\n",
                      nodes);
        } else {
          std::printf("MISMATCH (dither 0, %zu nodes): %s differs\n", nodes,
                      diff.c_str());
          ++g_failures;
        }
      }
      const double speedup =
          ev_1t.total_s > 0.0 ? ref_1t.total_s / ev_1t.total_s : 0.0;
      // Core-loop ratio: facility assembly is the same code in both, so
      // the FacilityWalls core wall isolates the round loops themselves —
      // the quantity the event core changes.
      const double speedup_core =
          ev_1t.core_s > 0.0 ? ref_1t.core_s / ev_1t.core_s : 0.0;

      TimedRun ev_w[3];  // 2, 4, 8 workers
      const std::size_t workers[3] = {2, 4, 8};
      for (std::size_t i = 0; i < 3; ++i) {
        cfg.sim_jobs = workers[i];
        ev_w[i] = time_facility(sim::run_facility_event, "event core",
                                nodes, cfg);
        const std::string diff = ear::sim::facility_result_difference(ev_w[i].result,
                                                  ev_1t.result);
        if (!diff.empty()) {
          std::printf("MISMATCH (%zu workers, %zu nodes): %s differs from "
                      "1 worker\n",
                      workers[i], nodes, diff.c_str());
          ++g_failures;
        }
      }
      // Scaling efficiency at 8 workers over core walls (assembly does
      // not parallelise across workers): perfect would be core_1t / 8.
      const double eff8 =
          ev_w[2].core_s > 0.0 ? ev_1t.core_s / (8.0 * ev_w[2].core_s) : 0.0;

      diff_table.add_row({std::to_string(nodes),
                          common::AsciiTable::num(ref_1t.total_s, 3),
                          common::AsciiTable::num(ev_1t.total_s, 3),
                          common::AsciiTable::num(speedup, 2),
                          common::AsciiTable::num(speedup_core, 2),
                          common::AsciiTable::num(ev_w[0].total_s, 3),
                          common::AsciiTable::num(ev_w[1].total_s, 3),
                          common::AsciiTable::num(ev_w[2].total_s, 3),
                          common::AsciiTable::num(eff8, 2)});
      if (json.is_open()) {
        if (!first) json << ",\n";
        first = false;
        json << "    {\"nodes\": " << nodes << ", \"islands\": " << islands
             << ", \"jobs\": " << job_count
             << ", \"ref_wall_s\": " << ref_1t.total_s
             << ", \"event_wall_s\": " << ev_1t.total_s
             << ", \"ref_core_s\": " << ref_1t.core_s
             << ", \"event_core_s\": " << ev_1t.core_s
             << ", \"speedup_1t\": " << speedup
             << ", \"speedup_core_1t\": " << speedup_core
             << ", \"scale_core_s\": {\"1\": " << ev_1t.core_s
             << ", \"2\": " << ev_w[0].core_s << ", \"4\": " << ev_w[1].core_s
             << ", \"8\": " << ev_w[2].core_s
             << "}, \"scale_eff_8\": " << eff8 << "}";
      }
    }
    if (json.is_open()) json << "\n  ]\n}\n";
    diff_table.print();
    std::printf(
        "Speedup is wall-clock oracle/event on one thread (machine\n"
        "cancels in the ratio); core speedup compares only the round\n"
        "loops (facility assembly is shared code); scale eff @8 is\n"
        "event core 1w / (8 * event core 8w).\n");
  }
  bench::footer();
  if (g_failures > 0) {
    std::printf("bench_cluster_scale: %zu failed check(s)\n", g_failures);
    return 1;
  }
  return 0;
}
