// paper_grid: the paper's own use. Every catalog workload (5 Table II
// kernels + 8 Table V apps) × {monitoring, ME, ME+eU, MT+eU} × 3 runs,
// over kSeedsPerBatch seeds derived from the workload seed, through
// sim::Campaign at jobs = nproc, in memory. The traced run also runs the
// same slots through the service layer (run_service_probes).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "models/learning.hpp"
#include "sim/campaign.hpp"
#include "sim/presets.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

namespace perfbench {
namespace {

using namespace ear;

constexpr std::size_t kSeedsPerBatch = 20;
constexpr std::size_t kRuns = 3;  // the paper averages three runs
constexpr std::size_t kTimelineStride = std::size_t{1} << 30;
// setup_s: the median of set-up groups, each the mean of kSetupsPerGroup
// back-to-back set-ups; one group before the timed phase and one after
// every batch.
constexpr std::size_t kSetupsPerGroup = 20;
constexpr std::size_t kMinBatches = 3;
constexpr std::size_t kTracedBatches = 2;
// Every kSampleStride-th point of batch 0 is re-run serially.
constexpr std::size_t kSampleStride = 131;

const char* const kPolicies[] = {"monitoring", "min_energy",
                                 "min_energy_eufs", "min_time_eufs"};
constexpr std::size_t kNumPolicies = 4;

earl::EarlSettings settings_for(std::size_t policy) {
  switch (policy) {
    case 0: return sim::settings_no_policy();
    case 1: return sim::settings_me();
    case 2: return sim::settings_me_eufs();
    default: return sim::settings_min_time(true);
  }
}

/// An app with a published ME+eU DC energy saving over the nominal run at
/// cpu_policy_th 5%, unc_policy_th 2%: Table III
/// (bench_table3_kernel_savings) and the GROMACS(I) figure
/// (bench_fig5_gromacs1).
struct PaperAnchor {
  const char* app;
  double paper_saving_pct;
};
const std::vector<PaperAnchor> kAnchors = {
    {"bt-mz.c.omp", 7.0}, {"sp-mz.c.omp", 8.0}, {"bt.cuda.d", 11.0},
    {"lu.cuda.d", 5.0},   {"dgemm", 1.0},       {"gromacs-i", 8.17},
};

/// Mean wall, in seconds, of `reps` back-to-back calls of `fn`. One
/// set-up takes milliseconds, too short to time steadily on its own.
template <class Fn>
[[nodiscard]] double mean_wall(std::size_t reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return seconds_since(t0) / static_cast<double>(reps);
}

/// Seeds of one batch, derived from the workload seed.
std::vector<std::uint64_t> batch_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < kSeedsPerBatch; ++i) {
    out.push_back(common::mix_seed(seed, i));
  }
  return out;
}

std::vector<std::string> app_names() {
  std::vector<std::string> names = workload::kernel_names();
  for (const std::string& a : workload::application_names()) {
    names.push_back(a);
  }
  return names;
}

/// The batch: point index = (seed_index * apps + app) * policies + policy.
struct Batch {
  std::vector<workload::AppModel> apps;
  std::vector<sim::CampaignPoint> points;
};

Batch make_batch(std::uint64_t seed) {
  Batch b;
  for (const std::string& name : app_names()) {
    b.apps.push_back(workload::make_app(name));
  }
  for (const std::uint64_t s : batch_seeds(seed)) {
    for (const workload::AppModel& app : b.apps) {
      for (std::size_t p = 0; p < kNumPolicies; ++p) {
        sim::ExperimentConfig cfg{.app = app, .earl = settings_for(p),
                                  .seed = s};
        cfg.timeline_stride = kTimelineStride;
        b.points.push_back(sim::CampaignPoint{
            .label = app.name + "/" + kPolicies[p], .cfg = cfg,
            .runs = kRuns});
      }
    }
  }
  return b;
}

/// One pass of everything before the timed phase: app synthesis and
/// calibration, model learning for each node type, grid assembly.
Batch set_up(std::uint64_t seed) {
  Batch b = make_batch(seed);
  std::map<std::string, const simhw::NodeConfig*> node_types;
  for (const workload::AppModel& app : b.apps) {
    node_types.emplace(app.node_config.name, &app.node_config);
  }
  for (const auto& [name, cfg] : node_types) {
    const models::LearnedModels learned = models::learn_models(*cfg);
    if (!learned.avx512) throw std::runtime_error("no model for " + name);
  }
  return b;
}

bool same_result(const sim::AveragedResult& a, const sim::AveragedResult& b) {
  return bits(a.total_time_s) == bits(b.total_time_s) &&
         bits(a.total_energy_j) == bits(b.total_energy_j) &&
         bits(a.avg_dc_power_w) == bits(b.avg_dc_power_w) &&
         bits(a.avg_pkg_power_w) == bits(b.avg_pkg_power_w) &&
         bits(a.avg_cpu_ghz) == bits(b.avg_cpu_ghz) &&
         bits(a.avg_imc_ghz) == bits(b.avg_imc_ghz) &&
         bits(a.cpi) == bits(b.cpi) && bits(a.gbps) == bits(b.gbps) &&
         bits(a.time_stddev_s) == bits(b.time_stddev_s) && a.runs == b.runs;
}

/// Slots that threw or did not complete.
std::size_t failed_slots(const std::vector<sim::CampaignResult>& results) {
  std::size_t failed = 0;
  for (const sim::CampaignResult& r : results) {
    failed += kRuns - std::min(kRuns, r.completed_runs);
  }
  return failed;
}

/// Per-slot observer of a traced batch: holds the slot's span and infers
/// node 0's policy invocations from its EARL state and signature stream
/// (a new signature seen in the NO_LOOP or NODE_POLICY state is one
/// Policy::apply call).
class SlotObserver : public sim::RunObserver {
 public:
  SlotObserver(Tracer& tracer, std::uint64_t parent)
      : span_(tracer.begin("sim.experiment.run", parent)),
        start_(Clock::now()) {}
  void phase_begin(std::size_t, std::size_t) override {}
  void iteration(const IterationSample& s) override {
    // earl_state is EarlSession::State + 1: 1 = NO_LOOP, 2 = NODE_POLICY.
    if (s.signatures > signatures_ && (state_ == 1 || state_ == 2)) {
      ++apply_calls_;
    }
    signatures_ = s.signatures;
    state_ = s.earl_state;
  }
  [[nodiscard]] std::uint64_t span() const { return span_; }
  [[nodiscard]] Clock::time_point start() const { return start_; }
  [[nodiscard]] std::size_t apply_calls() const { return apply_calls_; }

 private:
  std::uint64_t span_;
  Clock::time_point start_;
  std::size_t signatures_ = 0;
  std::uint8_t state_ = 1;
  std::size_t apply_calls_ = 0;
};

struct TracedCounts {
  std::vector<double> run_ms;
  std::size_t apply_calls = 0;
  std::size_t signatures = 0;
  std::size_t rejected_windows = 0;
  std::uint64_t msr_writes = 0;
};

/// paper_err_pp from monitoring / ME+eU averages per (anchor, seed).
double paper_error(
    const std::vector<std::vector<sim::AveragedResult>>& monitoring,
    const std::vector<std::vector<sim::AveragedResult>>& me_eufs) {
  double sum = 0.0;
  for (std::size_t a = 0; a < kAnchors.size(); ++a) {
    double saving = 0.0;
    for (std::size_t s = 0; s < monitoring[a].size(); ++s) {
      saving += sim::compare(monitoring[a][s], me_eufs[a][s]).energy_saving_pct;
    }
    saving /= static_cast<double>(monitoring[a].size());
    sum += std::fabs(saving - kAnchors[a].paper_saving_pct);
  }
  return sum / static_cast<double>(kAnchors.size());
}

}  // namespace

double measure_paper_error(std::uint64_t seed, std::size_t jobs) {
  const std::vector<std::uint64_t> seeds = batch_seeds(seed);
  sim::CampaignOptions opts;
  opts.jobs = jobs;
  opts.timeline_stride = kTimelineStride;
  sim::Campaign campaign(opts);
  for (const PaperAnchor& a : kAnchors) {
    const workload::AppModel app = workload::make_app(a.app);
    for (const std::uint64_t s : seeds) {
      for (std::size_t p : {std::size_t{0}, std::size_t{2}}) {
        sim::ExperimentConfig cfg{.app = app, .earl = settings_for(p),
                                  .seed = s};
        cfg.timeline_stride = kTimelineStride;
        campaign.add(a.app, cfg, kRuns);
      }
    }
  }
  const auto& results = campaign.run();
  std::vector<std::vector<sim::AveragedResult>> mon(kAnchors.size());
  std::vector<std::vector<sim::AveragedResult>> eu(kAnchors.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t a = i / (2 * seeds.size());
    (i % 2 == 0 ? mon : eu)[a].push_back(results[i].avg);
  }
  return paper_error(mon, eu);
}

void run_paper_grid(const Args& args, Report& report, Tracer& tracer) {
  const std::size_t jobs = host_cpus();

  // One set-up group here and one after every timed batch, so that
  // their median (setup_s) samples the same host conditions as the
  // batches.
  Batch batch;
  std::vector<double> setup_walls = {
      mean_wall(kSetupsPerGroup, [&] { batch = set_up(args.seed); })};
  // Fill the process-wide model cache the experiments read, so the timed
  // phase never learns.
  for (const workload::AppModel& app : batch.apps) {
    (void)sim::cached_models(app.node_config);
  }
  const std::size_t slots = batch.points.size() * kRuns;
  std::size_t max_nodes = 0;
  for (const workload::AppModel& app : batch.apps) {
    max_nodes = std::max(max_nodes, app.nodes);
  }

  // Timed phase: whole batches, closed loop, until --seconds have passed.
  sim::CampaignOptions opts;
  opts.jobs = jobs;
  opts.capture_errors = true;
  opts.timeline_stride = kTimelineStride;
  std::vector<double> walls;
  std::vector<double> utilisation;
  std::vector<sim::CampaignResult> first;
  std::size_t mismatched_batches = 0;
  const auto phase_t0 = Clock::now();
  while (walls.size() < kMinBatches || seconds_since(phase_t0) < args.seconds) {
    sim::Campaign campaign(opts);
    for (const sim::CampaignPoint& p : batch.points) campaign.add(p);
    const auto t0 = Clock::now();
    const std::vector<sim::CampaignResult>& results = campaign.run();
    const double wall = seconds_since(t0);
    walls.push_back(wall);
    double busy = 0.0;
    for (const sim::CampaignResult& r : results) busy += r.run_seconds;
    utilisation.push_back(busy / (wall * static_cast<double>(jobs)));
    report.ops(slots, failed_slots(results), "paper_grid slots");
    setup_walls.push_back(
        mean_wall(kSetupsPerGroup, [&] { (void)set_up(args.seed); }));
    if (first.empty()) {
      first = results;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!same_result(results[i].avg, first[i].avg)) {
          ++mismatched_batches;
          break;
        }
      }
    }
  }
  const double peak_kb = peak_rss_kb();
  const double wall = median(walls);
  print_walls(args.workload + " set-up walls", setup_walls);
  print_walls(args.workload + " batch walls", walls);
  double node_seconds = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    node_seconds += first[i].avg.total_time_s *
                    static_cast<double>(batch.points[i].cfg.app.nodes * kRuns);
  }
  std::printf("paper_grid: %zu points, %zu slots per batch, %zu batches, "
              "jobs %zu\n",
              batch.points.size(), slots, walls.size(), jobs);

  // Output checks.
  report.check(mismatched_batches == 0,
               "every paper_grid batch bitwise-equal to the first");
  std::size_t sampled = 0;
  std::size_t sample_mismatch = 0;
  for (std::size_t i = 0; i < batch.points.size(); i += kSampleStride) {
    ++sampled;
    const sim::AveragedResult serial =
        sim::run_averaged(batch.points[i].cfg, kRuns, 1);
    if (!same_result(serial, first[i].avg)) ++sample_mismatch;
  }
  report.check(sample_mismatch == 0,
               std::to_string(sampled) +
                   " sampled points bitwise-equal to serial run_averaged");

  // paper_err_pp from batch 0's monitoring and ME+eU points.
  const std::size_t napps = batch.apps.size();
  std::vector<std::vector<sim::AveragedResult>> mon(kAnchors.size());
  std::vector<std::vector<sim::AveragedResult>> eu(kAnchors.size());
  for (std::size_t a = 0; a < kAnchors.size(); ++a) {
    const auto it = std::find_if(
        batch.apps.begin(), batch.apps.end(),
        [&](const workload::AppModel& m) { return m.name == kAnchors[a].app; });
    const auto app = static_cast<std::size_t>(it - batch.apps.begin());
    for (std::size_t s = 0; s < kSeedsPerBatch; ++s) {
      const std::size_t base = (s * napps + app) * kNumPolicies;
      mon[a].push_back(first.at(base + 0).avg);
      eu[a].push_back(first.at(base + 2).avg);
    }
  }
  const double paper_err = paper_error(mon, eu);

  if (!args.trace) {
    report.metric("setup_s", median(setup_walls), "s");
    report.metric("wall_s", wall, "s");
    report.metric("slots_per_s", static_cast<double>(slots) / wall, "1/s");
    report.metric("node_rounds_per_s", node_seconds / wall, "1/s");
    report.metric("peak_rss_mb", peak_kb / 1024.0, "MB");
    report.metric("rss_per_node_kb",
                  peak_kb / static_cast<double>(jobs * max_nodes), "KB");
    report.metric("paper_err_pp", paper_err, "pp");
    return;
  }

  // Traced batches: a span per campaign and per (point, run) slot.
  TracedCounts counts;  // on_slot_complete calls are serialised
  std::vector<double> traced_walls;
  for (std::size_t b = 0; b < kTracedBatches; ++b) {
    Tracer::Scope batch_span(tracer, "sim.campaign.run");
    sim::CampaignOptions topts = opts;
    topts.observe = [&](std::size_t, std::size_t) {
      return std::make_unique<SlotObserver>(tracer, batch_span.id());
    };
    topts.on_slot_complete = [&](std::size_t, std::size_t,
                                 const sim::RunResult& r,
                                 sim::RunObserver* obs) {
      auto* slot = static_cast<SlotObserver*>(obs);
      tracer.end(slot->span());
      counts.run_ms.push_back(seconds_since(slot->start()) * 1e3);
      if (b != 0) return;
      counts.apply_calls += slot->apply_calls();
      for (const sim::NodeResult& n : r.nodes) {
        counts.signatures += n.signatures;
        counts.rejected_windows += n.rejected_windows;
        counts.msr_writes += n.msr_writes;
      }
    };
    sim::Campaign campaign(topts);
    for (const sim::CampaignPoint& p : batch.points) campaign.add(p);
    const auto t0 = Clock::now();
    const auto& results = campaign.run();
    traced_walls.push_back(seconds_since(t0));
    report.ops(slots, failed_slots(results), "traced paper_grid slots");
  }
  std::printf("paper_grid untraced wall %.4f s, traced wall %.4f s\n", wall,
              median(traced_walls));
  report.metric("trace.overhead_pct",
                (median(traced_walls) / wall - 1.0) * 100.0, "%");
  report.metric("policies.apply_calls",
                static_cast<double>(counts.apply_calls), "count");
  report.metric("earl.signatures", static_cast<double>(counts.signatures),
                "count");
  report.metric("earl.rejected_windows",
                static_cast<double>(counts.rejected_windows), "count");
  report.metric("eard.msr_writes", static_cast<double>(counts.msr_writes),
                "count");
  report.metric("sim.experiment.run_ms_p50", quantile(counts.run_ms, 0.5),
                "ms");
  report.metric("sim.experiment.run_ms_p99", quantile(counts.run_ms, 0.99),
                "ms");
  report.metric("sim.campaign.utilisation", median(utilisation), "ratio");
  run_service_probes(args, report, tracer);
}

}  // namespace perfbench
