// Shared pieces of the benchmark program: arguments, the result report,
// in-memory span tracing, timing helpers and host facts.
//
// The program times calls into the repository's public entry points from
// outside. Timed runs (--trace 0) report the end-to-end metrics with
// tracing off; the traced run (--trace 1) records spans around the calls
// into each module and reports the per-layer metrics.
#pragma once

#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Metrics and operation counts of one run, printed as the final JSON
/// line. Human-readable lines go to stdout before it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric this host cannot measure; printed with the reason and left
  /// out of the JSON.
  void not_measured(const std::string& name, const std::string& why);

  /// Count operations; a failed one also prints `what`.
  void ops(std::size_t attempted, std::size_t failed, const std::string& what);
  /// One output check: one attempted operation, failed unless `ok`.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  /// Print the summary lines and the final JSON line.
  void finish() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory spans: name, start, end and the span that caused it. A
/// disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; returns its id (0 when disabled). Thread-safe.
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t parent = 0)
        : t_(t), id_(t.begin(name, parent)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer& t_;
    std::uint64_t id_;
  };

  [[nodiscard]] std::size_t size() const;
  /// Per-name count, total and self time (span minus its children).
  void print_summary() const;
  /// Write the spans as JSON lines.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id = index + 1; guarded by mu_
};

/// Worker threads the load may use: the CPUs this process may run on.
[[nodiscard]] std::size_t host_cpus();
/// Peak resident set (VmHWM) of this process, in KiB.
[[nodiscard]] double peak_rss_kb();

[[nodiscard]] double median(std::vector<double> v);
/// Print `label` and a list of walls on one line.
void print_walls(const std::string& label, const std::vector<double>& walls);
/// Quantile q in [0, 1] by linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The bit pattern of a double, for bitwise result comparisons.
[[nodiscard]] inline std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// Where runs write their spans and temporary stores, relative to the
/// working directory (the repository root).
inline constexpr const char* kOutDir = ".bench_out";

// Workloads. Each runs its timed phase, its output checks and, when
// traced, its share of the per-layer metrics.
void run_paper_grid(const Args& args, Report& report, Tracer& tracer);
void run_facility_large(const Args& args, Report& report, Tracer& tracer);

/// The service layer's probes, made in paper_grid's traced run: a sweep
/// of paper_grid's slots through service::run_sweep, halted and resumed,
/// checked against an uninterrupted sweep, and the checkpoint and trace
/// codecs timed on its store.
void run_service_probes(const Args& args, Report& report, Tracer& tracer);

/// The layer probes every traced run makes: each module's public calls
/// timed from outside on inputs derived from the seed, plus the
/// node-iteration ledger.
void run_layer_probes(const Args& args, Report& report, Tracer& tracer);

/// paper_err_pp: the mean absolute error, in percentage points, of the
/// ME+eU energy saving over the monitoring run against the values the
/// paper reports, over the apps with a published figure and paper_grid's
/// batch seeds. Runs that anchor grid through sim::Campaign.
[[nodiscard]] double measure_paper_error(std::uint64_t seed, std::size_t jobs);

}  // namespace perfbench
