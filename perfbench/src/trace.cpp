// Report, Tracer and host helpers.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "service/json.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    ops(1, 1, "metric " + name + " is not finite");
    return;
  }
  metrics_[name] = Value{value, unit};
  std::printf("metric %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::not_measured(const std::string& name, const std::string& why) {
  std::printf("not measured: %s (%s)\n", name.c_str(), why.c_str());
}

void Report::ops(std::size_t attempted, std::size_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) std::printf("FAILED %zu of %zu: %s\n", failed, attempted,
                              what.c_str());
}

void Report::check(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, "check " + what);
  if (ok) std::printf("check ok: %s\n", what.c_str());
}

void Report::finish() const {
  const std::size_t attempted = std::max<std::size_t>(attempted_, 1);
  std::printf("metric %-40s %.6g ratio\n", "failed_ops_ratio",
              static_cast<double>(failed_) / static_cast<double>(attempted));
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v.value);
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += ear::service::json_escape(name);
    json += "\": {\"value\": ";
    json += num;
    json += ", \"unit\": \"";
    json += ear::service::json_escape(v.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, t, -1});
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end_ns = t;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::print_summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Sum {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  // Self time: the span minus the union of its children's intervals
  // (children on worker threads overlap).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns >= 0) {
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, Sum> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::sort(children[i].begin(), children[i].end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : children[i]) {
      const std::int64_t from = std::max(lo, reach);
      const std::int64_t to = std::min(hi, s.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(hi, s.end_ns));
    }
    Sum& sum = sums[s.name];
    ++sum.count;
    sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    sum.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::printf("spans: %zu recorded\n", spans_.size());
  std::printf("  %-36s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, s] : sums) {
    std::printf("  %-36s %8zu %12.3f %12.3f\n", name.c_str(), s.count,
                s.total_ms, s.self_ms);
  }
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb;
    }
    std::getline(in, key);
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_walls(const std::string& label,
                 const std::vector<double>& walls) {
  std::printf("%s (s):", label.c_str());
  for (double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of no values");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
