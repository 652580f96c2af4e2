#include "faults/fault_plan.hpp"

#include <array>
#include <cstdlib>
#include <fstream>
#include <set>

#include "common/error.hpp"
#include "simhw/msr.hpp"

namespace ear::faults {

using common::ConfigError;

namespace {

struct FamilyName {
  const char* name;
  FaultFamily family;
};

constexpr std::array<FamilyName, 8> kFamilies{{
    {"msr_drop", FaultFamily::kMsrDrop},
    {"msr_lock", FaultFamily::kMsrLock},
    {"inm_stuck", FaultFamily::kInmStuck},
    {"inm_noise", FaultFamily::kInmNoise},
    {"pmu_glitch", FaultFamily::kPmuGlitch},
    {"snapshot_drop", FaultFamily::kSnapshotDrop},
    {"node_dropout", FaultFamily::kNodeDropout},
    {"island_dropout", FaultFamily::kIslandDropout},
}};

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

double parse_number(const std::string& key, const std::string& value,
                    int line) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw ConfigError("fault plan line " + std::to_string(line) + ": key '" +
                      key + "' expects a number, got '" + value + "'");
  }
  return v;
}

void apply(FaultSpec& f, const std::string& key, const std::string& value,
           int line) {
  auto num = [&] { return parse_number(key, value, line); };
  if (key == "node") {
    f.node = static_cast<int>(num());
  } else if (key == "socket") {
    f.socket = static_cast<int>(num());
  } else if (key == "island") {
    f.island = static_cast<int>(num());
  } else if (key == "start") {
    f.start_s = num();
  } else if (key == "end") {
    f.end_s = num();
  } else if (key == "at") {
    // One-shot shorthand (mid-run locks): active from this instant on.
    f.start_s = num();
  } else if (key == "probability") {
    f.probability = num();
    if (f.probability < 0.0 || f.probability > 1.0) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": probability must be in [0, 1]");
    }
  } else if (key == "magnitude") {
    f.magnitude = num();
    if (f.magnitude < 0.0) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": magnitude must be non-negative");
    }
  } else if (key == "register") {
    const double v = num();
    if (v < 0.0 || v != static_cast<double>(static_cast<std::uint32_t>(v))) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": register expects a non-negative integer");
    }
    f.reg = static_cast<std::uint32_t>(v);
    // Only the modelled registers can be written or locked; a fault on
    // any other address could never fire.
    if (f.reg != simhw::kMsrUncoreRatioLimit &&
        f.reg != simhw::kMsrEnergyPerfBias) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": register must be 1568 (0x620, "
                        "UNCORE_RATIO_LIMIT) or 432 (0x1B0, "
                        "ENERGY_PERF_BIAS)");
    }
  } else {
    throw ConfigError("fault plan line " + std::to_string(line) +
                      ": unknown key '" + key + "'");
  }
}

void validate(const FaultSpec& f, int line) {
  if (f.end_s <= f.start_s) {
    throw ConfigError("fault plan line " + std::to_string(line) +
                      ": empty fault window (end <= start)");
  }
  if (f.family == FaultFamily::kInmNoise && f.magnitude <= 0.0) {
    throw ConfigError("fault plan line " + std::to_string(line) +
                      ": inm_noise needs a magnitude (joules)");
  }
}

}  // namespace

const char* family_name(FaultFamily f) {
  for (const auto& [name, family] : kFamilies) {
    if (family == f) return name;
  }
  return "unknown";
}

std::size_t FaultPlan::family_count() const {
  std::set<FaultFamily> seen;
  for (const FaultSpec& f : specs) seen.insert(f.family);
  return seen.size();
}

bool FaultPlan::has_family(FaultFamily f) const {
  for (const FaultSpec& s : specs) {
    if (s.family == f) return true;
  }
  return false;
}

FaultPlan parse_fault_plan(std::istream& in) {
  FaultPlan plan;
  std::string raw;
  int line = 0;
  int section_line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find_first_of("#;");
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string s = trim(raw);
    if (s.empty()) continue;

    if (s.front() == '[') {
      if (s.back() != ']' || s.size() < 3) {
        throw ConfigError("fault plan line " + std::to_string(line) +
                          ": malformed section header");
      }
      if (!plan.specs.empty()) validate(plan.specs.back(), section_line);
      const std::string name = trim(s.substr(1, s.size() - 2));
      FaultSpec spec;
      bool known = false;
      for (const auto& [fname, family] : kFamilies) {
        if (name == fname) {
          spec.family = family;
          known = true;
          break;
        }
      }
      if (!known) {
        throw ConfigError("fault plan line " + std::to_string(line) +
                          ": unknown fault family '" + name + "'");
      }
      section_line = line;
      plan.specs.push_back(spec);
      continue;
    }

    if (plan.specs.empty()) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": key before any [fault] section");
    }
    const auto eq = s.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": expected key = value");
    }
    const std::string key = trim(s.substr(0, eq));
    const std::string value = trim(s.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw ConfigError("fault plan line " + std::to_string(line) +
                        ": empty key or value");
    }
    apply(plan.specs.back(), key, value, line);
  }
  if (plan.specs.empty()) throw ConfigError("fault plan defines no faults");
  validate(plan.specs.back(), section_line);
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open fault plan: " + path);
  return parse_fault_plan(in);
}

}  // namespace ear::faults
