// perfbench: the benchmark program's entry point.
//
//   perfbench --workload paper_grid|facility_large
//             --seed N --seconds S --trace 0|1
//
// Prints host provenance, the metrics as readable lines, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of the layers the workload exercises and writes the
// spans to .bench_out/. Exits 1 without a result on a usage error or an
// exception.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "service/checkpoint.hpp"
#include "service/stamp.hpp"
#include "service/trace.hpp"

namespace perfbench {
namespace {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have[1] = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = val == "1";
      have[3] = true;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  for (bool h : have) {
    if (!h) {
      throw std::invalid_argument(
          "need --workload, --seed, --seconds and --trace");
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_provenance(const Args& a) {
  const ear::service::BuildStamp& s = ear::service::build_stamp();
  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("provenance: nproc=%zu hardware_concurrency=%u\n", host_cpus(),
              std::thread::hardware_concurrency());
  std::printf("provenance: compiler=%s build=%s contracts=%s\n",
              s.compiler.c_str(), s.build_type.c_str(),
              EAR_CONTRACTS_ENABLED ? "ON" : "OFF");
  // The stamp `ear_sim version` prints, and the format versions it lists.
  std::printf("provenance: ear_sim %s (checkpoint format v%u, trace format "
              "v%u)\n",
              s.line().c_str(), ear::service::kCheckpointFormatVersion,
              ear::service::kTraceFormatVersion);
}

int run(const Args& args) {
  Report report;
  Tracer tracer(args.trace);
  std::filesystem::create_directories(kOutDir);
  if (args.workload == "paper_grid") {
    run_paper_grid(args, report, tracer);
  } else if (args.workload == "facility_large") {
    run_facility_large(args, report, tracer);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  if (args.trace) {
    run_layer_probes(args, report, tracer);
    report.metric("trace.spans", static_cast<double>(tracer.size()), "count");
    tracer.print_summary();
    const std::string path = std::string(kOutDir) + "/spans-" +
                             args.workload + "-" + std::to_string(args.seed) +
                             ".jsonl";
    tracer.write(path);
    std::printf("spans written to %s\n", path.c_str());
  }
  report.finish();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    perfbench::print_provenance(args);
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
