// Ablation: HW-guided vs non-guided (from-maximum) IMC search.
//
// DESIGN.md §5.1: the paper asserts the guided strategy converges faster.
// We measure (a) simulated seconds until the uncore window reaches its
// final value and (b) total job energy, on a CPU-bound and a mixed app.
#include "bench_util.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace ear;

struct SearchOutcome {
  double converge_s = 0.0;
  double energy_j = 0.0;
  double final_imc = 0.0;
};

SearchOutcome run_once(const workload::AppModel& app,
                       const earl::EarlSettings& settings) {
  sim::ExperimentConfig cfg{.app = app, .earl = settings,
                            .seed = bench::kSeed};
  const sim::RunResult res = sim::run_experiment(cfg);
  SearchOutcome out;
  out.energy_j = res.total_energy_j;
  const double final_imc = res.timeline.back().imc_ghz;
  out.final_imc = final_imc;
  // Convergence: last time the node-0 uncore was more than one bin away
  // from its final value.
  for (const sim::TimelinePoint& p : res.timeline) {
    if (std::fabs(p.imc_ghz - final_imc) > 0.11) out.converge_s = p.t_s;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation: HW-guided vs non-guided uncore search");

  // {app x strategy} pairs fan out over all cores (EAR_SIM_JOBS to cap).
  const std::vector<std::string> apps = {"bt-mz.d", "gromacs-i", "dgemm"};
  std::vector<SearchOutcome> outcomes(apps.size() * 2);
  common::parallel_for(outcomes.size(), [&](std::size_t i) {
    const workload::AppModel app = workload::make_app(apps[i / 2]);
    outcomes[i] = run_once(app, i % 2 == 0
                                    ? sim::settings_me_eufs(0.05, 0.02)
                                    : sim::settings_me_ngufs(0.05, 0.02));
  });

  common::AsciiTable table;
  table.columns({"app", "strategy", "converge (s)", "final IMC (GHz)",
                 "job energy (kJ)"});
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& guided = outcomes[2 * a];
    const auto& nguided = outcomes[2 * a + 1];
    table.add_row({apps[a], "HW-guided",
                   common::AsciiTable::num(guided.converge_s, 1),
                   common::AsciiTable::num(guided.final_imc, 2),
                   common::AsciiTable::num(guided.energy_j / 1000, 1)});
    table.add_row({"", "from max (NG-U)",
                   common::AsciiTable::num(nguided.converge_s, 1),
                   common::AsciiTable::num(nguided.final_imc, 2),
                   common::AsciiTable::num(nguided.energy_j / 1000, 1)});
    table.add_separator();
  }
  table.print();
  std::printf(
      "Expected: when the HW already lowered the uncore (DGEMM,\n"
      "GROMACS), the guided search starts from that point and converges\n"
      "in fewer signature periods; when the HW sat at the maximum\n"
      "(BT-MZ) the two coincide.\n");
  bench::footer();
  return 0;
}
