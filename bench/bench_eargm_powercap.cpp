// Extension bench: EARGM cluster power capping (EAR's energy-control
// service, §III) on top of the optimisation policies. Sweeps the cluster
// budget for a 4-node job and reports how the manager trades time for
// guaranteed power.
#include "bench_util.hpp"

#include "sim/experiment.hpp"

int main() {
  using namespace ear;
  bench::banner("Extension: EARGM cluster power capping (bt-mz.d, 4 nodes, "
                "min_energy_eufs)");

  const workload::AppModel app = workload::make_app("bt-mz.d");
  sim::ExperimentConfig base{.app = app,
                             .earl = sim::settings_me_eufs(0.05, 0.02),
                             .seed = bench::kSeed};
  const auto free_run = sim::run_experiment(base);
  const double unmanaged =
      free_run.avg_dc_power_w * static_cast<double>(app.nodes);

  common::AsciiTable table;
  table.columns({"budget (W)", "aggregate (W)", "time (s)", "energy (kJ)",
                 "throttles", "final limit"});
  table.add_row({"none", common::AsciiTable::num(unmanaged, 0),
                 common::AsciiTable::num(free_run.total_time_s, 1),
                 common::AsciiTable::num(free_run.total_energy_j / 1000, 1),
                 "0", "p0"});
  for (double budget : {1250.0, 1150.0, 1050.0, 950.0}) {
    sim::ExperimentConfig cfg = base;
    cfg.eargm = eargm::EargmConfig{.cluster_budget = {budget}};
    const auto res = sim::run_experiment(cfg);
    std::string limit = "p";
    limit += std::to_string(res.eargm_final_limit);
    table.add_row(
        {common::AsciiTable::num(budget, 0),
         common::AsciiTable::num(
             res.avg_dc_power_w * static_cast<double>(app.nodes), 0),
         common::AsciiTable::num(res.total_time_s, 1),
         common::AsciiTable::num(res.total_energy_j / 1000, 1),
         std::to_string(res.eargm_throttles),
         limit});
  }
  table.print();
  std::printf(
      "Expected: aggregate power lands at/just below each budget; tighter\n"
      "budgets stretch the runtime; the optimisation policy keeps running\n"
      "underneath the cap (its requests are clamped, not replaced).\n");
  bench::footer();
  return 0;
}
