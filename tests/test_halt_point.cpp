// The halt-point law: docs/policies.md derives that with stall share b,
// uncore-stall share u and wait fraction w, the eUFS guard trips one bin
// below the largest f with  b·u·(1-w)·f_ref·(1/f − 1/f_ref) <=
// unc_policy_th. This property test runs the full EARL stack on a grid of
// synthetic workloads and checks the search lands on the predicted bin
// (±1 bin for window quantisation).
#include <cmath>

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "workload/synthetic.hpp"

namespace ear::sim {
namespace {

struct Knobs {
  double stall;
  double uncore_share;
  double comm;
};

class HaltPoint : public ::testing::TestWithParam<Knobs> {};

TEST_P(HaltPoint, SearchStopsWhereTheLawPredicts) {
  const Knobs k = GetParam();
  const auto cfg = simhw::make_skylake_6148_node();
  workload::SyntheticSpec spec;
  spec.iter_seconds = 1.2;
  spec.cpi_core = 0.5;
  spec.gbps = 15.0;  // low traffic: no roofline interference
  spec.stall_share = k.stall;
  spec.uncore_share = k.uncore_share;
  spec.comm_fraction = k.comm;
  spec.iterations = 220;  // room for the search to settle
  const auto app = workload::make_synthetic_app(cfg, spec, "halt-probe");

  const double unc_th = 0.02;
  ExperimentConfig run_cfg{.app = app,
                           .earl = settings_me_eufs(0.05, unc_th),
                           .seed = 17,
                           .noise = simhw::NoiseModel{.time_sigma = 0,
                                                      .power_sigma = 0}};
  const RunResult res = run_experiment(run_cfg);

  // The settled window maximum is the last timeline value.
  const double settled = res.timeline.back().imc_ghz;

  // Predicted halt: largest grid f whose CPI growth stays within budget.
  const double s = k.stall * k.uncore_share * (1.0 - k.comm);
  const double f_ref = 2.39;  // HW average at nominal (dithered max)
  double predicted = 1.2;
  for (double f = 2.3; f >= 1.2; f -= 0.1) {
    if (s * f_ref * (1.0 / f - 1.0 / f_ref) > unc_th) {
      predicted = f + 0.1;  // previous bin was the last acceptable
      break;
    }
  }
  EXPECT_NEAR(settled, predicted, 0.11)
      << "b=" << k.stall << " u=" << k.uncore_share << " w=" << k.comm;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HaltPoint,
    ::testing::Values(Knobs{0.50, 1.00, 0.0},   // very sensitive: ~2.2
                      Knobs{0.30, 0.80, 0.0},   // moderate
                      Knobs{0.20, 0.50, 0.0},   // mild
                      Knobs{0.40, 0.60, 0.2},   // wait-diluted
                      Knobs{0.60, 0.40, 0.1},   // mixed
                      Knobs{0.10, 0.30, 0.0})); // nearly insensitive: floor

}  // namespace
}  // namespace ear::sim
