#include "hw_ufs_reference.hpp"

namespace ear::simhw {

ReferenceHwUfsGovernor::ReferenceHwUfsGovernor(const NodeConfig& cfg,
                                               HwUfsParams params,
                                               std::uint64_t seed)
    : cfg_(&cfg), params_(params), rng_(seed), current_(cfg.uncore.max()) {}

double ReferenceHwUfsGovernor::evaluate_periods(const UfsInputs& in,
                                                const UncoreRatioLimit& limit,
                                                std::size_t periods) {
  if (periods == 0) return 0.0;
  const UncoreRange& range = cfg_->uncore;
  const Freq target = hw_ufs_steady_target(*cfg_, params_, in);

  const Freq lo = range.clamp(limit.min_freq);
  const Freq hi = range.clamp(limit.max_freq);
  const auto window = [&](Freq f) {
    if (f < lo) f = lo;
    if (f > hi) f = hi;
    return f;
  };

  const Freq steady = window(target);
  const bool can_dither =
      target > range.min() && params_.dither_probability > 0.0;

  double sum_khz = 0.0;
  if (!can_dither) {
    sum_khz = static_cast<double>(steady.as_khz()) *
              static_cast<double>(periods);
    current_ = steady;
    return sum_khz;
  }
  const Freq dithered = window(range.step_down(target));
  Freq last = steady;
  for (std::size_t i = 0; i < periods; ++i) {
    last = rng_.uniform() < params_.dither_probability ? dithered : steady;
    sum_khz += static_cast<double>(last.as_khz());
  }
  current_ = last;
  return sum_khz;
}

double reference_evaluate_periods(std::span<ReferenceHwUfsGovernor> sockets,
                                  const UfsInputs& in,
                                  const UncoreRatioLimit& limit,
                                  std::size_t periods) {
  double sum_khz = 0.0;
  for (auto& g : sockets) sum_khz = g.evaluate_periods(in, limit, periods);
  return sum_khz;
}

}  // namespace ear::simhw
