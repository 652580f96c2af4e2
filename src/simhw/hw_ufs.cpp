#include "simhw/hw_ufs.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"

namespace ear::simhw {

Freq hw_ufs_steady_target(const NodeConfig& cfg, const HwUfsParams& params,
                          const UfsInputs& in) {
  const UncoreRange& range = cfg.uncore;
  if (in.active_cores == 0) return range.min();

  const bool avx_throttled =
      in.effective_core_freq + params.avx_throttle_min <=
      in.requested_core_freq;

  // Rule 2: memory-bound sockets keep the fabric at full speed. The AVX
  // licence case is excluded: when the vector units throttle the cores the
  // loop follows the core clock down (the DGEMM behaviour in Table IV).
  if (!avx_throttled && in.bw_utilisation >= params.high_bw_threshold) {
    return range.max();
  }

  // Rule 3: a fast (nominal/turbo) effective core clock pins the fabric
  // at full speed regardless of memory traffic — the conservative HW
  // behaviour the paper's motivation section documents.
  if (in.effective_core_freq + params.high_freq_margin >=
      cfg.pstates.nominal()) {
    return range.max();
  }

  // Rule 4: even below the threshold, a scalar socket with ordinary
  // activity keeps the maximum (the paper's Table VI: POP/DUMSES/AFiD/
  // HPCG hold IMC ~2.39 with the CPU at 1.8-2.2 GHz). The loop only
  // follows the cores down in three situations: active licence
  // throttling, a near-idle socket (GPU busy-wait), or wide relaxed MPI
  // waits where cores keep dipping into C-states.
  const bool near_idle = in.active_cores <= params.low_activity_cores &&
                         in.bw_utilisation < params.low_bw_threshold;
  const bool wide_relaxed =
      in.relaxed_fraction > params.relaxed_threshold &&
      in.bw_utilisation < params.relaxed_bw_threshold;
  if (!avx_throttled && !near_idle && !wide_relaxed) return range.max();

  // Rule 5: track the activity-weighted core clock (relaxed MPI waits
  // discount it, dense spinning does not), with extra drops for the two
  // idle-ish cases.
  const double weight = 1.0 - params.relaxed_weight * in.relaxed_fraction;
  const Freq f_act = Freq::khz(static_cast<std::uint64_t>(
      static_cast<double>(in.effective_core_freq.as_khz()) * weight));
  Freq target = f_act - params.track_offset;
  if (near_idle) {
    target = target - params.low_activity_drop;
  } else if (wide_relaxed) {
    target = target - params.relaxed_drop;
  }
  if (in.epb >= params.epb_powersave_threshold) {
    target = range.step_down(target);
  }
  return range.clamp(target);
}

HwUfsGovernor::HwUfsGovernor(const NodeConfig& cfg,
                             const HwUfsParams& params, std::uint64_t seed)
    : cfg_(&cfg), params_(&params), rng_(seed), current_(cfg.uncore.max()) {}

Freq HwUfsGovernor::evaluate(const UfsInputs& in,
                             const UncoreRatioLimit& limit) {
  evaluate_periods(in, limit, 1);
  return current_;
}

std::uint64_t dither_threshold(double p) {
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kDraws;
  // p * 2^53 only rescales the exponent, so it is exact (subnormal p
  // included), and so is its ceil; it lies in (0, 2^53].
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

double HwUfsGovernor::evaluate_periods(std::span<HwUfsGovernor> sockets,
                                       const UfsInputs& in,
                                       const UncoreRatioLimit& limit,
                                       std::size_t periods) {
  if (sockets.empty() || periods == 0) return 0.0;
  const HwUfsGovernor& first = sockets.front();
  for (const HwUfsGovernor& g : sockets) {
    EAR_EXPECT(g.cfg_ == first.cfg_ && g.params_ == first.params_);
  }
  const UfsStretchSummary s = first.summarise(in, limit);
  // k of the n periods selected the dithered value: the sum is a pair of
  // integer products, exact as long as it stays below 2^53 kHz (n in the
  // billions), and the per-period double accumulation it replaces is
  // exact over the same range.
  const auto sum_khz = [&](std::uint64_t k) {
    return static_cast<double>(s.steady.as_khz() * (periods - k) +
                               s.dithered.as_khz() * k);
  };
  if (!s.can_dither) {
    // evaluate() consumes no draw in this case; neither do we.
    for (HwUfsGovernor& g : sockets) g.current_ = s.steady;
    return sum_khz(0);
  }

  const std::uint64_t threshold =
      dither_threshold(first.params_->dither_probability);
  std::uint64_t last_k = 0;
  // Steps the streams of sockets g[J]... in one loop, on local copies, so
  // their independent dependency chains overlap; each stream still sees
  // exactly the draws a loop of its own would. k counts a socket's
  // dithered periods, `last` is its final draw's outcome.
  const auto lanes = [&]<std::size_t... J>(HwUfsGovernor* g,
                                           std::index_sequence<J...>) {
    constexpr std::size_t kLanes = sizeof...(J);
    std::array<common::Rng, kLanes> rng{g[J].rng_...};
    std::array<std::uint64_t, kLanes> k{};
    std::array<bool, kLanes> last{};
    for (std::size_t p = 0; p < periods; ++p) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        last[j] = (rng[j].next_u64() >> 11) < threshold;
        k[j] += last[j] ? 1 : 0;
      }
    }
    ((g[J].rng_ = rng[J], g[J].current_ = last[J] ? s.dithered : s.steady),
     ...);
    last_k = k.back();
  };
  std::size_t i = 0;
  for (; i + 2 <= sockets.size(); i += 2) {
    lanes(&sockets[i], std::make_index_sequence<2>{});
  }
  if (i < sockets.size()) lanes(&sockets[i], std::make_index_sequence<1>{});
  return sum_khz(last_k);
}

UfsStretchSummary HwUfsGovernor::summarise(
    const UfsInputs& in, const UncoreRatioLimit& limit) const {
  const UncoreRange& range = cfg_->uncore;
  const Freq target = hw_ufs_steady_target(*cfg_, *params_, in);
  // Respect the MSR window (this is how explicit UFS overrides the loop).
  const Freq lo = range.clamp(limit.min_freq);
  const Freq hi = range.clamp(limit.max_freq);
  const auto window = [&](Freq f) {
    if (f < lo) f = lo;
    if (f > hi) f = hi;
    return f;
  };
  // Only two outcomes exist per period: the steady target, or — when the
  // dither gate can open — one bin below it (the real loop hunts around
  // its setpoint, which is what makes measured averages land just below
  // the limit, 2.39 vs 2.40). A probability of zero (or less) can never
  // flip a selection, so it closes the gate outright and the rng is left
  // untouched — dither-free configurations are exactly as deterministic
  // as the no-headroom case.
  UfsStretchSummary out;
  out.steady = window(target);
  out.can_dither = target > range.min() && params_->dither_probability > 0.0;
  out.dithered =
      out.can_dither ? window(range.step_down(target)) : out.steady;
  return out;
}

Freq HwUfsGovernor::settle_idle(const UncoreRatioLimit& limit) {
  // hw_ufs_steady_target with active_cores == 0 returns range.min()
  // before touching any other input, and a floor target can never open
  // the dither gate (target > range.min() is false), so every period
  // selects window(range.min()) and the rng consumes nothing — the same
  // value evaluate_periods returns per period at idle, for any period
  // count, with the same final current_.
  const UncoreRange& range = cfg_->uncore;
  Freq f = range.min();
  const Freq lo = range.clamp(limit.min_freq);
  const Freq hi = range.clamp(limit.max_freq);
  if (f < lo) f = lo;
  if (f > hi) f = hi;
  current_ = f;
  return f;
}

}  // namespace ear::simhw
