// Hardware uncore frequency scaling (UFS) control loop.
//
// Models the behaviour the paper documents for Skylake (§IV, Intel patent
// US9323316B2, Hackenberg'15, Schoene'19). The loop re-evaluates roughly
// every 10 ms and is keyed on the fastest active core's activity-weighted
// effective frequency plus memory-bandwidth utilisation:
//
//  1. no active cores                          -> minimum
//  2. bandwidth utilisation high (no AVX cap)  -> maximum   (memory-bound)
//  3. activity-weighted core freq >= threshold -> maximum   (conservative)
//  4. otherwise track the core clock minus an offset, with extra drops for
//     near-idle sockets (GPU busy-wait) and wide MPI-wait phases where
//     cores dip into C-states;
//  5. the EPB hint biases powersave configurations one bin lower;
//  6. the UNCORE_RATIO_LIMIT window always wins, so pinning min == max
//     through MSR 0x620 disables the loop entirely.
//
// Rules 2-3 are the inefficiency the paper's explicit UFS exploits: the
// hardware keeps the fabric at full speed for any busy socket even when
// the application would not notice a slower uncore.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/msr.hpp"

namespace ear::simhw {

using common::Freq;

/// Inputs the governor samples from the socket each evaluation period.
struct UfsInputs {
  Freq requested_core_freq;   // OS/EARL-requested P-state frequency
  /// Time-averaged effective clock of the fastest active core: the
  /// VPI-weighted blend of the requested frequency and the AVX512 licence
  /// cap (a code that is 35 % AVX512 still runs at the requested clock
  /// most of the time, so the fabric stays fast; a 100 % AVX512 code is
  /// pinned at the licence frequency and the fabric follows it down).
  Freq effective_core_freq;
  double bw_utilisation = 0.0;   // achieved/available memory bandwidth
  /// Fraction of time cores spend in relaxed waits (C1/C1E entry during
  /// MPI progression); dense busy-wait spinning does not count.
  double relaxed_fraction = 0.0;
  std::size_t active_cores = 0;
  std::uint64_t epb = 6;      // IA32_ENERGY_PERF_BIAS (0=perf .. 15=powersave)
};

/// Tuning constants of the modelled control loop.
struct HwUfsParams {
  double evaluation_period_s = 0.010;  // 10 ms (Schoene'19)
  /// Rule 2: utilisation at/above this pins the uncore to the max limit.
  double high_bw_threshold = 0.30;
  /// Licence throttling is "active" (and rule 2 skipped) when the
  /// effective clock sits at least this far below the request.
  Freq avx_throttle_min = Freq::mhz(30);
  /// Rule 3: effective core clocks within this margin of the node's
  /// nominal frequency pin the uncore to max — a nominal-or-turbo request
  /// always keeps the fabric fast (2.3 GHz on the 2.4 GHz Skylake).
  Freq high_freq_margin = Freq::mhz(100);
  /// Weight of relaxed-wait time when discounting the core frequency.
  double relaxed_weight = 0.5;
  /// Rule 4: tracking offset below the (weighted) core clock.
  Freq track_offset = Freq::mhz(200);
  /// Near-idle socket drop (GPU busy-wait case).
  double low_bw_threshold = 0.02;
  std::size_t low_activity_cores = 2;
  Freq low_activity_drop = Freq::mhz(400);
  /// Wide MPI-wait drop: many cores repeatedly entering C-states.
  double relaxed_threshold = 0.15;
  double relaxed_bw_threshold = 0.08;
  Freq relaxed_drop = Freq::mhz(400);
  /// Powersave-leaning EPB values shave one extra bin.
  std::uint64_t epb_powersave_threshold = 8;
  /// Probability of dithering one bin below target in a period (the HW
  /// loop hunts; this is why the paper measures 2.39 GHz averages against
  /// a 2.4 GHz limit).
  double dither_probability = 0.12;
};

/// Steady-state (dither-free) target of the modelled control loop; shared
/// between the governor and calibration code that needs to predict it.
[[nodiscard]] Freq hw_ufs_steady_target(const NodeConfig& cfg,
                                        const HwUfsParams& params,
                                        const UfsInputs& in);

/// Closed-form summary of a phase-stable stretch: everything the loop's
/// per-period behaviour under constant inputs can be reduced to. The
/// per-period distribution has at most two support points (steady, or one
/// bin below when the dither gate can open), so a stretch of any length
/// is fully described by the two frequencies and the dither probability.
struct UfsStretchSummary {
  Freq steady;        // MSR-windowed steady-state target
  Freq dithered;      // MSR-windowed one-bin-down value (== steady when
                      // the dither gate is closed)
  bool can_dither = false;  // gate open (target above the range minimum
                            // and dither_probability > 0)
  /// Expected per-period frequency: exactly `steady` when the gate is
  /// closed, (1-p)*steady + p*dithered truncated to whole kHz otherwise
  /// (the model's frequency grid is integer kHz everywhere).
  [[nodiscard]] Freq expected_freq(double dither_probability) const {
    if (!can_dither) return steady;
    const double khz = (1.0 - dither_probability) *
                           static_cast<double>(steady.as_khz()) +
                       dither_probability *
                           static_cast<double>(dithered.as_khz());
    return Freq::khz(static_cast<std::uint64_t>(khz));
  }
};

/// Integer form of the per-period dither test. `Rng::uniform()` is
/// u * 2^-53 for u = next_u64() >> 11 in [0, 2^53), and that product is
/// exact, so `uniform() < p` holds iff u < p * 2^53 over the reals, i.e.
/// iff u < ceil(p * 2^53). Returns that bound: 0 for p <= 0 (or NaN), no
/// draw dithers; 2^53 for p >= 1, every draw dithers.
[[nodiscard]] std::uint64_t dither_threshold(double p);

/// One governor instance per socket. It holds pointers to `cfg` and
/// `params`, which must outlive it (a SimNode's governors point into its
/// shared NodeParams block); binding either to a temporary is refused at
/// compile time.
class HwUfsGovernor {
 public:
  HwUfsGovernor(const NodeConfig& cfg, const HwUfsParams& params,
                std::uint64_t seed);
  HwUfsGovernor(const NodeConfig&&, const HwUfsParams&, std::uint64_t) =
      delete;
  HwUfsGovernor(const NodeConfig&, const HwUfsParams&&, std::uint64_t) =
      delete;

  /// Evaluate the control loop once (one ~10 ms period) and return the
  /// uncore frequency for the next period. `limit` is the current MSR
  /// 0x620 window.
  Freq evaluate(const UfsInputs& in, const UncoreRatioLimit& limit);

  /// Evaluate `periods` consecutive control-loop periods under constant
  /// inputs on every socket of a node and return the last socket's sum
  /// of selected frequencies in kHz (the last socket drives the node's
  /// reported value; EAR applies node-level workloads symmetrically).
  /// All `sockets` must share one NodeConfig and one HwUfsParams, as a
  /// SimNode's governors do: the target, the MSR window and the dither
  /// threshold are computed once, from the first socket.
  ///
  /// Bitwise identical, socket by socket, to calling evaluate()
  /// `periods` times and summing `current().as_khz()` into a double
  /// (tests/oracles/hw_ufs_reference.hpp keeps that loop):
  ///  - each period is one draw `next_u64() >> 11` compared against
  ///    dither_threshold(p), which is exactly `uniform() < p`;
  ///  - the sum is steady*(n-k) + dithered*k for k dithered periods, an
  ///    integer below 2^53 for any realistic n, so it equals the
  ///    per-period double accumulation;
  ///  - the sockets' rng streams advance in one loop, two at a time,
  ///    which overlaps their independent xoshiro dependency chains
  ///    without changing any stream's draws.
  /// When the dither gate is closed (target at the range floor, or
  /// dither_probability <= 0) no draw is consumed. `current()`
  /// afterwards is each socket's last selection. `periods == 0` is a
  /// no-op returning 0.
  static double evaluate_periods(std::span<HwUfsGovernor> sockets,
                                 const UfsInputs& in,
                                 const UncoreRatioLimit& limit,
                                 std::size_t periods);
  /// Single-socket form of the above.
  double evaluate_periods(const UfsInputs& in, const UncoreRatioLimit& limit,
                          std::size_t periods) {
    return evaluate_periods({this, 1}, in, limit, periods);
  }

  /// Closed-form stretch integration: summarise the per-period behaviour
  /// under constant inputs without advancing the RNG. When the dither
  /// gate is closed this is *exactly* what `evaluate_periods` computes
  /// per period; when it is open the summary's `expected_freq` replaces
  /// the per-period Bernoulli sum with its expectation (the event core's
  /// documented tolerance source).
  [[nodiscard]] UfsStretchSummary summarise(
      const UfsInputs& in, const UncoreRatioLimit& limit) const;

  /// Leave `current()` at a summary's steady value, the overwhelmingly
  /// likely last selection of a stretch. The facility's per-job stretch
  /// plan computes the summary once and holds it on every node of the job.
  void hold(Freq steady) { current_ = steady; }

  /// summarise, then hold its steady value (the form perfbench's
  /// governor probe times).
  UfsStretchSummary integrate_stretch(const UfsInputs& in,
                                      const UncoreRatioLimit& limit) {
    const UfsStretchSummary s = summarise(in, limit);
    hold(s.steady);
    return s;
  }

  /// Idle fast path: with no active cores the steady target is the range
  /// floor (rule 1) and the dither gate is structurally closed (the
  /// target cannot sit above the floor), so any number of periods
  /// settles on one pure function of the MSR window — no rng, no input
  /// vector. Bitwise identical to evaluate_periods with an idle input at
  /// any period count (proved against idle() in test_node.cpp).
  Freq settle_idle(const UncoreRatioLimit& limit);

  [[nodiscard]] Freq current() const { return current_; }
  /// The dither stream, for tests that compare its state after a call.
  [[nodiscard]] const common::Rng& rng() const { return rng_; }

 private:
  const NodeConfig* cfg_;
  const HwUfsParams* params_;
  common::Rng rng_;
  Freq current_;
};

}  // namespace ear::simhw
