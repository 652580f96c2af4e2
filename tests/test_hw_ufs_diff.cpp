// Differential proof that HwUfsGovernor::evaluate_periods (integer
// threshold, dithered-period count, sockets' streams stepped in one
// interleaved loop) is bitwise identical to the per-period loop kept as
// the test oracle (tests/oracles/hw_ufs_reference.hpp): same sum, same
// current() on every socket, same rng state afterwards — over many seeds,
// period counts, socket counts, open and closed gates and every regime of
// the dither probability. The threshold's exact boundary is checked
// separately, since random draws hit it with probability 2^-53.
#include "simhw/hw_ufs.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hw_ufs_reference.hpp"

namespace ear::simhw {
namespace {

using common::Freq;

constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;

UfsInputs busy_inputs() {
  return UfsInputs{.requested_core_freq = Freq::ghz(2.4),
                   .effective_core_freq = Freq::ghz(2.4),
                   .bw_utilisation = 0.05,
                   .relaxed_fraction = 0.0,
                   .active_cores = 40,
                   .epb = 6};
}

UfsInputs avx_inputs() {  // target 2.0 GHz, inside the range
  UfsInputs in = busy_inputs();
  in.effective_core_freq = Freq::ghz(2.2);
  in.bw_utilisation = 0.47;
  return in;
}

UfsInputs idle_inputs() {  // floor target: the gate is closed
  UfsInputs in = busy_inputs();
  in.active_cores = 0;
  return in;
}

struct Case {
  UfsInputs in;
  UncoreRatioLimit limit;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {busy_inputs(), {.max_freq = Freq::ghz(2.4), .min_freq = Freq::ghz(1.2)}},
      {avx_inputs(), {.max_freq = Freq::ghz(2.4), .min_freq = Freq::ghz(1.2)}},
      // The window lifts the dithered bin back to steady: draws are still
      // consumed, every selection is the same frequency.
      {avx_inputs(), {.max_freq = Freq::ghz(2.4), .min_freq = Freq::ghz(2.0)}},
      {busy_inputs(), {.max_freq = Freq::ghz(1.7), .min_freq = Freq::ghz(1.7)}},
      {idle_inputs(), {.max_freq = Freq::ghz(2.4), .min_freq = Freq::ghz(1.2)}},
  };
  return all;
}

void expect_same_stream(common::Rng a, common::Rng b, const char* what) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << what << " draw " << i;
  }
}

std::vector<std::uint64_t> socket_seeds(std::uint64_t seed,
                                        std::size_t sockets) {
  common::SplitMix64 seeder(seed);
  std::vector<std::uint64_t> out(sockets);
  for (std::uint64_t& s : out) s = seeder.next();
  return out;
}

/// A node's governors and their oracles, seeded alike.
struct Sockets {
  Sockets(const NodeConfig& cfg, const HwUfsParams& params,
          const std::vector<std::uint64_t>& seeds) {
    for (const std::uint64_t seed : seeds) {
      fast.emplace_back(cfg, params, seed);
      ref.emplace_back(cfg, params, seed);
    }
  }

  /// One call on both sides: the sum's bits, every socket's current()
  /// and the next 8 draws of every stream must match.
  void expect_same_call(const Case& k, std::size_t periods) {
    const double a =
        HwUfsGovernor::evaluate_periods(fast, k.in, k.limit, periods);
    const double b = reference_evaluate_periods(ref, k.in, k.limit, periods);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b));
    for (std::size_t s = 0; s < fast.size(); ++s) {
      ASSERT_EQ(fast[s].current(), ref[s].current()) << "socket " << s;
      expect_same_stream(fast[s].rng(), ref[s].rng(), "socket stream");
    }
  }

  std::vector<HwUfsGovernor> fast;
  std::vector<ReferenceHwUfsGovernor> ref;
};

TEST(HwUfsDiff, MatchesReferenceOverSeedsPeriodsAndSockets) {
  const NodeConfig cfg = make_skylake_6148_node();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double p : {0.12, 0.5, 0.0, -0.25, 1.0, 1.5, inf}) {
    HwUfsParams params;
    params.dither_probability = p;
    for (std::size_t sockets = 1; sockets <= 3; ++sockets) {
      for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        // One sequence of calls per node, so each call starts from the
        // stream state the previous one left.
        Sockets node(cfg, params, socket_seeds(seed, sockets));
        for (const std::size_t periods : {1, 2, 3, 99, 400}) {
          for (std::size_t c = 0; c < cases().size(); ++c) {
            SCOPED_TRACE(::testing::Message()
                         << "p " << p << " sockets " << sockets << " seed "
                         << seed << " periods " << periods << " case " << c);
            node.expect_same_call(cases()[c], periods);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(HwUfsDiff, DrawsExactlyAtTheThresholdMatchReference) {
  // p = u * 2^-53 for a draw u the last socket is about to produce puts
  // that draw exactly on the threshold: the double compare says "not
  // below", and so must the integer one (a `<=` slip flips only these
  // draws). Its neighbours either side must agree too.
  const NodeConfig cfg = make_skylake_6148_node();
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    for (std::size_t sockets = 1; sockets <= 3; ++sockets) {
      const std::vector<std::uint64_t> seeds = socket_seeds(seed, sockets);
      common::Rng peek(seeds.back());
      for (int draw = 0; draw < 3; ++draw) {
        const double on = static_cast<double>(peek.next_u64() >> 11) *
                          0x1.0p-53;
        for (const double p :
             {std::nextafter(on, 0.0), on, std::nextafter(on, 1.0)}) {
          SCOPED_TRACE(::testing::Message()
                       << std::hexfloat << "p " << p << " seed " << seed
                       << " sockets " << sockets << " draw " << draw);
          HwUfsParams params;
          params.dither_probability = p;
          Sockets node(cfg, params, seeds);
          node.expect_same_call(cases().front(), 3);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(HwUfsDiff, ZeroPeriodsAndNoSocketsAreNoOps) {
  const NodeConfig cfg = make_skylake_6148_node();
  const HwUfsParams params;
  std::vector<HwUfsGovernor> govs(2, HwUfsGovernor(cfg, params, 3));
  const common::Rng before = govs[0].rng();
  const Case& k = cases().front();
  EXPECT_EQ(HwUfsGovernor::evaluate_periods(govs, k.in, k.limit, 0), 0.0);
  EXPECT_EQ(HwUfsGovernor::evaluate_periods({}, k.in, k.limit, 99), 0.0);
  EXPECT_EQ(govs[0].current(), cfg.uncore.max());
  expect_same_stream(govs[0].rng(), before, "untouched stream");
}

/// The draw u = next_u64() >> 11 dithers iff u * 2^-53 < p (this is
/// Rng::uniform's expression). At the threshold the two sides must flip
/// exactly: u = thr - 1 dithers, u = thr does not.
void expect_exact_boundary(double p) {
  SCOPED_TRACE(::testing::Message() << std::hexfloat << "p = " << p);
  const std::uint64_t thr = dither_threshold(p);
  ASSERT_LE(thr, kDraws);
  const auto dithers = [p](std::uint64_t u) {
    return static_cast<double>(u) * 0x1.0p-53 < p;
  };
  if (thr > 0) {
    EXPECT_TRUE(dithers(thr - 1));
  }
  if (thr < kDraws) {
    EXPECT_FALSE(dithers(thr));
  }
}

TEST(DitherThreshold, FlipsExactlyWhereTheDoubleCompareDoes) {
  std::vector<double> ps = {0.12,
                            0.5,
                            std::numeric_limits<double>::denorm_min(),
                            1e-310,
                            std::numeric_limits<double>::min(),
                            1.0,
                            1.5,
                            std::numeric_limits<double>::infinity()};
  // Dyadic k / 2^53 values (the threshold is exactly k there) and
  // their neighbours on either side.
  common::Rng rng(2021);
  std::vector<std::uint64_t> ks = {1, 2, 3, 12345, kDraws / 2, kDraws - 1};
  for (int i = 0; i < 64; ++i) ks.push_back(rng.next_u64() >> 11);
  for (const std::uint64_t k : ks) {
    ps.push_back(static_cast<double>(k) * 0x1.0p-53);
  }
  const std::size_t base = ps.size();
  for (std::size_t i = 0; i < base; ++i) {
    ps.push_back(std::nextafter(ps[i], 0.0));
    ps.push_back(std::nextafter(ps[i], 2.0));
  }
  for (const double p : ps) expect_exact_boundary(p);

  EXPECT_EQ(dither_threshold(0.0), 0u);
  EXPECT_EQ(dither_threshold(-0.0), 0u);
  EXPECT_EQ(dither_threshold(-0.5), 0u);
  EXPECT_EQ(dither_threshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(dither_threshold(std::numeric_limits<double>::denorm_min()), 1u);
  EXPECT_EQ(dither_threshold(0x1.0p-53), 1u);
  EXPECT_EQ(dither_threshold(std::nextafter(0x1.0p-53, 1.0)), 2u);
  EXPECT_EQ(dither_threshold(1.0), kDraws);
  EXPECT_EQ(dither_threshold(std::nextafter(1.0, 0.0)), kDraws - 1);
  EXPECT_EQ(dither_threshold(2.0), kDraws);
}

}  // namespace
}  // namespace ear::simhw
