// The process-wide learned-model cache: distinct node configs must learn
// concurrently (the old cache held one global mutex across learn_models,
// so every first-touch thread convoyed behind whichever config got there
// first), and repeated lookups must return the same cached entry.
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "simhw/config.hpp"

namespace ear::sim {
namespace {

using Clock = std::chrono::steady_clock;
using common::Freq;

/// A config whose learning phase takes a long time (a fine-grained
/// P-state ladder multiplies the learning grid).
simhw::NodeConfig heavy_config() {
  simhw::NodeConfig cfg = simhw::make_skylake_6148_node();
  cfg.name = "model-cache-test-heavy";
  cfg.pstates =
      simhw::PstateTable(Freq::ghz(2.41), Freq::ghz(2.40), Freq::ghz(1.0),
                         Freq::mhz(5), Freq::ghz(2.2));
  return cfg;
}

/// A config that learns in a few milliseconds.
simhw::NodeConfig light_config() {
  simhw::NodeConfig cfg = simhw::make_skylake_6148_node();
  cfg.name = "model-cache-test-light";
  cfg.pstates =
      simhw::PstateTable(Freq::ghz(2.41), Freq::ghz(2.40), Freq::ghz(1.7),
                         Freq::mhz(350), Freq::ghz(2.2));
  return cfg;
}

TEST(ModelCache, DistinctConfigsLearnConcurrently) {
  const simhw::NodeConfig heavy = heavy_config();
  const simhw::NodeConfig light = light_config();

  Clock::time_point heavy_done;
  std::thread learner([&] {
    (void)cached_models(heavy);
    heavy_done = Clock::now();
  });
  // Let the heavy learn get well underway before the light first-touch.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (void)cached_models(light);
  const Clock::time_point light_done = Clock::now();
  learner.join();

  // The light config's learning must not have queued behind the heavy
  // one: its first-touch finishes while the heavy learn is still running.
  // (The heavy ladder is ~18x the default learning grid, hundreds of
  // milliseconds; the light one is a few milliseconds.)
  EXPECT_LT(light_done.time_since_epoch().count(),
            heavy_done.time_since_epoch().count());
}

TEST(ModelCache, RepeatLookupsHitTheSameEntry) {
  const simhw::NodeConfig light = light_config();
  const models::LearnedModels& a = cached_models(light);
  const models::LearnedModels& b = cached_models(light);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(a.coefficients, nullptr);
  EXPECT_NE(a.basic, nullptr);
  EXPECT_NE(a.avx512, nullptr);
}

TEST(ModelCache, SameConfigConcurrentFirstTouchLearnsOnce) {
  // Two threads racing on the same (new) config must both get the same
  // entry, with learn_models run exactly once between them (call_once).
  simhw::NodeConfig cfg = light_config();
  cfg.name = "model-cache-test-race";
  const models::LearnedModels* a = nullptr;
  const models::LearnedModels* b = nullptr;
  std::thread t1([&] { a = &cached_models(cfg); });
  std::thread t2([&] { b = &cached_models(cfg); });
  t1.join();
  t2.join();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->coefficients, b->coefficients);
}

}  // namespace
}  // namespace ear::sim
