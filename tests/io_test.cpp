// Tests for multi-seed statistics and logging.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/montecarlo.h"
#include "util/error.h"
#include "util/log.h"

namespace mobitherm {
namespace {

using util::ConfigError;

// --- montecarlo -------------------------------------------------------------------

TEST(MonteCarlo, SummarizeKnownSample) {
  const sim::SeedStats s = sim::summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0,
                                           7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_EQ(s.n, 8);
  EXPECT_THROW(sim::summarize({}), ConfigError);
}

TEST(MonteCarlo, SingleSampleHasZeroStddev) {
  const sim::SeedStats s = sim::summarize({3.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(MonteCarlo, AcrossSeedsPassesDistinctSeeds) {
  std::vector<std::uint64_t> seen;
  const sim::SeedStats s = sim::across_seeds(
      [&](std::uint64_t seed) {
        seen.push_back(seed);
        return static_cast<double>(seed);
      },
      4, 100);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{100, 101, 102, 103}));
  EXPECT_DOUBLE_EQ(s.mean, 101.5);
  EXPECT_THROW(sim::across_seeds([](std::uint64_t) { return 0.0; }, 0),
               ConfigError);
}

// --- log ---------------------------------------------------------------------------

TEST(Log, ThresholdGatesMessages) {
  const util::LogLevel before = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  // Macro below the threshold must not evaluate its stream expression.
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "x";
  };
  MOBITHERM_DEBUG(count());
  EXPECT_EQ(evaluations, 0);
  util::set_log_level(util::LogLevel::kDebug);
  MOBITHERM_DEBUG(count());
  EXPECT_EQ(evaluations, 1);
  util::set_log_level(before);
}

}  // namespace
}  // namespace mobitherm
