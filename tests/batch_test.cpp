// Batch-runner tests: the parallel multi-seed sweep must be bit-identical
// to the serial evaluation (one isolated engine per run, results stored by
// index), and worker failures must surface as exceptions, not hangs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/batch.h"
#include "sim/experiment.h"
#include "sim/montecarlo.h"
#include "util/error.h"
#include "workload/presets.h"

namespace mobitherm::sim {
namespace {

using util::ConfigError;

double nexus_fps_metric(std::uint64_t seed) {
  NexusRun run;
  run.app = workload::paperio();
  run.duration_s = 3.0;
  run.seed = seed;
  return run_nexus_app(run).median_fps;
}

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for_index(hits.size(), 4,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  // Degenerate shapes: empty range and more workers than items.
  parallel_for_index(0, 4, [](std::size_t) { FAIL(); });
  std::atomic<int> count{0};
  parallel_for_index(2, 16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

TEST(ParallelForIndex, PropagatesFirstWorkerException) {
  EXPECT_THROW(parallel_for_index(8, 4,
                                  [](std::size_t i) {
                                    if (i == 5) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(AcrossSeeds, SerialAndParallelAreBitIdentical) {
  const SeedStats serial = across_seeds(nexus_fps_metric, 6, 1, 1);
  const SeedStats parallel = across_seeds(nexus_fps_metric, 6, 1, 4);
  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.stddev, parallel.stddev);
  EXPECT_EQ(serial.min, parallel.min);
  EXPECT_EQ(serial.max, parallel.max);
}

TEST(BatchRunner, SweepMatchesManualSerialLoop) {
  BatchOptions opts;
  opts.threads = 4;
  BatchRunner runner(opts);
  const std::vector<double> swept = runner.sweep(nexus_fps_metric, 5, 7);
  ASSERT_EQ(swept.size(), 5u);
  for (std::size_t i = 0; i < swept.size(); ++i) {
    EXPECT_EQ(swept[i], nexus_fps_metric(7 + i));
  }
}

std::unique_ptr<Engine> nexus_engine(std::size_t, std::uint64_t seed) {
  NexusRun run;
  run.app = workload::paperio();
  run.seed = seed;
  return make_nexus_engine(run);
}

TEST(BatchRunner, RunProducesOrderedFullRecords) {
  BatchOptions opts;
  opts.threads = 4;
  BatchRunner runner(opts);
  EXPECT_GE(runner.resolved_threads(), 1u);
  const std::vector<BatchRecord> records =
      runner.run(3, /*base_seed=*/21, /*duration_s=*/3.0, nexus_engine);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BatchRecord& r = records[i];
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.seed, 21 + i);
    EXPECT_GT(r.metrics.peak_temp_c, 0.0);
    EXPECT_GT(r.metrics.mean_power_w, 0.0);
    ASSERT_EQ(r.metrics.median_fps.size(), 1u);
    EXPECT_GT(r.metrics.median_fps[0], 0.0);
    EXPECT_GT(r.report.peak_temp_c, 0.0);
    EXPECT_GE(r.wall_s, 0.0);
  }
  // Distinct seeds perturb the workload, so the records differ.
  EXPECT_NE(records[0].metrics.median_fps[0],
            records[1].metrics.median_fps[0]);

  // Reference: each seed's engine run alone on this thread. The pooled
  // records must match it bit for bit, whichever worker ran them.
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::unique_ptr<Engine> engine = nexus_engine(i, records[i].seed);
    MetricsObserver tap(MetricsOptions{});
    engine->add_observer(&tap);
    engine->run(3.0);
    const RunMetrics alone = tap.metrics(*engine);
    const RunReport report =
        make_report(*engine, MetricsOptions{}.temp_limit_c);
    const BatchRecord& r = records[i];
    EXPECT_EQ(r.metrics.temp_trace_c, alone.temp_trace_c) << i;
    EXPECT_EQ(r.metrics.median_fps, alone.median_fps) << i;
    EXPECT_EQ(r.metrics.mean_power_w, alone.mean_power_w) << i;
    EXPECT_EQ(r.metrics.residency, alone.residency) << i;
    EXPECT_EQ(r.report.total_energy_j, report.total_energy_j) << i;
    EXPECT_EQ(r.report.time_above_limit_s, report.time_above_limit_s) << i;
  }
}

TEST(BatchRunner, RejectsInvalidInputs) {
  BatchRunner runner;
  EXPECT_THROW(runner.run(0, 1, 1.0,
                          [](std::size_t, std::uint64_t) {
                            return std::unique_ptr<Engine>();
                          }),
               ConfigError);
  EXPECT_THROW(runner.run(1, 1, 1.0, nullptr), ConfigError);
  EXPECT_THROW(runner.run(1, 1, 1.0,
                          [](std::size_t, std::uint64_t) {
                            return std::unique_ptr<Engine>();
                          }),
               ConfigError);
  EXPECT_THROW(runner.sweep(nullptr, 3, 1), ConfigError);
}

}  // namespace
}  // namespace mobitherm::sim
