// Best-arm policy comparison: the pure decision rule and verdict metrics.
//
// The paper's headline tables are point-estimate policy comparisons (IPA
// vs. the app-aware governor, with/without BML). The service's `compare`
// job (service/service.h) turns that into a statistical verdict: K policy
// "arms" are evaluated round by round over a shared deterministic seed
// schedule (util/seed_schedule.h — common random numbers, so per-seed
// jitter cancels out of the arm-vs-arm difference), each arm accrues into
// a streaming WelfordAccumulator, and the run stops as soon as the best
// arm's confidence interval separates from every rival's — or the per-arm
// seed budget is exhausted. This module holds the pieces of that loop
// that are pure functions: the stop/continue rule and the named metrics.
//
// Separation criterion: arm b (best by mean, direction per
// `higher_is_better`) is separated from rival r when
//
//     |mean_b - mean_r| > half_width_b + half_width_r
//
// with half-widths z * s / sqrt(n) at the configured confidence. Every arm
// must hold >= 2 samples before any separation claim (a single sample has
// an infinite half-width by construction).
//
// Determinism rule (the hard one): the adaptive stop/continue decision is
// a *pure function of the ordered per-seed results*. Arms consume schedule
// entries in index order, accumulators are fed arm-major in slot order
// after each round completes, and decide_best_arm() reads only
// accumulator state — never wall-clock, never thread identity. Each
// per-seed result is one isolated engine run, so verdicts replay
// byte-identically at any worker count, shard count, and across
// fault-injected retries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/montecarlo.h"

namespace mobitherm::sim {

/// The pure stop/continue decision over current accumulator state.
struct CompareDecision {
  std::size_t best = 0;  // arm index with the best mean (ties: lowest index)
  bool separated = false;
};

/// Pick the best arm by mean and test CI separation against every rival.
/// Pure: depends only on the accumulators' (mean, stddev, n) state, the
/// confidence level and the direction — never on evaluation order, time or
/// thread count. Throws util::ConfigError on an empty arm list or an
/// out-of-range confidence.
CompareDecision decide_best_arm(const std::vector<WelfordAccumulator>& arms,
                                double confidence, bool higher_is_better);

/// Named verdict metrics the service layer exposes: extract one summary
/// number from a finished run's RunMetrics. "median_fps" reads the
/// foreground (first) app; "peak_temp_c" and "mean_power_w" read the run
/// summaries. Throws util::ConfigError on unknown names.
double compare_metric_value(const RunMetrics& metrics,
                            const std::string& name);

/// Direction of a named metric (fps up, temperature/power down). Throws
/// util::ConfigError on unknown names.
bool compare_metric_higher_is_better(const std::string& name);

/// The supported metric names, stable order (for the `scenarios` op).
const std::vector<std::string>& compare_metric_names();

}  // namespace mobitherm::sim
