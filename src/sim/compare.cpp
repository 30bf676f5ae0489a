#include "sim/compare.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::sim {

CompareDecision decide_best_arm(const std::vector<WelfordAccumulator>& arms,
                                double confidence, bool higher_is_better) {
  if (arms.empty()) {
    throw util::ConfigError("decide_best_arm: no arms");
  }
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw util::ConfigError("decide_best_arm: confidence must be in (0, 1)");
  }
  CompareDecision decision;
  for (std::size_t a = 1; a < arms.size(); ++a) {
    const double mean = arms[a].mean();
    const double best = arms[decision.best].mean();
    // Strict comparison: ties keep the lowest arm index, so the pick is a
    // pure function of the accumulator state.
    if (higher_is_better ? mean > best : mean < best) {
      decision.best = a;
    }
  }
  decision.separated = true;
  for (std::size_t a = 0; a < arms.size() && decision.separated; ++a) {
    if (arms[a].count() < 2) {
      decision.separated = false;  // infinite half-width by construction
    }
  }
  const WelfordAccumulator& best = arms[decision.best];
  const double best_hw = ci_half_width(best.stddev(), best.count(),
                                       confidence);
  for (std::size_t a = 0; a < arms.size() && decision.separated; ++a) {
    if (a == decision.best) {
      continue;
    }
    const double rival_hw =
        ci_half_width(arms[a].stddev(), arms[a].count(), confidence);
    if (!(std::abs(best.mean() - arms[a].mean()) > best_hw + rival_hw)) {
      decision.separated = false;
    }
  }
  return decision;
}

double compare_metric_value(const RunMetrics& metrics,
                            const std::string& name) {
  if (name == "median_fps") {
    if (metrics.median_fps.empty()) {
      throw util::ConfigError(
          "compare: run has no app fps to read for metric 'median_fps'");
    }
    return metrics.median_fps.front();
  }
  if (name == "peak_temp_c") {
    return metrics.peak_temp_c;
  }
  if (name == "mean_power_w") {
    return metrics.mean_power_w;
  }
  throw util::ConfigError("compare: unknown metric '" + name + "'");
}

bool compare_metric_higher_is_better(const std::string& name) {
  if (name == "median_fps") {
    return true;
  }
  if (name == "peak_temp_c" || name == "mean_power_w") {
    return false;
  }
  throw util::ConfigError("compare: unknown metric '" + name + "'");
}

const std::vector<std::string>& compare_metric_names() {
  static const std::vector<std::string> names = {"median_fps", "peak_temp_c",
                                                 "mean_power_w"};
  return names;
}

}  // namespace mobitherm::sim
