// Ambient-temperature sensitivity (refs [20][21] of the paper study
// ambient-aware management): how the critical power, the safe budget at
// 85 degC, and the 3DMark+BML outcome under the proposed governor shift
// with ambient temperature.
#include <cstdio>

#include "bench_util.h"
#include "core/appaware.h"
#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "stability/presets.h"
#include "stability/safety.h"
#include "thermal/presets.h"
#include "util/units.h"
#include "workload/presets.h"

int main() {
  using namespace mobitherm;
  bench::header("Ambient ablation",
                "critical power and proposed-governor outcome vs. ambient");

  std::printf("\n%-12s %14s %16s %12s %12s\n", "ambient", "critical (W)",
              "budget@85C (W)", "peak (degC)", "migrations");
  for (double ambient_c : {15.0, 25.0, 35.0, 45.0}) {
    stability::Params params = stability::odroid_xu3_params();
    params.t_ambient_k = util::celsius(ambient_c);
    const double p_crit = stability::critical_power(params);
    const double budget =
        stability::safe_power(params, util::celsius_to_kelvin(85.0));

    const platform::SocSpec spec = platform::exynos5422();
    sim::Engine engine(
        spec, thermal::odroidxu3_network(util::celsius(ambient_c)),
        power::LeakageParams{params.leak_theta_k, params.leak_a_w_per_k2},
        0.25);
    engine.set_initial_temperature(
        util::celsius_to_kelvin(ambient_c + 25.0));
    engine.set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
        sim::odroid_appaware_config(spec), params));
    engine.add_app(workload::threedmark());
    engine.add_app(workload::bml());
    engine.run(250.0);

    double peak = 0.0;
    for (const sim::TracePoint& p : engine.trace().points()) {
      peak = std::max(peak, p.max_chip_temp_k - 273.15);
    }
    std::size_t migrations = 0;
    for (const auto& [t, d] : engine.decisions()) {
      migrations += d.migrated.has_value() ? 1 : 0;
    }
    std::printf("%8.0f degC %14.2f %16.2f %12.1f %12zu\n", ambient_c,
                p_crit, budget, peak, migrations);
  }
  std::printf(
      "\nHotter ambients shrink both the runaway margin and the sustainable\n"
      "budget; the governor compensates by migrating earlier, but the\n"
      "steady temperature rises roughly with the ambient.\n");
  return 0;
}
