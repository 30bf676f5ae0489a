// mobitherm command-line tool: the userspace-daemon-shaped entry point.
//
//   mobitherm_cli analyze  [--power W] [--ambient C] [--limit C]
//       Stability analysis at a power level: fixed points, critical power,
//       safe budget, time to violation.
//   mobitherm_cli simulate [--app NAME] [--duration S] [--policy P]
//                          [--bml] [--report-limit C]
//       Run a workload on the Odroid-XU3 model and print the run report.
//       Policies: none, stepwise, ipa, proposed.
//   mobitherm_cli advise   [--app NAME] [--trip C]
//       Developer throttling advisory for an app on the Nexus 6P model.
//   mobitherm_cli apps
//       List the built-in workloads.
//
// A numeric flag whose value is not a whole finite number (or a --duration
// that is not positive) is reported on stderr with exit status 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/advisor.h"
#include "core/appaware.h"
#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "stability/presets.h"
#include "stability/safety.h"
#include "stability/trajectory.h"
#include "thermal/presets.h"
#include "util/units.h"
#include "workload/presets.h"

namespace {

using namespace mobitherm;

[[noreturn]] void bad_value(const char* flag, const char* value,
                            const char* why) {
  std::fprintf(stderr, "invalid value for %s: '%s' (%s)\n", flag, value, why);
  std::exit(1);
}

double arg_double(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      const char* text = argv[i + 1];
      char* end = nullptr;
      const double value = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(value)) {
        bad_value(flag, text, "expected a finite number");
      }
      return value;
    }
  }
  return fallback;
}

std::string arg_string(int argc, char** argv, const char* flag,
                       const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

bool arg_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

std::optional<workload::AppSpec> find_app(const std::string& name) {
  for (const workload::AppSpec& app : workload::nexus_apps()) {
    if (app.name == name) {
      return app;
    }
  }
  for (const workload::AppSpec& app :
       {workload::youtube(), workload::navigation(), workload::threedmark(),
        workload::nenamark(), workload::bml()}) {
    if (app.name == name) {
      return app;
    }
  }
  return std::nullopt;
}

int cmd_apps() {
  std::printf("built-in workloads:\n");
  for (const workload::AppSpec& app : workload::nexus_apps()) {
    std::printf("  %-15s (Table I app)\n", app.name.c_str());
  }
  for (const workload::AppSpec& app :
       {workload::youtube(), workload::navigation()}) {
    std::printf("  %-15s (extra)\n", app.name.c_str());
  }
  for (const workload::AppSpec& app :
       {workload::threedmark(), workload::nenamark(), workload::bml()}) {
    std::printf("  %-15s (Odroid benchmark)\n", app.name.c_str());
  }
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  stability::Params params = stability::odroid_xu3_params();
  params.t_ambient_k =
      util::celsius(arg_double(argc, argv, "--ambient", 25.0));
  const double power = arg_double(argc, argv, "--power", 4.0);
  const double limit_c = arg_double(argc, argv, "--limit", 85.0);
  const double limit_k = util::celsius_to_kelvin(limit_c);

  std::printf("Odroid-XU3 stability model, ambient %.1f degC\n",
              util::kelvin_to_celsius(params.t_ambient_k.value()));
  std::printf("critical power:          %.3f W\n",
              stability::critical_power(params));
  std::printf("safe budget for %.0f degC: %.3f W\n", limit_c,
              stability::safe_power(params, limit_k));

  const stability::FixedPointResult r = stability::analyze(params, power);
  std::printf("\nat %.2f W dynamic power: %s\n", power, to_string(r.cls));
  if (r.cls == stability::StabilityClass::kUnstable) {
    std::printf("  no fixed point: thermal runaway; time from ambient to "
                "%.0f degC: %.1f s\n",
                limit_c,
                stability::time_to_temperature(
                    params, power, params.t_ambient_k.value(), limit_k));
    return 0;
  }
  std::printf("  stable fixed point:   %.1f degC (aux x=%.3f)\n",
              util::kelvin_to_celsius(r.stable_temp_k), r.stable_x);
  if (r.num_fixed_points == 2) {
    std::printf("  unstable fixed point: %.1f degC (runaway beyond it)\n",
                util::kelvin_to_celsius(r.unstable_temp_k));
  }
  std::printf("  time to fixed point from ambient: %.1f s\n",
              stability::time_to_fixed_point(params, power,
                                             params.t_ambient_k.value()));
  std::printf("  sustainable at %.0f degC: %s (headroom %+.2f W)\n",
              limit_c,
              r.stable_temp_k <= limit_k ? "yes" : "NO",
              stability::power_headroom(params, limit_k, power));
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  const std::string app_name =
      arg_string(argc, argv, "--app", "threedmark");
  const std::string app_lookup = app_name == "threedmark" ? "3dmark"
                                                          : app_name;
  const auto app = find_app(app_lookup);
  if (!app.has_value()) {
    std::fprintf(stderr, "unknown app '%s' (try: mobitherm_cli apps)\n",
                 app_name.c_str());
    return 1;
  }
  const double duration = arg_double(argc, argv, "--duration", 120.0);
  if (duration <= 0.0) {
    bad_value("--duration", arg_string(argc, argv, "--duration", "").c_str(),
              "must be greater than 0");
  }
  const std::string policy = arg_string(argc, argv, "--policy", "none");
  const double initial_c = arg_double(argc, argv, "--initial", 50.0);
  const double limit = arg_double(argc, argv, "--report-limit", 85.0);

  const platform::SocSpec soc = platform::exynos5422();
  const stability::Params params = stability::odroid_xu3_params();
  sim::Engine engine(soc, thermal::odroidxu3_network(),
                     power::LeakageParams{params.leak_theta_k,
                                          params.leak_a_w_per_k2},
                     0.25);
  engine.set_initial_temperature(util::celsius_to_kelvin(initial_c));

  if (policy == "stepwise") {
    engine.set_thermal_governor(std::make_unique<governors::StepWiseGovernor>(
        soc, governors::StepWiseGovernor::uniform(
                 soc, util::celsius(85.0))));
  } else if (policy == "ipa") {
    engine.set_thermal_governor(std::make_unique<governors::IpaGovernor>(
        soc, sim::odroid_ipa_config(soc)));
  } else if (policy == "proposed") {
    engine.set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
        sim::odroid_appaware_config(soc), params));
  } else if (policy != "none") {
    std::fprintf(stderr, "unknown policy '%s'\n", policy.c_str());
    return 1;
  }

  engine.add_app(*app);
  if (arg_flag(argc, argv, "--bml")) {
    engine.add_app(workload::bml());
  }
  std::printf("simulating %s for %.0f s under policy '%s'...\n",
              app->name.c_str(), duration, policy.c_str());
  engine.run(duration);

  std::printf("%s", sim::format_report(sim::make_report(engine, limit)).c_str());
  std::size_t migrations = 0;
  for (const auto& [t, d] : engine.decisions()) {
    migrations += d.migrated.has_value() ? 1 : 0;
  }
  if (migrations > 0) {
    std::printf("governor migrations: %zu\n", migrations);
  }
  return 0;
}

int cmd_advise(int argc, char** argv) {
  const std::string app_name = arg_string(argc, argv, "--app", "paperio");
  const auto app = find_app(app_name);
  if (!app.has_value()) {
    std::fprintf(stderr, "unknown app '%s'\n", app_name.c_str());
    return 1;
  }
  const platform::SocSpec spec = platform::snapdragon810();
  const stability::Params params = stability::nexus6p_params();
  const power::PowerModel pm(
      spec, power::LeakageParams{params.leak_theta_k,
                                 params.leak_a_w_per_k2});
  core::AdvisorConfig cfg;
  cfg.trip_temp_k =
      util::celsius_to_kelvin(arg_double(argc, argv, "--trip", 41.0));
  cfg.base_power_w = 0.9;
  const core::AppAdvice a = core::advise(spec, pm, params, *app, cfg);
  std::printf("%s on the Nexus 6P model:\n", app->name.c_str());
  std::printf("  full-speed app power:   %.2f W (total %.2f W)\n",
              a.app_power_w, a.total_power_w);
  std::printf("  steady temperature:     %.1f degC\n",
              util::kelvin_to_celsius(a.steady_temp_k));
  std::printf("  throttling expected:    %s\n",
              a.throttling_expected ? "yes" : "no");
  if (a.throttling_expected) {
    std::printf("  recommended work scale: %.2f\n", a.recommended_scale);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "help";
  if (command == "apps") {
    return cmd_apps();
  }
  if (command == "analyze") {
    return cmd_analyze(argc, argv);
  }
  if (command == "simulate") {
    return cmd_simulate(argc, argv);
  }
  if (command == "advise") {
    return cmd_advise(argc, argv);
  }
  std::printf("usage: mobitherm_cli <analyze|simulate|advise|apps> "
              "[options]\n\n%s",
              "  analyze  [--power W] [--ambient C] [--limit C]\n"
              "  simulate [--app NAME] [--duration S] [--policy none|"
              "stepwise|ipa|proposed]\n"
              "           [--bml] [--initial C] [--report-limit C]\n"
              "  advise   [--app NAME] [--trip C]\n"
              "  apps\n");
  return command == "help" ? 0 : 1;
}
