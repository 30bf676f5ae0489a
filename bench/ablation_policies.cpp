// Policy comparison on the 3DMark + BML scenario: what each thermal
// management strategy trades off. Rows report foreground GT1 fps, peak
// temperature, background progress, and the governor-contradiction time
// (paper Sec. I) on the big cluster.
//
// Policies: none, step_wise (uniform 85 degC trips), IPA (kernel default),
// proposed (paper), proposed + migrate-back.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "core/appaware.h"
#include "governors/thermal.h"
#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "stability/presets.h"
#include "thermal/presets.h"
#include "util/units.h"
#include "workload/presets.h"

namespace {

using namespace mobitherm;

enum class Policy {
  kNone,
  kStepWise,
  kIpa,
  kProposed,
  kProposedMigrateBack
};

struct Row {
  double gt1_fps;
  double peak_c;
  double bml_work;
  double conflict_s;
  std::size_t migrations;
};

Row run(Policy policy) {
  const platform::SocSpec spec = platform::exynos5422();
  const stability::Params params = stability::odroid_xu3_params();
  sim::Engine engine(spec, thermal::odroidxu3_network(),
                     power::LeakageParams{params.leak_theta_k,
                                          params.leak_a_w_per_k2},
                     0.25);
  engine.set_initial_temperature(util::celsius_to_kelvin(50.0));

  switch (policy) {
    case Policy::kNone:
      break;
    case Policy::kStepWise:
      engine.set_thermal_governor(
          std::make_unique<governors::StepWiseGovernor>(
              spec, governors::StepWiseGovernor::uniform(
                        spec, util::celsius(85.0))));
      break;
    case Policy::kIpa:
      engine.set_thermal_governor(std::make_unique<governors::IpaGovernor>(
          spec, sim::odroid_ipa_config(spec)));
      break;
    case Policy::kProposed:
    case Policy::kProposedMigrateBack: {
      core::AppAwareConfig cfg = sim::odroid_appaware_config(spec);
      cfg.migrate_back = policy == Policy::kProposedMigrateBack;
      engine.set_appaware_governor(
          std::make_unique<core::AppAwareGovernor>(cfg, params));
      break;
    }
  }

  const std::size_t fg = engine.add_app(workload::threedmark());
  const std::size_t bg = engine.add_app(workload::bml());
  engine.run(250.0);

  Row row;
  const workload::AppInstance& app = engine.app(fg);
  double sum = 0.0;
  int count = 0;
  for (std::size_t sec = 0; sec < app.fps_samples().size(); ++sec) {
    if (app.phase_index_at(sec + 0.5) == 0) {
      sum += app.fps_samples()[sec];
      ++count;
    }
  }
  row.gt1_fps = count > 0 ? sum / count : 0.0;
  double peak = 0.0;
  for (const sim::TracePoint& p : engine.trace().points()) {
    peak = std::max(peak, p.max_chip_temp_k - 273.15);
  }
  row.peak_c = peak;
  row.bml_work =
      engine.scheduler().process(engine.app(bg).cpu_pid()).completed_work();
  row.conflict_s = engine.conflict_time_s(spec.big()) +
                   engine.conflict_time_s(spec.gpu());
  row.migrations = 0;
  for (const auto& [t, d] : engine.decisions()) {
    row.migrations += d.migrated.has_value() ? 1 : 0;
  }
  return row;
}

void print(const char* label, const Row& r) {
  std::printf("%-26s GT1 %6.1f fps  peak %5.1f degC  BML %9.3g  "
              "conflict %6.1f s  migrations %zu\n",
              label, r.gt1_fps, r.peak_c, r.bml_work, r.conflict_s,
              r.migrations);
}

}  // namespace

int main() {
  bench::header("Policy ablation",
                "thermal-management strategies on 3DMark + BML (250 s)");
  std::printf("\n");
  print("no thermal management", run(Policy::kNone));
  print("step_wise (85 degC trips)", run(Policy::kStepWise));
  print("IPA (kernel default)", run(Policy::kIpa));
  print("proposed (paper)", run(Policy::kProposed));
  print("proposed + migrate-back", run(Policy::kProposedMigrateBack));
  std::printf(
      "\nReading: system-wide policies (step_wise/IPA) protect temperature\n"
      "by throttling everything — the foreground fps drops and the thermal\n"
      "cap contradicts the frequency governor for most of the run. The\n"
      "proposed governor penalizes only the background hog: foreground fps\n"
      "matches the no-management run at a far lower temperature, with zero\n"
      "governor contradictions.\n");
  return 0;
}
