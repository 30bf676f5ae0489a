// Observer-bus tests: passive observers never perturb the simulation
// (bit-identical traces with zero, one, N observers), the built-in
// instrumentation observers agree with the legacy engine accessors, and
// every event type fires when its source is wired.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/observers.h"
#include "stability/presets.h"
#include "thermal/presets.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm::sim {
namespace {

using platform::SocSpec;
using util::ConfigError;
using util::celsius_to_kelvin;

power::LeakageParams odroid_leakage() {
  const stability::Params p = stability::odroid_xu3_params();
  return power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2};
}

std::unique_ptr<Engine> make_engine(EngineConfig cfg = {}) {
  return std::make_unique<Engine>(platform::exynos5422(),
                                  thermal::odroidxu3_network(),
                                  odroid_leakage(), 0.25, cfg);
}

/// Always-tripped step_wise config: caps the big cluster hard, producing
/// conflicts and DVFS transitions deterministically.
void add_hot_stepwise(Engine& engine) {
  const SocSpec spec = platform::exynos5422();
  governors::StepWiseGovernor::Config cfg;
  governors::StepWiseGovernor::Zone z;
  z.cluster = spec.big();
  z.sensor_node = spec.clusters[spec.big()].thermal_node;
  z.trip_k = util::kelvin(0.0);  // always above trip
  z.steps_per_state = 4;
  cfg.zones = {z};
  cfg.polling_period_s = util::seconds(0.1);
  engine.set_thermal_governor(
      std::make_unique<governors::StepWiseGovernor>(spec, cfg));
}

/// Counts every event kind it sees.
struct CountingObserver final : SimObserver {
  std::size_t ticks = 0;
  std::size_t cpufreq = 0;
  std::size_t thermal = 0;
  std::size_t appaware = 0;
  std::size_t dvfs = 0;
  std::size_t conflict_begin = 0;
  std::size_t conflict_end = 0;
  bool caps_seen = false;
  bool decision_seen = false;

  void on_tick(const TickInfo& info) override {
    ++ticks;
    EXPECT_GT(info.dt, 0.0);
    EXPECT_NE(info.engine, nullptr);
  }
  void on_governor_decision(const GovernorDecisionEvent& e) override {
    switch (e.kind) {
      case GovernorKind::kCpufreq:
        ++cpufreq;
        break;
      case GovernorKind::kThermal:
        ++thermal;
        caps_seen = caps_seen || e.thermal_caps != nullptr;
        break;
      case GovernorKind::kAppAware:
        ++appaware;
        decision_seen = decision_seen || e.decision != nullptr;
        break;
    }
  }
  void on_dvfs_transition(const DvfsTransitionEvent& e) override {
    ++dvfs;
    EXPECT_NE(e.from_index, e.to_index);
  }
  void on_thermal_event(const ThermalEvent& e) override {
    if (e.kind == ThermalEvent::Kind::kConflictBegin) {
      ++conflict_begin;
    } else {
      ++conflict_end;
    }
  }
};

/// Every recorded value of two traces is bit-equal: each TracePoint field,
/// each cluster's OPP residency and rail power, and the duration.
void expect_identical(const Trace& a, const Trace& b, std::size_t clusters) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    const TracePoint& pa = a.points()[i];
    const TracePoint& pb = b.points()[i];
    EXPECT_EQ(pa.t_s, pb.t_s) << i;
    EXPECT_EQ(pa.max_chip_temp_k, pb.max_chip_temp_k) << i;
    EXPECT_EQ(pa.board_temp_k, pb.board_temp_k) << i;
    EXPECT_EQ(pa.total_power_w, pb.total_power_w) << i;
    EXPECT_EQ(pa.cluster_freq_hz, pb.cluster_freq_hz) << i;
    EXPECT_EQ(pa.app_fps, pb.app_fps) << i;
  }
  for (std::size_t c = 0; c < clusters; ++c) {
    EXPECT_EQ(a.residency_s(c), b.residency_s(c)) << c;
    EXPECT_EQ(a.mean_rail_power_w(c), b.mean_rail_power_w(c)) << c;
  }
  EXPECT_EQ(a.duration_s(), b.duration_s());
}

TEST(ObserverBus, TraceByteIdenticalWithZeroOneManyObservers) {
  EngineConfig cfg;
  cfg.seed = 11;
  auto run_with = [&](int observers) {
    auto engine = make_engine(cfg);
    add_hot_stepwise(*engine);
    engine->add_app(workload::threedmark());
    MetricsObserver metrics;
    CountingObserver a;
    CountingObserver b;
    if (observers >= 1) {
      engine->add_observer(&metrics);
    }
    if (observers >= 3) {
      engine->add_observer(&a);
      engine->add_observer(&b);
    }
    engine->run(3.0);
    return engine->trace();
  };
  const Trace zero = run_with(0);
  const std::size_t clusters = platform::exynos5422().clusters.size();
  ASSERT_FALSE(zero.points().empty());
  expect_identical(zero, run_with(1), clusters);
  expect_identical(zero, run_with(3), clusters);
}

TEST(ObserverBus, ExternalBuiltinsMatchLegacyAccessors) {
  auto engine = make_engine();
  add_hot_stepwise(*engine);
  const std::size_t n = engine->soc().num_clusters();
  ConflictAccountingObserver conflicts(n);
  DvfsTransitionCounter dvfs(n);
  engine->add_observer(&conflicts);
  engine->add_observer(&dvfs);
  engine->add_app(workload::bml());
  engine->run(5.0);

  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_DOUBLE_EQ(conflicts.time_s(c), engine->conflict_time_s(c));
    EXPECT_EQ(conflicts.episodes(c), engine->conflict_episodes(c));
    EXPECT_EQ(dvfs.transitions(c), engine->dvfs_transitions(c));
  }
  const std::size_t big = engine->soc().spec().big();
  EXPECT_GT(engine->conflict_time_s(big), 0.0);
  EXPECT_GE(engine->dvfs_transitions(big), 1u);
}

TEST(ObserverBus, GovernorDecisionEventsFire) {
  auto engine = make_engine();
  const SocSpec spec = platform::exynos5422();
  add_hot_stepwise(*engine);
  core::AppAwareConfig acfg;
  acfg.big_cluster = spec.big();
  acfg.little_cluster = spec.little();
  acfg.temp_limit_k = celsius_to_kelvin(85.0);
  engine->set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
      acfg, stability::odroid_xu3_params()));

  CountingObserver counter;
  engine->add_observer(&counter);
  engine->add_app(workload::bml());
  engine->run(2.0);

  EXPECT_EQ(counter.ticks, 2000u);
  EXPECT_GT(counter.cpufreq, 0u);
  EXPECT_GT(counter.thermal, 0u);
  EXPECT_GT(counter.appaware, 0u);
  EXPECT_TRUE(counter.caps_seen);
  EXPECT_TRUE(counter.decision_seen);
  EXPECT_EQ(counter.appaware, engine->decisions().size());
  EXPECT_GE(counter.conflict_begin, counter.conflict_end);
}

TEST(ObserverBus, AddObserverLifecycle) {
  auto engine = make_engine();
  EXPECT_THROW(engine->add_observer(nullptr), ConfigError);
  CountingObserver counter;
  engine->add_observer(&counter);
  engine->run(0.01);
  EXPECT_EQ(counter.ticks, 10u);
}

TEST(ConflictAccounting, CountsThermalClamps) {
  // The always-tripped step-wise zone clamps the big cluster while BML
  // saturates it -> continuous contradiction.
  auto engine = make_engine();
  add_hot_stepwise(*engine);
  engine->add_app(workload::bml());
  engine->run(5.0);
  const SocSpec& spec = engine->soc().spec();
  EXPECT_GT(engine->conflict_time_s(spec.big()), 3.0);
  EXPECT_GE(engine->conflict_episodes(spec.big()), 1u);
  // The LITTLE cluster was never clamped.
  EXPECT_DOUBLE_EQ(engine->conflict_time_s(spec.little()), 0.0);
  EXPECT_THROW(engine->conflict_time_s(99), ConfigError);
}

TEST(ConflictAccounting, NoConflictsWithoutThermalGovernor) {
  auto engine = make_engine();
  engine->add_app(workload::threedmark());
  engine->run(5.0);
  for (std::size_t c = 0; c < engine->soc().num_clusters(); ++c) {
    EXPECT_DOUBLE_EQ(engine->conflict_time_s(c), 0.0);
    EXPECT_EQ(engine->conflict_episodes(c), 0u);
  }
}

TEST(MetricsObserver, MatchesNexusScenarioSummaries) {
  NexusRun run;
  run.app = workload::paperio();
  run.duration_s = 6.0;
  run.seed = 3;
  const NexusResult expected = run_nexus_app(run);

  std::unique_ptr<Engine> engine = make_nexus_engine(run);
  MetricsObserver tap;
  engine->add_observer(&tap);
  engine->run(run.duration_s);
  const RunMetrics m = tap.metrics(*engine);

  const SocSpec spec = platform::snapdragon810();
  ASSERT_EQ(m.temp_trace_c.size(), expected.temp_trace_c.size());
  for (std::size_t i = 0; i < m.temp_trace_c.size(); ++i) {
    EXPECT_EQ(m.temp_trace_c[i].second, expected.temp_trace_c[i].second);
  }
  EXPECT_EQ(m.peak_temp_c, expected.peak_temp_c);
  EXPECT_EQ(m.median_fps[0], expected.median_fps);
  EXPECT_EQ(m.mean_power_w, expected.mean_power_w);
  EXPECT_EQ(m.residency[spec.gpu()], expected.gpu_residency);
  EXPECT_EQ(m.residency[spec.big()], expected.big_residency);
  EXPECT_EQ(m.freqs_mhz[spec.big()], expected.big_freqs_mhz);

  // Live per-tick statistics: the true peak can only exceed the decimated
  // trace's peak, and every tick was observed.
  EXPECT_GE(tap.live_peak_temp_c(), m.peak_temp_c);
  EXPECT_EQ(tap.ticks_observed(), 6000u);
}

TEST(EngineRun, FractionalTicksCarryAcrossCalls) {
  EngineConfig cfg;
  cfg.seed = 5;
  auto whole = make_engine(cfg);
  auto sliced = make_engine(cfg);
  whole->add_app(workload::threedmark());
  sliced->add_app(workload::threedmark());

  whole->run(1.0);
  for (int i = 0; i < 20; ++i) {
    sliced->run(0.05);
  }
  EXPECT_DOUBLE_EQ(whole->now_s(), sliced->now_s());
  EXPECT_DOUBLE_EQ(whole->trace().duration_s(),
                   sliced->trace().duration_s());
  EXPECT_EQ(whole->network().max_temperature(),
            sliced->network().max_temperature());
  EXPECT_EQ(whole->total_power_w(), sliced->total_power_w());

  // Sub-tick slices accumulate instead of being dropped: 10 x 0.0001 s at
  // a 1 ms tick is exactly one tick.
  auto tiny = make_engine(cfg);
  for (int i = 0; i < 10; ++i) {
    tiny->run(0.0001);
  }
  EXPECT_DOUBLE_EQ(tiny->now_s(), 0.001);
}

}  // namespace
}  // namespace mobitherm::sim
