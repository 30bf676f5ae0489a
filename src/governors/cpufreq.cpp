#include "governors/cpufreq.h"

#include <algorithm>

namespace mobitherm::governors {

namespace {

// Ondemand tunables.
constexpr double kUpThreshold = 0.80;
constexpr util::Seconds kOndemandPeriod = util::seconds(0.05);

// Interactive tunables (hispeed is a fraction of f_max).
constexpr double kGoHispeedLoad = 0.85;
constexpr double kHispeedFraction = 0.80;
constexpr double kTargetLoad = 0.90;
constexpr util::Seconds kAboveHispeedDelay = util::seconds(0.02);
constexpr util::Seconds kMinSampleTime = util::seconds(0.08);
constexpr util::Seconds kInteractivePeriod = util::seconds(0.02);

}  // namespace

util::Seconds Ondemand::sampling_period_s() const {
  return kOndemandPeriod;
}

util::Seconds Interactive::sampling_period_s() const {
  return kInteractivePeriod;
}

std::size_t Ondemand::decide(const CpufreqInputs& in,
                             const platform::OppTable& table) {
  if (in.utilization >= kUpThreshold) {
    return table.max_index();
  }
  // Lowest frequency that would bring utilization to the up-threshold.
  const util::Hertz cur_freq = table.at(in.current_index).freq_hz;
  const util::Hertz wanted = cur_freq * in.utilization / kUpThreshold;
  return table.ceil_index(wanted);
}

std::size_t Interactive::decide(const CpufreqInputs& in,
                                const platform::OppTable& table) {
  const util::Seconds dt = kInteractivePeriod;
  const util::Hertz f_cur = table.at(in.current_index).freq_hz;
  const util::Hertz f_max = table.highest().freq_hz;
  const std::size_t hispeed_index =
      table.ceil_index(kHispeedFraction * f_max);

  // Lowest OPP whose expected utilization stays at/below the target load.
  const util::Hertz wanted = f_cur * in.utilization / kTargetLoad;
  std::size_t target_index = table.ceil_index(wanted);

  std::size_t next = in.current_index;
  if (in.utilization >= kGoHispeedLoad) {
    if (in.current_index < hispeed_index) {
      // Burst straight to hispeed_freq.
      next = hispeed_index;
      time_above_hispeed_ = util::seconds(0.0);
    } else {
      // Already at/above hispeed: raise further only after the delay.
      time_above_hispeed_ += dt;
      next = (time_above_hispeed_ >= kAboveHispeedDelay)
                 ? std::max(target_index, in.current_index)
                 : in.current_index;
    }
  } else {
    time_above_hispeed_ = util::seconds(0.0);
    next = target_index;
  }

  if (next > in.current_index) {
    time_since_raise_ = util::seconds(0.0);
  } else if (next < in.current_index) {
    // Hold the current speed for min_sample_time before dropping.
    time_since_raise_ += dt;
    if (time_since_raise_ < kMinSampleTime) {
      next = in.current_index;
    } else {
      time_since_raise_ = util::seconds(0.0);
    }
  }
  return std::min(next, table.max_index());
}

}  // namespace mobitherm::governors
