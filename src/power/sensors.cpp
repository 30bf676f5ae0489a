#include "power/sensors.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::power {

using util::ConfigError;

RailSensor::RailSensor(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.period_s <= util::seconds(0.0)) {
    throw ConfigError("RailSensor: period must be positive");
  }
}

void RailSensor::feed(double dt, double watts) {
  if (dt <= 0.0) {
    return;
  }
  const double period_s = config_.period_s.value();
  accum_time_ += dt;
  accum_energy_ += dt * watts;
  while (accum_time_ >= period_s) {
    // Latch the average true power over the elapsed period, plus noise.
    double sample = accum_energy_ / accum_time_;
    if (config_.noise_stddev_w > util::watts(0.0)) {
      sample += rng_.normal(0.0, config_.noise_stddev_w.value());
    }
    if (config_.lsb_w > util::watts(0.0)) {
      sample = std::round(sample / config_.lsb_w.value()) *
               config_.lsb_w.value();
    }
    sample = std::max(0.0, sample);
    last_sample_w_ = sample;
    has_sample_ = true;
    window_.push(period_s, sample);
    accum_time_ -= period_s;
    accum_energy_ = watts * accum_time_;
  }
}

DaqSimulator::DaqSimulator(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.sample_rate_hz <= util::hertz(0.0)) {
    throw ConfigError("DaqSimulator: sample rate must be positive");
  }
  if (config_.trace_decimation <= 0) {
    throw ConfigError("DaqSimulator: trace decimation must be positive");
  }
}

void DaqSimulator::feed(double dt, double watts) {
  if (dt <= 0.0) {
    return;
  }
  const double period = (1.0 / config_.sample_rate_hz).value();
  const double end = now_ + dt;
  while (next_sample_at_ <= end) {
    double sample = watts;
    if (config_.noise_stddev_w > util::watts(0.0)) {
      sample += rng_.normal(0.0, config_.noise_stddev_w.value());
    }
    sample = std::max(0.0, sample);
    last_sample_w_ = sample;
    sum_samples_ += sample;
    if (num_samples_ % static_cast<std::size_t>(config_.trace_decimation) ==
        0) {
      trace_.emplace_back(next_sample_at_, sample);
    }
    ++num_samples_;
    next_sample_at_ += period;
  }
  now_ = end;
}

double DaqSimulator::mean_power_w() const {
  return num_samples_ > 0 ? sum_samples_ / static_cast<double>(num_samples_)
                          : 0.0;
}

}  // namespace mobitherm::power
