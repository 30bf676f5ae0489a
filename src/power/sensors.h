// Power instrumentation models.
//
// RailSensor mimics the INA231 current sensors on the Odroid-XU3 (per-rail,
// ~10 Hz refresh); DaqSimulator mimics the National Instruments DAQ setup
// the paper uses on the Nexus 6P (whole-device power at 1 kHz with
// measurement noise). Both see only the sampled values, like the real
// governors/analysis pipeline would. EnergyCounter integrates true power.
#pragma once

#include <string>
#include <vector>

#include "util/rng.h"
#include "util/sliding_window.h"
#include "util/units.h"

namespace mobitherm::power {

/// Periodic sampling power sensor with Gaussian measurement noise and LSB
/// quantization. Feed the *true* power every simulation tick; the sensor
/// latches a new sample once per period.
class RailSensor {
 public:
  struct Config {
    std::string name = "rail";
    util::Seconds period_s{0.1};    // INA231 default refresh
    util::Watt noise_stddev_w{};    // Gaussian noise on each sample
    util::Watt lsb_w{};             // quantization step; 0 = none
    std::uint64_t seed = 1;
  };

  explicit RailSensor(Config config);

  /// Advance time by dt with true power `watts`; samples are latched on
  /// period boundaries. Raw doubles: sensor-sampling boundary fed from the
  /// per-tick power accounting. MOBILINT: raw-units-ok
  void feed(double dt, double watts);

  /// Most recent latched sample (0 until the first period elapses).
  double last_sample_w() const { return last_sample_w_; }

  /// Duration-weighted mean of latched samples over the trailing 1 s.
  double windowed_w() const { return window_.mean(last_sample_w_); }

  const std::string& name() const { return config_.name; }

 private:
  Config config_;
  util::Xorshift64Star rng_;
  util::SlidingWindow window_{1.0};
  double accum_time_ = 0.0;
  double accum_energy_ = 0.0;
  double last_sample_w_ = 0.0;
  bool has_sample_ = false;
};

/// Whole-device power acquisition at a fixed sampling rate (default 1 kHz),
/// as with the NI PXIe-4081 setup in Sec. III-A. Stores a decimated trace
/// for offline analysis.
class DaqSimulator {
 public:
  struct Config {
    util::Hertz sample_rate_hz{1000.0};
    util::Watt noise_stddev_w{0.01};
    /// Keep every Nth sample in the stored trace (1 = keep all).
    int trace_decimation = 100;
    std::uint64_t seed = 2;
  };

  explicit DaqSimulator(Config config);

  void feed(double dt, double watts);

  double last_sample_w() const { return last_sample_w_; }
  double mean_power_w() const;
  std::size_t num_samples() const { return num_samples_; }

  /// Decimated (time, power) trace.
  const std::vector<std::pair<double, double>>& trace() const {
    return trace_;
  }

 private:
  Config config_;
  util::Xorshift64Star rng_;
  double now_ = 0.0;
  double next_sample_at_ = 0.0;
  double last_sample_w_ = 0.0;
  double sum_samples_ = 0.0;
  std::size_t num_samples_ = 0;
  std::vector<std::pair<double, double>> trace_;
};

/// Exact energy integration of true power (joules).
class EnergyCounter {
 public:
  void add(double dt, double watts) {
    energy_j_ += dt * watts;
    time_s_ += dt;
  }
  double energy_j() const { return energy_j_; }
  double mean_power_w() const {
    return time_s_ > 0.0 ? energy_j_ / time_s_ : 0.0;
  }
  double elapsed_s() const { return time_s_; }
  void reset() {
    energy_j_ = 0.0;
    time_s_ = 0.0;
  }

 private:
  double energy_j_ = 0.0;
  double time_s_ = 0.0;
};

}  // namespace mobitherm::power
