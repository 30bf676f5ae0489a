// DVFS (cpufreq/devfreq-style) governors.
//
// A governor is sampled at its own period with the cluster's utilization at
// the *current* frequency and returns the OPP index it requests. The engine
// applies min(request, thermal cap), mirroring how the kernel's cpufreq
// policy is clamped by the thermal framework — the "contradicting
// governors" interaction the paper discusses in Sec. I.
//
// Implemented policies: userspace (a pinned OPP), ondemand, and
// interactive (the Android default the paper names).
#pragma once

#include <algorithm>
#include <cstddef>

#include "platform/opp.h"
#include "util/units.h"

namespace mobitherm::governors {

/// Inputs for one governor decision.
struct CpufreqInputs {
  /// Cluster utilization in [0, 1] at the current OPP, averaged over the
  /// governor's sampling period.
  double utilization = 0.0;
  std::size_t current_index = 0;
};

class CpufreqGovernor {
 public:
  virtual ~CpufreqGovernor() = default;

  virtual const char* name() const = 0;

  /// Time between decisions.
  virtual util::Seconds sampling_period_s() const {
    return util::seconds(0.02);
  }

  /// Requested OPP index for the next interval.
  virtual std::size_t decide(const CpufreqInputs& in,
                             const platform::OppTable& table) = 0;
};

/// Pinned to a caller-chosen OPP.
class Userspace final : public CpufreqGovernor {
 public:
  explicit Userspace(std::size_t index) : index_(index) {}
  const char* name() const override { return "userspace"; }
  std::size_t decide(const CpufreqInputs&,
                     const platform::OppTable& table) override {
    return std::min(index_, table.max_index());
  }

 private:
  std::size_t index_;
};

/// Classic ondemand: jump to max above the up-threshold (0.80), otherwise
/// pick the lowest frequency that keeps utilization at ~up-threshold.
/// Sampled every 50 ms.
class Ondemand final : public CpufreqGovernor {
 public:
  const char* name() const override { return "ondemand"; }
  util::Seconds sampling_period_s() const override;
  std::size_t decide(const CpufreqInputs& in,
                     const platform::OppTable& table) override;
};

/// Android interactive: jump to hispeed_freq (80% of f_max) on load >= 85%,
/// raise further only after above_hispeed_delay (20 ms), size the OPP for a
/// 90% target load, and hold speed for min_sample_time (80 ms) before
/// dropping. Sampled every 20 ms. This is the Nexus 6P default of Sec. III.
class Interactive final : public CpufreqGovernor {
 public:
  const char* name() const override { return "interactive"; }
  util::Seconds sampling_period_s() const override;
  std::size_t decide(const CpufreqInputs& in,
                     const platform::OppTable& table) override;

 private:
  util::Seconds time_above_hispeed_{};
  util::Seconds time_since_raise_{};
};

}  // namespace mobitherm::governors
