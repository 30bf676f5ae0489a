// The benchmark's workloads: request streams generated from the seed, and
// the round runner that drives one fresh service stack through set-up and
// the timed phase, checking every response.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// A scenario x app x policy cell of the request streams.
struct Cell {
  const char* scenario;
  const char* app;
  const char* policy;
  bool bml;
};

/// One cell per scenario x policy: the warm-up of cold_submit and
/// paper_sweep, and the cells the traced run measures engine by engine.
inline constexpr Cell kPolicyCells[] = {
    {"nexus", "paperio", "throttled", false},
    {"nexus", "paperio", "unthrottled", false},
    {"odroid", "threedmark", "none", true},
    {"odroid", "threedmark", "default", true},
    {"odroid", "threedmark", "proposed", true},
};

/// The plain request of `cell` for `duration_s` simulated seconds.
service::SimRequest make_request(const Cell& cell, double duration_s,
                                 std::uint64_t seed);

/// One timed operation as the client issues it.
struct Op {
  std::string line;  // the submit or compare request line
  /// Plain requests the op runs: one for a submit, one per lane for a
  /// wide submit, none for a compare.
  std::vector<service::SimRequest> lanes;
  bool compare = false;
  /// Compare ops: index of the earlier identical op whose verdict this one
  /// must reproduce from the cache, byte for byte; -1 for a first run.
  int repeat_of = -1;
  /// Compare ops: the seed schedule's base and the seeds run per arm.
  std::uint64_t base_seed = 0;
  int seeds = 0;
};

struct Plan {
  std::string workload;
  StackShape shape;
  double duration_s = 2.0;  // simulated seconds of every plain request
  /// Untimed set-up submits, run closed loop through the socket: one per
  /// scenario x policy cell (cold_submit, paper_sweep) or the cache fill
  /// (warm_zipf).
  std::vector<Op> setup;
  /// The timed phase (cold_submit, paper_sweep).
  std::vector<Op> ops;
  /// The timed phase of warm_zipf: for each op, the index of the set-up
  /// request it hits.
  std::vector<std::uint32_t> hits;
  std::size_t connections = 1;
  std::size_t window = 1;  // ops in flight per connection
  /// Set-up requests whose canonical key equals a timed one (must be 0).
  std::size_t setup_collisions = 0;
};

/// The workload's request stream for one round. `seed` is the round's
/// seed (see run_rounds); the same seed gives the same stream.
Plan make_plan(const std::string& workload, std::uint64_t seed,
               const service::ScenarioRegistry& registry);

/// A request line of the traced round, kept for the layer replay.
struct LineRecord {
  std::string request;
  std::string response;
  /// The plain request of a single submit line (points into the plan).
  const service::SimRequest* sim = nullptr;
  std::size_t op = 0;
};

/// A plain request run closed loop through the socket with an idle queue:
/// its op span and the payload it returned.
struct ColdSample {
  service::SimRequest request;
  std::uint32_t op_span = kNoSpan;
  std::string payload;
};

/// A plain result the round produced (job id on the round's stack).
struct ResultSample {
  service::SimRequest request;
  std::uint64_t job = 0;
};

struct Round {
  std::shared_ptr<const Plan> plan;
  std::unique_ptr<Stack> stack;
  double setup_s = 0.0;
  double timed_s = 0.0;
  /// Op latencies, reserved before the timed phase; run_rounds() folds
  /// them into the open block and frees them when the round ends.
  std::vector<double> latency_ms;
  std::size_t completed = 0;  // ops timed
  std::size_t attempted = 0;
  std::size_t failed = 0;   // ops with a failed check, refusals included
  std::size_t refused = 0;  // queue_full rejections
  /// Simulated seconds the engine executed in the timed phase (served
  /// from the cache on warm_zipf).
  double sim_s = 0.0;
  /// Order-independent digest of every payload byte the timed phase got;
  /// the same for the same round seed.
  std::uint64_t digest = 0;
  std::size_t compares_run = 0;  // compares whose verdict was computed
  service::ServiceStats before;
  service::ServiceStats after;
  std::vector<service::ServiceStats> shards_before;
  std::vector<service::ServiceStats> shards_after;
  /// Heap in use around the timed phase. On an untraced round the growth
  /// is the service's own: the benchmark's buffers are reserved before.
  std::size_t heap_before = 0;
  std::size_t heap_after = 0;

  // Filled only when tracing.
  std::vector<LineRecord> lines;
  std::vector<ColdSample> cold;
  std::vector<ResultSample> results;
  std::vector<double> busy_frac;    // sampled share of busy workers
  std::vector<double> queue_depth;  // sampled queued
};

/// The tail percentile of `workload`'s latency_tail_ms: the highest that
/// keeps at least 10 samples beyond it in a block and held steady across
/// runs.
double tail_percentile(const std::string& workload);

/// Consecutive rounds pooled until they hold enough ops for the tail
/// percentile to have at least 10 samples beyond it. The end-to-end
/// figures are medians over a run's blocks, so a stall of the host that
/// slows one block moves the median little.
struct Block {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double ops_per_s = 0.0;
  double sim_s_per_s = 0.0;
};

/// Rounds of one kind (untraced or traced) and their blocks.
struct RoundSet {
  std::vector<Round> rounds;
  std::vector<Block> blocks;
  double timed_s = 0.0;
  std::size_t ops = 0;
  /// Set-up keys equal to a timed key, over every round's plan (must be 0).
  std::size_t setup_collisions = 0;

  /// Median over the blocks of one of their figures.
  double block_median(double Block::*figure) const;
};

/// Workload packs the registry loads on set-up, relative to the checkout.
inline constexpr const char* kPackDir = "examples/packs";

/// Rounds until `budget_s` of timed work, at least `min_rounds`, and the
/// last block complete, numbered from `first_round`. Round r runs
/// make_plan(workload, splitmix64(seed + r)): every round is a different
/// stream from the same seed, so the seed-specific structure of one
/// stream (how its keys hash across shards) averages out over a run. Each
/// round does its set-up (registry and pack load, a fresh stack,
/// connections, the set-up requests) and then its timed phase. One stack
/// is up at a time and the last round's stays up for the layer replay.
/// Between rounds the freed heap goes back to the system (malloc_trim), so
/// the peak resident set reflects one round, not how many rounds a run
/// made. A traced set keeps only the last round's spans.
RoundSet run_rounds(const std::string& workload, std::uint64_t seed,
                    std::size_t first_round, Tracer& tracer, double budget_s,
                    std::size_t min_rounds);

}  // namespace perfbench
