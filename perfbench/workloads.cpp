#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <set>
#include <stdexcept>

#include "util/hash.h"
#include "util/json.h"
#include "util/seed_schedule.h"

namespace perfbench {
namespace {

namespace json = mobitherm::util::json;
using mobitherm::util::fnv1a64;
using mobitherm::util::fnv1a64_bytes;
using mobitherm::util::splitmix64;
using service::SimRequest;

/// The cold request cycle: nexus x {throttled, unthrottled} x the 7 apps,
/// then odroid x {none, default, proposed} x both apps, with BML.
std::vector<Cell> request_cells() {
  std::vector<Cell> cells;
  for (const char* app : {"paperio", "stickman_hook", "amazon", "hangouts",
                          "facebook", "youtube", "navigation"}) {
    for (const char* policy : {"throttled", "unthrottled"}) {
      cells.push_back({"nexus", app, policy, false});
    }
  }
  for (const char* app : {"threedmark", "nenamark"}) {
    for (const char* policy : {"none", "default", "proposed"}) {
      cells.push_back({"odroid", app, policy, true});
    }
  }
  return cells;
}

constexpr double kRequestSimS = 2.0;
constexpr double kWarmupSimS = 4.0;
/// Ten passes over the 20-cell cycle, so every round has the same mix.
constexpr std::size_t kColdOpsPerRound = 200;
constexpr std::size_t kWarmKeys = 32;
/// Fixed, so the never-pruned job table grows by the same amount per round
/// whatever the front end's speed.
constexpr std::size_t kWarmOpsPerRound = 80000;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kWideSeeds = 8;
constexpr int kCompareSeeds = 4;

/// Traced rounds keep this many request lines (and their responses) for
/// the layer replay.
constexpr std::size_t kMaxRecordedLines = 4000;
constexpr std::size_t kMaxColdSamples = 48;

json::Value request_fields(const SimRequest& r) {
  json::Value v = json::Value::object();
  v.set("scenario", json::Value::string(r.scenario));
  v.set("app", json::Value::string(r.app));
  v.set("policy", json::Value::string(r.policy));
  v.set("with_bml", json::Value::boolean(r.with_bml));
  v.set("duration_s", json::Value::number(r.duration_s));
  return v;
}

Op submit_op(const SimRequest& r, std::size_t seeds = 1) {
  json::Value v = json::Value::object();
  v.set("op", json::Value::string("submit"));
  const json::Value fields = request_fields(r);
  for (const auto& [key, value] : fields.members()) {
    v.set(key, value);
  }
  v.set("seed", json::Value::number(static_cast<double>(r.seed)));
  if (seeds > 1) {
    v.set("seeds", json::Value::number(static_cast<double>(seeds)));
  }
  Op op;
  op.line = v.dump();
  for (std::size_t k = 0; k < seeds; ++k) {
    SimRequest lane = r;
    lane.seed = r.seed + k;
    op.lanes.push_back(lane);
  }
  return op;
}

/// The Sec. IV-C policy comparison (none / default / proposed with BML)
/// over `seeds` seeds per arm from `base_seed`'s schedule; min = max seeds,
/// so the work per compare does not depend on when the CIs separate.
Op compare_op(std::uint64_t base_seed, int seeds) {
  json::Value arms = json::Value::array();
  for (const char* policy : {"none", "default", "proposed"}) {
    arms.push(request_fields(make_request({"odroid", "threedmark", policy, true},
                                          kRequestSimS, 0)));
  }
  json::Value v = json::Value::object();
  v.set("op", json::Value::string("compare"));
  v.set("arms", arms);
  v.set("metric", json::Value::string("median_fps"));
  v.set("max_seeds", json::Value::number(seeds));
  v.set("min_seeds", json::Value::number(seeds));
  v.set("round_seeds", json::Value::number(kCompareSeeds));
  v.set("base_seed", json::Value::number(static_cast<double>(base_seed)));
  Op op;
  op.line = v.dump();
  op.compare = true;
  op.base_seed = base_seed;
  op.seeds = seeds;
  return op;
}

std::string wait_line(std::uint64_t job) {
  return "{\"op\":\"wait\",\"job\":" + std::to_string(job) +
         ",\"timeout_s\":60}";
}

std::string result_line(std::uint64_t job) {
  return "{\"op\":\"result\",\"job\":" + std::to_string(job) + "}";
}

std::uint64_t mix_digest(std::size_t op, std::uint64_t payload_hash) {
  return splitmix64(payload_hash ^ (op * 0x9e3779b97f4a7c15ULL));
}

/// Canonical keys of every plain request the timed phase runs.
std::set<std::string> timed_keys(const Plan& plan,
                                 const service::ScenarioRegistry& registry) {
  std::set<std::string> keys;
  for (const Op& op : plan.ops) {
    for (const SimRequest& lane : op.lanes) {
      keys.insert(registry.canonical_key(lane));
    }
    if (op.compare) {
      const mobitherm::util::SeedSchedule schedule(op.base_seed);
      for (const char* policy : {"none", "default", "proposed"}) {
        for (int i = 0; i < op.seeds; ++i) {
          keys.insert(registry.canonical_key(make_request(
              {"odroid", "threedmark", policy, true}, kRequestSimS,
              schedule.at(static_cast<std::uint64_t>(i)))));
        }
      }
    }
  }
  return keys;
}

}  // namespace

SimRequest make_request(const Cell& cell, double duration_s,
                        std::uint64_t seed) {
  SimRequest r;
  r.scenario = cell.scenario;
  r.app = cell.app;
  r.policy = cell.policy;
  r.with_bml = cell.bml;
  r.duration_s = duration_s;
  r.seed = seed;
  return r;
}

double tail_percentile(const std::string& workload) {
  return workload == "warm_zipf" ? 99.0
         : workload == "cold_submit" ? 95.0
                                     : 90.0;
}

double RoundSet::block_median(double Block::*figure) const {
  std::vector<double> values;
  for (const Block& b : blocks) {
    values.push_back(b.*figure);
  }
  return median(std::move(values));
}

Plan make_plan(const std::string& workload, std::uint64_t seed,
               const service::ScenarioRegistry& registry) {
  Plan plan;
  plan.workload = workload;
  plan.duration_s = kRequestSimS;
  // Seeds below 2^40 stay exact as JSON numbers.
  const std::uint64_t base = splitmix64(seed) >> 24;
  const std::vector<Cell> cells = request_cells();
  if (workload == "cold_submit") {
    plan.shape = StackShape{1, 1, 16, 1024};
    // Timed seeds are base + 2k, warm-up seeds base + 2c + 1.
    for (std::size_t c = 0; c < std::size(kPolicyCells); ++c) {
      plan.setup.push_back(submit_op(
          make_request(kPolicyCells[c], kWarmupSimS, base + 2 * c + 1)));
    }
    for (std::size_t k = 0; k < kColdOpsPerRound; ++k) {
      plan.ops.push_back(submit_op(
          make_request(cells[k % cells.size()], kRequestSimS, base + 2 * k)));
    }
  } else if (workload == "warm_zipf") {
    plan.shape = StackShape{2, 1, 64, 256};
    plan.connections = 4;
    plan.window = 16;
    for (std::size_t k = 0; k < kWarmKeys; ++k) {
      plan.setup.push_back(submit_op(
          make_request(cells[k % cells.size()], kRequestSimS, base + k)));
    }
    std::vector<double> cdf(kWarmKeys);
    double total = 0.0;
    for (std::size_t i = 0; i < kWarmKeys; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf[i] = total;
    }
    const std::uint64_t stream = splitmix64(seed ^ 0x5eed5eed5eedULL);
    for (std::size_t i = 0; i < kWarmOpsPerRound; ++i) {
      const double u =
          mobitherm::util::hash_to_unit(splitmix64(stream + i)) * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      plan.hits.push_back(
          static_cast<std::uint32_t>(std::min(rank, kWarmKeys - 1)));
    }
  } else if (workload == "paper_sweep") {
    plan.shape = StackShape{2, 1, 64, 4096};
    plan.window = 2;
    // Timed wide submits take lanes base + 16k .. + 7, warm-up requests
    // base + 16c + 8.
    for (std::size_t c = 0; c < std::size(kPolicyCells); ++c) {
      plan.setup.push_back(submit_op(
          make_request(kPolicyCells[c], kWarmupSimS, base + 16 * c + 8)));
    }
    std::vector<Cell> table1;
    for (const char* app :
         {"paperio", "stickman_hook", "amazon", "hangouts", "facebook"}) {
      for (const char* policy : {"throttled", "unthrottled"}) {
        table1.push_back({"nexus", app, policy, false});
      }
    }
    // Wide Table I sweeps (W) interleaved with compares: each base seed is
    // compared cold (c), then over twice the seeds so the first half of
    // every arm's lanes are cache hits (C), then repeated verbatim so the
    // verdict itself is served from the cache (r).
    const char* const kTemplate[] = {"W", "c0", "W", "W", "c1", "W",
                                     "C0", "W", "W", "C1", "W", "r0",
                                     "W", "W", "r1", "W"};
    const std::uint64_t compare_base[] = {base + 1000003, base + 1000004};
    int first_compare[2] = {-1, -1};
    std::size_t wide = 0;
    for (const char* step : kTemplate) {
      const std::string s = step;
      if (s == "W") {
        plan.ops.push_back(submit_op(
            make_request(table1[wide % table1.size()], kRequestSimS,
                         base + 16 * wide),
            kWideSeeds));
        ++wide;
        continue;
      }
      const int j = s[1] - '0';
      Op op = compare_op(compare_base[j], s[0] == 'C' ? 2 * kCompareSeeds
                                                      : kCompareSeeds);
      if (s[0] == 'c') {
        first_compare[j] = static_cast<int>(plan.ops.size());
      } else if (s[0] == 'r') {
        op.repeat_of = first_compare[j];
      }
      plan.ops.push_back(std::move(op));
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  // warm_zipf's timed keys are its fill, by design.
  const std::set<std::string> keys = timed_keys(plan, registry);
  for (const Op& op : plan.setup) {
    plan.setup_collisions += keys.count(registry.canonical_key(op.lanes[0]));
  }
  return plan;
}

namespace {

class Runner {
 public:
  Runner(const Plan& plan, Tracer& tracer, Round& round)
      : plan_(plan),
        tracer_(tracer),
        round_(round),
        op_name_(tracer.name_id("op")),
        line_name_(tracer.name_id("net.line")) {}

  /// Set-up, then the timed phase; the stack stays up in the round.
  void run() {
    const std::int64_t t0 = now_ns();
    const service::ScenarioRegistry registry = make_registry(kPackDir);
    round_.stack = std::make_unique<Stack>(registry, plan_.shape);
    for (std::size_t c = 0; c < plan_.connections; ++c) {
      conns_.push_back(std::make_unique<Conn>(round_.stack->port()));
    }
    for (std::size_t i = 0; i < plan_.setup.size(); ++i) {
      Plain p;
      run_plain(*conns_[0], plan_.setup[i], i, &p);
      setup_payloads_.push_back(p.payload);
      setup_hashes_.push_back(fnv1a64(p.payload));
      if (tracer_.enabled()) {
        round_.cold.push_back({plan_.setup[i].lanes[0], p.span, p.payload});
        round_.results.push_back({plan_.setup[i].lanes[0], p.job});
      }
    }
    round_.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    service::ShardedService& svc = round_.stack->service();
    round_.before = svc.stats();
    round_.shards_before = svc.shard_stats();
    round_.latency_ms.reserve(plan_.ops.size() + plan_.hits.size());
    round_.heap_before = heap_in_use_bytes();
    const std::int64_t t1 = now_ns();
    if (plan_.workload == "cold_submit") {
      timed_cold();
    } else if (plan_.workload == "warm_zipf") {
      timed_warm();
    } else {
      timed_paper();
    }
    round_.timed_s = static_cast<double>(now_ns() - t1) * 1e-9;
    round_.heap_after = heap_in_use_bytes();
    round_.after = svc.stats();
    round_.shards_after = svc.shard_stats();
    const std::size_t hits = round_.after.cache.hits - round_.before.cache.hits;
    const std::size_t misses =
        round_.after.cache.misses - round_.before.cache.misses;
    if (plan_.workload == "warm_zipf" &&
        !check(misses == 0, 0, "every timed lookup hits the cache")) {
      ++round_.failed;
    }
    if (plan_.workload == "cold_submit" &&
        !check(hits == 0, 0, "no timed lookup hits the cache")) {
      ++round_.failed;
    }
    if (plan_.workload == "paper_sweep") {
      round_.sim_s += static_cast<double>(round_.after.compare_lane_runs -
                                          round_.before.compare_lane_runs) *
                      plan_.duration_s;
    }
    conns_.clear();
  }

 private:
  struct Plain {
    std::string payload;
    std::uint64_t job = 0;
    std::uint32_t span = kNoSpan;
    double latency_ms = 0.0;
  };

  bool check(bool cond, std::size_t op, const char* what) {
    if (!cond && ++logged_ <= 10) {
      std::fprintf(stderr, "perfbench: %s: op %zu failed check: %s\n",
                   plan_.workload.c_str(), op, what);
    }
    return cond;
  }

  void count_op(bool ok) {
    ++round_.attempted;
    if (!ok) {
      ++round_.failed;
    }
  }

  bool recording() const {
    return tracer_.enabled() && round_.lines.size() < kMaxRecordedLines;
  }

  void note_response(const std::string& response) {
    if (response.find("\"code\":\"queue_full\"") != std::string::npos) {
      ++round_.refused;
    }
  }

  /// One blocking request line, traced as a net.line child of `parent`.
  std::string call(Conn& c, const std::string& line, std::uint32_t parent,
                   std::size_t op, const SimRequest* sim) {
    const std::uint32_t span = tracer_.begin(line_name_, parent, op);
    std::string response = c.request(line);
    tracer_.end(span);
    note_response(response);
    if (recording()) {
      round_.lines.push_back({line, response, sim, op});
    }
    return response;
  }

  /// submit -> wait -> result for one plain request that must run cold.
  void run_plain(Conn& c, const Op& op, std::size_t index, Plain* out) {
    const std::int64_t t0 = now_ns();
    out->span = tracer_.begin(op_name_, kNoSpan, index);
    std::string r = call(c, op.line, out->span, index, &op.lanes[0]);
    bool ok = check(response_ok(r) && read_u64(r, "job", &out->job),
                    index, "submit accepted");
    ok = check(r.find("\"cached\":false") != std::string::npos, index,
               "submit ran cold (cached:false)") && ok;
    if (ok) {
      r = call(c, wait_line(out->job), out->span, index, nullptr);
      ok = check(response_ok(r) && has_true(r, "done") &&
                     r.find("\"state\":\"done\"") != std::string::npos,
                 index, "job done");
    }
    if (ok) {
      r = call(c, result_line(out->job), out->span, index, nullptr);
      out->payload = std::string(result_payload(r));
      ok = check(response_ok(r) && !out->payload.empty(), index,
                 "result returned");
    }
    tracer_.end(out->span);
    out->latency_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    count_op(ok);
  }

  void sample_stats() {
    if (!tracer_.enabled()) {
      return;
    }
    // `running` counts lanes, so a lockstep group on one worker counts
    // several; a shard's workers are busy up to their number.
    double busy = 0.0;
    double queued = 0.0;
    const auto shards = round_.stack->service().shard_stats();
    for (const service::ServiceStats& s : shards) {
      busy += static_cast<double>(std::min<std::size_t>(s.running, s.workers)) /
              static_cast<double>(s.workers);
      queued += static_cast<double>(s.queued);
    }
    round_.busy_frac.push_back(busy / static_cast<double>(shards.size()));
    round_.queue_depth.push_back(queued);
  }

  void timed_cold() {
    for (std::size_t i = 0; i < plan_.ops.size(); ++i) {
      sample_stats();
      Plain p;
      run_plain(*conns_[0], plan_.ops[i], i, &p);
      round_.latency_ms.push_back(p.latency_ms);
      round_.digest += mix_digest(i, fnv1a64(p.payload));
      round_.sim_s += plan_.duration_s;
      if (tracer_.enabled() && round_.cold.size() < kMaxColdSamples) {
        round_.cold.push_back({plan_.ops[i].lanes[0], p.span, p.payload});
        round_.results.push_back({plan_.ops[i].lanes[0], p.job});
      }
    }
  }

  /// Pipelined submit -> result hits over every connection, `window` ops
  /// in flight on each, busy-polling the connections in turn; responses
  /// come back in order per connection.
  void timed_warm() {
    struct Pending {
      std::size_t op;
      bool result_stage;
      std::uint32_t line_span;
      std::string line;
    };
    const std::size_t n = plan_.hits.size();
    const std::size_t conns = conns_.size();
    std::vector<std::deque<Pending>> pending(conns);
    std::vector<std::int64_t> op_start(n, 0);
    std::vector<std::uint32_t> op_span(n, kNoSpan);
    std::vector<char> op_ok(n, 1);
    std::size_t next = 0;
    std::size_t done = 0;
    const bool tracing = tracer_.enabled();

    auto send = [&](std::size_t c, std::size_t op, bool result_stage,
                    std::string line) {
      Pending p{op, result_stage, kNoSpan, {}};
      if (recording() && op < kMaxRecordedLines / 2) {
        p.line_span = tracer_.begin(line_name_, op_span[op], op);
        p.line = line;
      }
      conns_[c]->queue(line);
      pending[c].push_back(std::move(p));
    };
    auto start_op = [&](std::size_t c) {
      const std::size_t op = next++;
      op_start[op] = now_ns();
      op_span[op] = tracer_.begin(op_name_, kNoSpan, op);
      send(c, op, false, plan_.setup[plan_.hits[op]].line);
    };
    for (std::size_t c = 0; c < conns; ++c) {
      for (std::size_t w = 0; w < plan_.window && next < n; ++w) {
        start_op(c);
      }
      conns_[c]->flush();
    }

    std::string response;
    std::int64_t last_progress = now_ns();
    while (done < n) {
      if (now_ns() - last_progress > 30'000'000'000LL) {
        throw std::runtime_error("perfbench: warm_zipf stalled");
      }
      for (std::size_t c = 0; c < conns; ++c) {
        if (!conns_[c]->read_available()) {
          throw std::runtime_error("perfbench: server closed a connection");
        }
        while (conns_[c]->next_line(&response)) {
          if (pending[c].empty()) {
            throw std::runtime_error("perfbench: unrequested response line");
          }
          Pending p = std::move(pending[c].front());
          pending[c].pop_front();
          tracer_.end(p.line_span);
          note_response(response);
          if (p.line_span != kNoSpan) {
            round_.lines.push_back(
                {std::move(p.line), response,
                 p.result_stage ? nullptr
                                : &plan_.setup[plan_.hits[p.op]].lanes[0],
                 p.op});
          }
          const std::size_t key = plan_.hits[p.op];
          if (!p.result_stage) {
            std::uint64_t job = 0;
            const bool ok =
                check(response_ok(response) &&
                          read_u64(response, "job", &job) &&
                          has_true(response, "cached"),
                      p.op, "submit served from the cache");
            if (ok) {
              send(c, p.op, true, result_line(job));
              continue;
            }
            op_ok[p.op] = 0;
          } else {
            const std::string_view payload = result_payload(response);
            op_ok[p.op] = check(response_ok(response) &&
                                    payload == setup_payloads_[key],
                                p.op, "hit bytes equal the set-up bytes");
            // Equal bytes, equal hash: reuse the set-up payload's.
            round_.digest += mix_digest(
                p.op, op_ok[p.op] != 0 ? setup_hashes_[key]
                                       : fnv1a64(payload));
          }
          tracer_.end(op_span[p.op]);
          round_.latency_ms.push_back(
              static_cast<double>(now_ns() - op_start[p.op]) * 1e-6);
          count_op(op_ok[p.op] != 0);
          round_.sim_s += plan_.duration_s;
          ++done;
          if (tracing && done % 1024 == 0) {
            sample_stats();
          }
          if (next < n) {
            start_op(c);
          }
          last_progress = now_ns();
        }
        conns_[c]->flush();
      }
    }
  }

  /// Closed loop with `window` ops in flight on one connection: submit the
  /// next op, then block on the oldest op's jobs (wait is handled inline
  /// on the event loop, which is safe with a single connection).
  void timed_paper() {
    struct InFlight {
      std::size_t op;
      std::uint32_t span;
      std::int64_t t0;
      std::vector<std::uint64_t> jobs;
      bool ok;
    };
    Conn& c = *conns_[0];
    std::deque<InFlight> inflight;
    std::vector<std::string> verdicts(plan_.ops.size());

    auto submit = [&](std::size_t i) {
      const Op& op = plan_.ops[i];
      InFlight f{i, tracer_.begin(op_name_, kNoSpan, i), now_ns(), {}, true};
      const std::string r = call(c, op.line, f.span, i, nullptr);
      if (op.compare) {
        std::uint64_t job = 0;
        f.ok = check(response_ok(r) && read_u64(r, "job", &job), i,
                     "compare accepted");
        const bool cached = has_true(r, "cached");
        f.ok = check(cached == (op.repeat_of >= 0), i,
                     op.repeat_of >= 0 ? "repeated verdict served cached"
                                       : "new verdict computed") &&
               f.ok;
        if (!cached) {
          ++round_.compares_run;
        }
        f.jobs.push_back(job);
      } else {
        bool ok = response_ok(r);
        if (ok) {
          const json::Value v = json::Value::parse(r);
          const json::Value* jobs = v.find("jobs");
          ok = jobs != nullptr && jobs->items().size() == op.lanes.size();
          for (std::size_t k = 0; ok && k < jobs->items().size(); ++k) {
            const json::Value& lane = jobs->items()[k];
            ok = lane.find("accepted")->as_bool() &&
                 !lane.find("cached")->as_bool();
            f.jobs.push_back(
                static_cast<std::uint64_t>(lane.find("job")->as_number()));
          }
        }
        f.ok = check(ok, i, "every wide lane accepted and cold");
      }
      inflight.push_back(std::move(f));
      sample_stats();
    };

    auto complete = [&] {
      InFlight f = std::move(inflight.front());
      inflight.pop_front();
      const Op& op = plan_.ops[f.op];
      std::uint64_t hash = mobitherm::util::kFnv1aOffsetBasis64;
      for (std::size_t k = 0; k < f.jobs.size() && f.ok; ++k) {
        std::string r = call(c, wait_line(f.jobs[k]), f.span, f.op, nullptr);
        f.ok = check(response_ok(r) && has_true(r, "done") &&
                         r.find("\"state\":\"done\"") != std::string::npos,
                     f.op, "job done");
        if (!f.ok) {
          break;
        }
        r = call(c, result_line(f.jobs[k]), f.span, f.op, nullptr);
        const std::string_view payload = result_payload(r);
        f.ok = check(response_ok(r) && !payload.empty(), f.op,
                     "result returned");
        hash = fnv1a64_bytes(payload.data(), payload.size(), hash);
        if (op.compare && op.repeat_of < 0) {
          verdicts[f.op] = std::string(payload);
        } else if (op.compare) {
          f.ok = check(payload == verdicts[static_cast<std::size_t>(
                                      op.repeat_of)],
                       f.op, "repeated verdict byte-identical") &&
                 f.ok;
        } else if (tracer_.enabled()) {
          round_.results.push_back({op.lanes[k], f.jobs[k]});
        }
      }
      tracer_.end(f.span);
      round_.latency_ms.push_back(static_cast<double>(now_ns() - f.t0) *
                                  1e-6);
      round_.digest += mix_digest(f.op, hash);
      round_.sim_s += static_cast<double>(op.lanes.size()) * plan_.duration_s;
      count_op(f.ok);
      sample_stats();
    };

    for (std::size_t i = 0; i < plan_.ops.size(); ++i) {
      if (inflight.size() == plan_.window) {
        complete();
      }
      submit(i);
    }
    while (!inflight.empty()) {
      complete();
    }
  }

  const Plan& plan_;
  Tracer& tracer_;
  Round& round_;
  std::uint32_t op_name_;
  std::uint32_t line_name_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::string> setup_payloads_;
  std::vector<std::uint64_t> setup_hashes_;
  int logged_ = 0;
};

}  // namespace

RoundSet run_rounds(const std::string& workload, std::uint64_t seed,
                    std::size_t first_round, Tracer& tracer, double budget_s,
                    std::size_t min_rounds) {
  const service::ScenarioRegistry registry = make_registry(kPackDir);
  const double tail = tail_percentile(workload);
  const auto block_ops = static_cast<std::size_t>(
      std::ceil(10.0 / (1.0 - tail / 100.0) - 1e-6));
  RoundSet set;
  LatencyHistogram block_latency;
  double block_s = 0.0;
  double block_sim_s = 0.0;
  while (set.rounds.size() < min_rounds || set.timed_s < budget_s ||
         block_latency.count() > 0) {
    if (!set.rounds.empty()) {
      Round& prev = set.rounds.back();
      prev.stack.reset();
      prev.plan.reset();
      // Assigning fresh vectors (not `= {}`, which keeps the capacity)
      // releases the memory.
      prev.lines = std::vector<LineRecord>();
      prev.cold = std::vector<ColdSample>();
      prev.results = std::vector<ResultSample>();
      ::malloc_trim(0);
    }
    const std::size_t index = first_round + set.rounds.size();
    auto plan = std::make_shared<const Plan>(
        make_plan(workload, splitmix64(seed + index), registry));
    set.setup_collisions += plan->setup_collisions;
    // The replay reads only the last round's spans; keeping earlier
    // rounds' would grow the tracer by ~1 MiB a round on warm_zipf.
    tracer.clear();
    set.rounds.emplace_back();
    Round& round = set.rounds.back();
    round.plan = std::move(plan);
    Runner(*round.plan, tracer, round).run();
    for (double ms : round.latency_ms) {
      block_latency.add(ms);
    }
    round.completed = round.latency_ms.size();
    round.latency_ms = std::vector<double>();
    set.timed_s += round.timed_s;
    set.ops += round.completed;
    block_s += round.timed_s;
    block_sim_s += round.sim_s;
    if (block_latency.count() >= block_ops) {
      const double ops = static_cast<double>(block_latency.count());
      set.blocks.push_back({block_latency.percentile(50.0),
                            block_latency.percentile(tail), ops / block_s,
                            block_sim_s / block_s});
      block_latency = LatencyHistogram();
      block_s = 0.0;
      block_sim_s = 0.0;
    }
  }
  return set;
}

}  // namespace perfbench
