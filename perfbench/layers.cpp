#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "service/result_cache.h"
#include "sim/batch.h"
#include "sim/metrics.h"
#include "sim/report.h"
#include "util/units.h"
#include "workload/pack.h"

namespace perfbench {
namespace {

using service::SimRequest;

/// Budget of the line replay, so a traced run stays short.
constexpr double kLineReplaySeconds = 1.5;
/// The runaway guard every service job runs with (ServiceConfig default).
constexpr double kServiceGuardC = 150.0;

/// Metric names of the cells in kPolicyCells.
constexpr const char* kCellNames[] = {"nexus_throttled", "nexus_unthrottled",
                                      "odroid_none", "odroid_default",
                                      "odroid_proposed"};
static_assert(std::size(kCellNames) == std::size(kPolicyCells));

class Layers {
 public:
  Layers(const Plan& plan, Tracer& tracer, std::vector<Metric>* out,
         std::size_t* failed)
      : plan_(plan), tracer_(tracer), out_(out), failed_(failed) {}

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "") {
    out_->push_back(Metric{name, value, unit, samples, note});
  }

  void check(bool cond, const char* what) {
    if (!cond) {
      ++*failed_;
      std::fprintf(stderr, "perfbench: %s: replay check failed: %s\n",
                   plan_.workload.c_str(), what);
    }
  }

  /// Records a span of `name` from t0 to now (its index into `*id`) and
  /// returns its duration in ns.
  double lap(const char* name, std::uint32_t parent, std::uint64_t request,
             std::int64_t t0, std::uint32_t* id = nullptr) {
    const std::int64_t t1 = now_ns();
    const std::uint32_t span =
        tracer_.record(tracer_.name_id(name), parent, request, t0, t1);
    if (id != nullptr) {
      *id = span;
    }
    return static_cast<double>(t1 - t0);
  }

  // --- socket -> server -> json / shard -----------------------------------
  void replay_lines(Stack& stack, const Round& round) {
    Conn conn(stack.port());
    std::vector<double> self_us, submit_hit_us, result_us, parse_us, dump_us,
        prepare_us;
    const std::uint32_t net_name = tracer_.name_id("replay.net");
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(kLineReplaySeconds * 1e9);
    for (const LineRecord& rec : round.lines) {
      if (now_ns() > deadline) {
        break;
      }
      std::int64_t t = now_ns();
      const std::string net_response = conn.request(rec.request);
      std::uint32_t net = kNoSpan;
      lap("replay.net", kNoSpan, rec.op, t, &net);

      t = now_ns();
      const std::string response = stack.server().handle_line(rec.request);
      std::uint32_t line = kNoSpan;
      const double line_us =
          lap("server.handle_line", net, rec.op, t, &line) * 1e-3;
      const bool is_result = rec.request.rfind("{\"op\":\"result\"", 0) == 0;
      if (is_result) {
        result_us.push_back(line_us);
        check(response == rec.response && net_response == rec.response,
              "replayed result bytes equal the timed response");
      } else if (rec.request.rfind("{\"op\":\"submit\"", 0) == 0 &&
                 response.find("\"cached\":false") == std::string::npos &&
                 has_true(response, "cached")) {
        submit_hit_us.push_back(line_us);
      }

      for (const std::string* text : {&rec.request, &rec.response}) {
        t = now_ns();
        const service::json::Value v = service::json::Value::parse(*text);
        parse_us.push_back(lap("json.parse", line, rec.op, t) * 1e-3);
        t = now_ns();
        const std::string dumped = v.dump();
        dump_us.push_back(lap("json.dump", line, rec.op, t) * 1e-3);
        check(!dumped.empty(), "json dump");
      }
      if (rec.sim != nullptr) {
        t = now_ns();
        const service::PreparedRequest prepared =
            stack.service().shard(0).prepare(*rec.sim);
        prepare_us.push_back(lap("shard.prepare", line, rec.op, t) * 1e-3);
        check(prepared.valid, "prepare");
      }
    }
    for (double ns : tracer_.self_ns(net_name)) {
      self_us.push_back(ns * 1e-3);
    }
    add("net_server.self_us_p50", median(self_us), "us", self_us.size());
    add("server.handle_line_us_p50.submit_hit", median(submit_hit_us), "us",
        submit_hit_us.size());
    add("server.handle_line_us_p50.result", median(result_us), "us",
        result_us.size());
    add("json.parse_us_p50", median(parse_us), "us", parse_us.size());
    add("json.dump_us_p50", median(dump_us), "us", dump_us.size());
    add("shard.prepare_us_p50", median(prepare_us), "us", prepare_us.size());
  }

  // --- result cache --------------------------------------------------------
  void replay_cache(Stack& stack, const Round& round) {
    struct Entry {
      std::uint64_t key;
      std::string canonical;
      std::shared_ptr<const service::JobResult> result;
    };
    std::vector<Entry> entries;
    std::map<std::uint64_t, std::size_t> index;
    for (const ResultSample& s : round.results) {
      const service::PreparedRequest p =
          stack.service().shard(0).prepare(s.request);
      if (index.count(p.key) != 0) {
        continue;
      }
      std::shared_ptr<const service::JobResult> result =
          stack.service().result(s.job);
      check(result != nullptr, "result held by the service");
      if (result == nullptr) {
        continue;
      }
      index[p.key] = entries.size();
      entries.push_back({p.key, p.canonical, std::move(result)});
    }
    // Lookup order: the warm stream's Zipf keys, else each result once.
    std::vector<std::size_t> order;
    if (!plan_.hits.empty()) {
      const std::size_t n = std::min<std::size_t>(plan_.hits.size(), 4096);
      order.assign(plan_.hits.begin(), plan_.hits.begin() + n);
    } else {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        order.push_back(i);
      }
    }
    std::vector<double> insert_ns, lookup_ns, serialize_us;
    if (!entries.empty() && !order.empty()) {
      for (int rep = 0; rep < 30; ++rep) {
        service::ResultCache cache(entries.size());
        std::int64_t t = now_ns();
        for (const Entry& e : entries) {
          cache.insert(e.key, e.canonical, e.result);
        }
        insert_ns.push_back(lap("result_cache.insert", kNoSpan, rep, t) /
                            static_cast<double>(entries.size()));
        std::size_t hits = 0;
        t = now_ns();
        for (std::size_t k : order) {
          const Entry& e = entries[k];
          hits += cache.lookup(e.key, e.canonical) != nullptr ? 1 : 0;
        }
        lookup_ns.push_back(lap("result_cache.lookup", kNoSpan, rep, t) /
                            static_cast<double>(order.size()));
        check(hits == order.size(), "every replayed lookup hits");
      }
    }
    double payload_bytes = 0.0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const service::JobResult& r = *entries[i].result;
      payload_bytes += static_cast<double>(r.payload.size());
      const std::int64_t t = now_ns();
      const std::string payload = service::serialize_result(r.metrics, r.report);
      serialize_us.push_back(lap("result_cache.serialize", kNoSpan, i, t) *
                             1e-3);
      check(payload == r.payload, "re-serialized payload is byte-identical");
    }
    add("result_cache.lookup_ns_p50", median(lookup_ns), "ns",
        lookup_ns.size(), "mean per lookup, p50 over repetitions");
    add("result_cache.insert_ns_p50", median(insert_ns), "ns",
        insert_ns.size(), "mean per insert, p50 over repetitions");
    add("result_cache.serialize_us", median(serialize_us), "us",
        serialize_us.size(), "p50");
    add("result_cache.payload_bytes",
        entries.empty() ? 0.0 : payload_bytes / entries.size(), "bytes",
        entries.size(), "mean");
  }

  // --- in-process execution of the cold socket requests -------------------
  void replay_exec(Stack& stack, const Round& round) {
    const service::ScenarioRegistry& registry = stack.service().registry();
    const mobitherm::sim::MetricsOptions options =
        stack.service().shard(0).config().metrics;
    std::vector<double> summarize_us, overhead_ms;
    for (std::size_t i = 0; i < round.cold.size(); ++i) {
      const ColdSample& s = round.cold[i];
      const SimRequest resolved = registry.resolve(s.request);
      std::int64_t t = now_ns();
      std::unique_ptr<mobitherm::sim::Engine> engine =
          registry.make_engine(resolved);
      double exec_ns = lap("registry.make_engine", s.op_span, i, t);
      engine->set_runaway_guard(
          registry.runaway_guard_temp_k(resolved, kServiceGuardC));
      mobitherm::sim::MetricsObserver tap(options);
      engine->add_observer(&tap);
      t = now_ns();
      // One-simulated-second slices, as the service worker runs them.
      for (double left = resolved.duration_s; left > 0.0; left -= 1.0) {
        engine->run(std::min(1.0, left));
      }
      exec_ns += lap("engine.run", s.op_span, i, t);
      t = now_ns();
      const mobitherm::sim::RunMetrics metrics = tap.metrics(*engine);
      const mobitherm::sim::RunReport report =
          mobitherm::sim::make_report(*engine, options.temp_limit_c);
      const double summarize_ns = lap("sim.summarize", s.op_span, i, t);
      summarize_us.push_back(summarize_ns * 1e-3);
      exec_ns += summarize_ns;
      t = now_ns();
      const std::string payload = service::serialize_result(metrics, report);
      exec_ns += lap("result_cache.serialize", s.op_span, i, t);
      check(payload == s.payload,
            "in-process run reproduces the socket payload bytes");
      if (s.op_span != kNoSpan) {
        overhead_ms.push_back(
            (tracer_.spans()[s.op_span].duration_ns() - exec_ns) * 1e-6);
      }
    }
    add("sim.summarize_us", median(summarize_us), "us", summarize_us.size(),
        "p50");
    add("service.exec_overhead_ms", median(overhead_ms), "ms",
        overhead_ms.size(), "p50");
  }

  // --- counters of the timed phases ----------------------------------------
  /// Heap growth per accepted submit, on the untraced rounds: their timed
  /// phase grows no buffer of the benchmark's, so what grows is the
  /// service's (its never-pruned job table).
  void heap_per_submit(const std::vector<Round>& untraced) {
    std::vector<double> bytes;
    for (const Round& r : untraced) {
      const double submits =
          static_cast<double>(r.after.submitted - r.before.submitted);
      if (submits > 0) {
        bytes.push_back((static_cast<double>(r.heap_after) -
                         static_cast<double>(r.heap_before)) /
                        submits);
      }
    }
    add("service.rss_bytes_per_submit", median(bytes), "bytes", bytes.size(),
        "heap growth / accepted submits, p50 of untraced rounds");
  }

  void round_counters(const std::vector<Round>& traced) {
    std::vector<double> busy, depth;
    double hits = 0.0, lookups = 0.0, lane_hits = 0.0, lane_runs = 0.0,
           compares = 0.0;
    std::vector<double> per_shard;
    for (const Round& r : traced) {
      busy.insert(busy.end(), r.busy_frac.begin(), r.busy_frac.end());
      depth.insert(depth.end(), r.queue_depth.begin(), r.queue_depth.end());
      const double h = static_cast<double>(r.after.cache.hits -
                                           r.before.cache.hits);
      hits += h;
      lookups += h + static_cast<double>(r.after.cache.misses -
                                         r.before.cache.misses);
      lane_hits += static_cast<double>(r.after.compare_lane_hits -
                                       r.before.compare_lane_hits);
      lane_runs += static_cast<double>(r.after.compare_lane_runs -
                                       r.before.compare_lane_runs);
      compares += static_cast<double>(r.compares_run);
      per_shard.resize(r.shards_after.size(), 0.0);
      for (std::size_t s = 0; s < r.shards_after.size(); ++s) {
        const auto& a = r.shards_after[s].cache;
        const auto& b = r.shards_before[s].cache;
        per_shard[s] += static_cast<double>((a.hits + a.misses) -
                                            (b.hits + b.misses));
      }
    }
    const double shard_mean = mean(per_shard);
    add("shard.lane_imbalance",
        shard_mean > 0 ? *std::max_element(per_shard.begin(), per_shard.end()) /
                             shard_mean
                       : 0.0,
        "ratio", per_shard.size(), "max/mean cache lookups per shard");
    add("result_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
        "ratio", static_cast<std::size_t>(lookups));
    add("service.worker_busy_frac", mean(busy), "ratio", busy.size(),
        "mean of sampled busy workers / workers");
    add("service.queue_depth_mean", mean(depth), "count", depth.size(),
        "mean of sampled queued");
    add("compare.lane_hit_ratio",
        lane_hits + lane_runs > 0 ? lane_hits / (lane_hits + lane_runs) : 0.0,
        "ratio", static_cast<std::size_t>(lane_hits + lane_runs));
    add("compare.seeds_per_arm",
        compares > 0 ? (lane_hits + lane_runs) / (3.0 * compares) : 0.0,
        "count", static_cast<std::size_t>(compares));
  }

  // --- engine-level paths, cell by cell ------------------------------------
  void engine_paths() {
    const service::ScenarioRegistry registry = make_registry(kPackDir);
    std::vector<double> allocs;
    std::vector<double> power_ns, alloc_ns;
    for (std::size_t c = 0; c < std::size(kPolicyCells); ++c) {
      const Cell& cell = kPolicyCells[c];
      const SimRequest request = registry.resolve(make_request(cell, 1.0, 7));
      std::vector<double> make_us, run_us;
      for (int rep = 0; rep < 15; ++rep) {
        const std::int64_t t = now_ns();
        const auto engine = registry.make_engine(request);
        make_us.push_back(lap("registry.make_engine", kNoSpan, c, t) * 1e-3);
      }
      std::unique_ptr<mobitherm::sim::Engine> engine;
      for (int rep = 0; rep < 5; ++rep) {
        engine = registry.make_engine(request);
        const std::uint64_t a0 = allocations();
        count_allocations(true);
        const std::int64_t t = now_ns();
        engine->run(1.0);
        run_us.push_back(lap("engine.run", kNoSpan, c, t) * 1e-3);
        count_allocations(false);
        allocs.push_back(static_cast<double>(allocations() - a0));
      }
      add(std::string("registry.make_engine_us.") + kCellNames[c],
          median(make_us), "us", make_us.size(), "p50");
      const double us_per_sim_s = median(run_us);
      add(std::string("engine.us_per_sim_s.") + kCellNames[c], us_per_sim_s,
          "us", run_us.size(), "p50 of Engine::run(1.0)");
      // One cell per board for the stage costs.
      if (c == 0 || c == 3) {
        stage_paths(*engine, cell.scenario, us_per_sim_s, &power_ns,
                    &alloc_ns);
      }
    }
    add("engine.allocs_per_sim_s", mean(allocs), "count", allocs.size(),
        "mean over cells");
    add("power.cluster_power_ns", median(power_ns), "ns", power_ns.size(),
        "p50");
    add("sched.allocate_ns", median(alloc_ns), "ns", alloc_ns.size(), "p50");
    add("thermal.tick_share", mean(tick_shares_), "ratio",
        tick_shares_.size(), "thermal step / engine tick, mean of boards");
    lockstep(registry);
    std::vector<double> load_ms;
    for (int rep = 0; rep < 10; ++rep) {
      const std::int64_t t = now_ns();
      const auto packs = mobitherm::workload::load_pack_dir(kPackDir);
      load_ms.push_back(lap("pack.load", kNoSpan, rep, t) * 1e-6);
      check(!packs.pack_names().empty(), "packs loaded");
    }
    add("pack.load_ms", median(load_ms), "ms", load_ms.size(), "p50");
  }

  /// Power, scheduler and thermal-step costs on an engine that has run one
  /// simulated second (its state is scratch afterwards).
  void stage_paths(mobitherm::sim::Engine& engine, const std::string& board,
                   double tick_ns, std::vector<double>* power_ns,
                   std::vector<double>* alloc_ns) {
    volatile double sink = 0.0;
    const std::size_t clusters = engine.soc().num_clusters();
    std::vector<mobitherm::power::ClusterActivity> activity(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      activity[c].busy_cores = engine.scheduler().cluster_busy_cores(c);
      activity[c].temp_k =
          engine.network().temperature(engine.soc().cluster(c).thermal_node);
    }
    constexpr int kCalls = 4000;
    for (int rep = 0; rep < 5; ++rep) {
      std::int64_t t = now_ns();
      double total = 0.0;
      for (int i = 0; i < kCalls; ++i) {
        for (std::size_t c = 0; c < clusters; ++c) {
          total += engine.power_model()
                       .cluster_power(engine.soc(), c, activity[c])
                       .total()
                       .value();
        }
      }
      sink = sink + total;
      power_ns->push_back(lap("power.cluster_power", kNoSpan, rep, t) /
                          static_cast<double>(kCalls * clusters));
      t = now_ns();
      for (int i = 0; i < kCalls; ++i) {
        engine.scheduler().allocate(engine.soc(), 0.001);
      }
      alloc_ns->push_back(lap("sched.allocate", kNoSpan, rep, t) / kCalls);
    }
    const mobitherm::linalg::Vector power(engine.network().num_nodes(), 1.0);
    std::vector<double> step_ns;
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t = now_ns();
      for (int i = 0; i < kCalls; ++i) {
        engine.network().step(power, mobitherm::util::Seconds(0.001));
      }
      step_ns.push_back(lap("thermal.step", kNoSpan, rep, t) / kCalls);
    }
    sink = sink + engine.network().temperatures()[0];
    const double step = median(step_ns);
    add("thermal.step_ns." + board, step, "ns", step_ns.size(), "p50");
    // One tick is 1 ms of simulated time: us per sim-s = ns per tick.
    tick_shares_.push_back(step / tick_ns);
  }

  /// BatchRunner lane throughput at lockstep width 8 over width 1, one
  /// thread, the same eight seeds, alternating the two widths.
  void lockstep(const service::ScenarioRegistry& registry) {
    constexpr double kLaneSimS = 2.0;
    const mobitherm::sim::EngineFactory factory =
        [&registry](std::size_t, std::uint64_t seed) {
          return registry.make_engine(
              make_request(kPolicyCells[0], 1.0, seed));
        };
    const mobitherm::sim::BatchRunner scalar({1, 1});
    const mobitherm::sim::BatchRunner fused({1, 8});
    std::vector<double> scalar_s, fused_s;
    for (int rep = 0; rep < 5; ++rep) {
      for (const auto* runner : {&scalar, &fused}) {
        const std::int64_t t = now_ns();
        const auto records = runner->run(8, 11, kLaneSimS, factory);
        const bool width1 = runner == &scalar;
        (width1 ? scalar_s : fused_s)
            .push_back(lap(width1 ? "lockstep.width1" : "lockstep.width8",
                           kNoSpan, rep, t));
        check(records.size() == 8, "lockstep batch ran every lane");
      }
    }
    add("lockstep.lane_speedup", median(scalar_s) / median(fused_s), "ratio",
        scalar_s.size(), "width 8 over width 1, 8 lanes x 2 sim-s, p50s");
  }

  void tracing_overhead(const RoundSet& untraced, const RoundSet& traced) {
    add("trace.overhead.latency_p50_ms",
        traced.block_median(&Block::p50_ms) -
            untraced.block_median(&Block::p50_ms),
        "ms", traced.ops, "traced minus untraced block medians");
    add("trace.overhead.ops_per_s",
        traced.block_median(&Block::ops_per_s) -
            untraced.block_median(&Block::ops_per_s),
        "1/s", traced.ops, "traced minus untraced block medians");
  }

 private:
  const Plan& plan_;
  Tracer& tracer_;
  std::vector<Metric>* out_;
  std::size_t* failed_;
  std::vector<double> tick_shares_;
};

}  // namespace

void measure_layers(const RoundSet& untraced, RoundSet& traced,
                    Tracer& tracer, std::vector<Metric>* out,
                    std::size_t* failed) {
  Round& last = traced.rounds.back();
  Layers layers(*last.plan, tracer, out, failed);
  layers.replay_lines(*last.stack, last);
  layers.replay_cache(*last.stack, last);
  layers.replay_exec(*last.stack, last);
  last.stack.reset();
  layers.round_counters(traced.rounds);
  layers.heap_per_submit(untraced.rounds);
  layers.engine_paths();
  layers.tracing_overhead(untraced, traced);
}

}  // namespace perfbench
