// End-to-end benchmark driver for the mobitherm service stack.
//
//   perfbench_driver --workload cold_submit|warm_zipf|paper_sweep
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs from the repository root (it loads examples/packs). Each round
// builds a fresh in-process ShardedService -> SimServer -> NetServer,
// connects over loopback TCP, runs the untimed set-up and then the timed
// request stream, checking every response. Rounds repeat until --seconds
// of timed work is done. The last stdout line is the JSON result: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// README.md in this directory gives each workload's reason and the map
// from layer metrics to end-to-end metrics.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "util/hash.h"
#include "workloads.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0.0) || o->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      o->trace = value == "1";
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && o->seconds > 0.0 &&
         (o->workload == "cold_submit" || o->workload == "warm_zipf" ||
          o->workload == "paper_sweep");
}

void print_metric(const Metric& m) {
  std::printf("  %-42s %14.6g %-6s n=%zu%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
              m.note.c_str());
}

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
           buf + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<Metric> end_to_end(const std::string& workload,
                               const RoundSet& set) {
  std::vector<double> setup;
  for (const Round& r : set.rounds) {
    setup.push_back(r.setup_s);
  }
  const std::size_t n = set.ops;
  const std::size_t blocks = set.blocks.size();
  const double tail = tail_percentile(workload);
  char block_note[64];
  std::snprintf(block_note, sizeof(block_note), "median of %zu blocks",
                blocks);
  char tail_note[128];
  std::snprintf(tail_note, sizeof(tail_note),
                "p%g, %.0f samples beyond it per block; %s", tail,
                static_cast<double>(n) * (1.0 - tail / 100.0) /
                    static_cast<double>(blocks),
                block_note);
  return {
      {"setup_s", median(setup), "s", setup.size(), "median of rounds"},
      {"latency_p50_ms", set.block_median(&Block::p50_ms), "ms", n,
       block_note},
      {"latency_tail_ms", set.block_median(&Block::tail_ms), "ms", n,
       tail_note},
      {"ops_per_s", set.block_median(&Block::ops_per_s), "1/s", n,
       block_note},
      {"sim_s_per_s", set.block_median(&Block::sim_s_per_s), "1/s", n,
       workload == "warm_zipf" ? "served from the cache"
                               : "executed by the engine"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM"},
  };
}

int run(const Options& options) {
  RoundSet untraced;
  RoundSet traced;
  std::vector<Metric> metrics;
  std::size_t failed = 0;
  Tracer tracer(options.trace);
  if (!options.trace) {
    // At least three rounds, for a set-up median.
    untraced = run_rounds(options.workload, options.seed, 0, tracer,
                          options.seconds, 3);
    untraced.rounds.back().stack.reset();
    metrics = end_to_end(options.workload, untraced);
  } else {
    Tracer off(false);
    untraced = run_rounds(options.workload, options.seed, 0, off,
                          options.seconds / 2, 1);
    untraced.rounds.back().stack.reset();
    traced = run_rounds(options.workload, options.seed,
                        untraced.rounds.size(), tracer, options.seconds / 2,
                        1);
    measure_layers(untraced, traced, tracer, &metrics, &failed);
    if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  }

  std::size_t attempted = 0;
  std::size_t refused = 0;
  for (const RoundSet* set : {&untraced, &traced}) {
    failed += set->setup_collisions;
    for (const Round& r : set->rounds) {
      attempted += r.attempted;
      failed += r.failed;
      refused += r.refused;
    }
  }
  // Digest of every payload byte of the first rounds, which every run of
  // this seed makes.
  const std::size_t digest_rounds = std::min<std::size_t>(
      untraced.rounds.size(), 3);
  std::uint64_t digest = 0;
  for (std::size_t r = 0; r < digest_rounds; ++r) {
    digest = mobitherm::util::splitmix64(digest ^ untraced.rounds[r].digest);
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("perfbench %s seed=%" PRIu64 " rounds=%zu traced_rounds=%zu "
              "attempted=%zu failed=%zu refused=%zu "
              "payload_digest(rounds 0-%zu)=%016" PRIx64 "\n",
              options.workload.c_str(), options.seed, untraced.rounds.size(),
              traced.rounds.size(), attempted, failed, refused,
              digest_rounds - 1, digest);
  for (const Metric& m : metrics) {
    print_metric(m);
  }
  std::printf("%s\n", json_result(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_args(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload cold_submit|warm_zipf|paper_sweep "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
