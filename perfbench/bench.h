// Shared pieces of the end-to-end benchmark driver: timing and
// percentile helpers, the in-memory span tracer, the loopback NDJSON
// client, and the in-process service stack one round runs against.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/net_server.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/shard.h"

namespace perfbench {

namespace service = mobitherm::service;

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile, q in (0, 100]; 0 for no samples.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}
double mean(const std::vector<double>& samples);

/// Latencies pooled in 1% log buckets, each keeping its count and sum, so
/// a run holds constant memory however many rounds it makes. A percentile
/// reads as the mean of the samples in the bucket of its nearest rank.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double ms);
  std::size_t count() const { return count_; }
  /// q in (0, 100]; 0 when empty.
  double percentile(double q) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::size_t count_ = 0;
};

/// Operator-new calls counted while counting is switched on (the
/// replacement operator new lives in main.cpp; off costs one branch).
std::uint64_t allocations();
void count_allocations(bool on);

/// Heap bytes in use (every malloc arena), for growth measurements.
std::size_t heap_in_use_bytes();

/// Peak resident set of the process so far (VmHWM), MiB.
double peak_rss_mb();

/// One reported metric; `samples` is how many measurements it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // e.g. which percentile
};

// ---------------------------------------------------------------------------
// Spans

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One traced interval: a layer boundary crossed for one request.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoSpan;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
};

/// Spans kept in memory while the benchmark runs and written out at exit.
/// Disabled, record() is one branch and stores nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Interned id of a span name.
  std::uint32_t name_id(const std::string& name);

  /// Records a finished span; returns its index, or kNoSpan when
  /// disabled.
  std::uint32_t record(std::uint32_t name, std::uint32_t parent,
                       std::uint64_t request, std::int64_t start_ns,
                       std::int64_t end_ns);

  /// Opens a span starting now (so children can name it as parent before
  /// it ends); end() closes it. Both are no-ops when disabled.
  std::uint32_t begin(std::uint32_t name, std::uint32_t parent,
                      std::uint64_t request) {
    return enabled_ ? record(name, parent, request, now_ns(), 0) : kNoSpan;
  }
  void end(std::uint32_t span) {
    if (span != kNoSpan) {
      spans_[span].end_ns = now_ns();
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Drops the spans recorded so far (names stay interned).
  void clear() { spans_ = std::vector<Span>(); }

  /// Self time (ns) of every span with this name: its duration minus the
  /// durations of its child spans.
  std::vector<double> self_ns(std::uint32_t name) const;

  /// Writes one tab-separated line per span; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Loopback NDJSON client

/// One non-blocking TCP connection to the stack's NetServer. The client
/// busy-polls it rather than sleeping in the kernel: on a VM, waking a
/// halted vCPU costs up to milliseconds when the host is loaded, and that
/// wake-up jitter, not the server, then dominated the measured latency.
/// The server's own threads block as they always do. Throws
/// std::runtime_error on socket errors.
class Conn {
 public:
  explicit Conn(int port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one request line and spins until its response line arrives.
  std::string request(const std::string& line);

  /// Queues a request line (newline appended) for flush().
  void queue(const std::string& line);
  bool has_pending_output() const { return out_off_ < out_.size(); }
  /// Writes as much queued output as the socket takes.
  void flush();
  /// Reads what is available; false once the peer closed.
  bool read_available();
  /// Pops one complete response line from the read buffer.
  bool next_line(std::string* line);

 private:
  int fd_ = -1;
  std::string in_;
  std::size_t in_off_ = 0;
  std::string out_;
  std::size_t out_off_ = 0;
};

// ---------------------------------------------------------------------------
// Service stack

struct StackShape {
  unsigned shards = 1;
  unsigned workers = 1;  // per shard
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 1024;
};

/// Scenario registry as the serve binary wires it: the standard scenarios
/// plus the built-in synthetic pack and the packs in `pack_dir`.
service::ScenarioRegistry make_registry(const std::string& pack_dir);

/// ShardedService -> SimServer -> NetServer on an ephemeral loopback port,
/// with the event loop on its own thread. Built fresh for every round so
/// the job table and the caches start empty.
class Stack {
 public:
  Stack(const service::ScenarioRegistry& registry, const StackShape& shape);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return net_.port(); }
  service::ShardedService& service() { return service_; }
  service::SimServer& server() { return server_; }

 private:
  service::ShardedService service_;
  service::SimServer server_;
  service::NetServer net_;
  std::thread loop_;
};

// ---------------------------------------------------------------------------
// Response parsing (the protocol's fixed member order, see server.cpp)

inline bool response_ok(std::string_view r) {
  return r.rfind("{\"ok\":true", 0) == 0;
}
/// Unsigned integer member `"key":N`; false when absent.
bool read_u64(std::string_view r, std::string_view key, std::uint64_t* out);
/// True when the response holds `"key":true`.
bool has_true(std::string_view r, std::string_view key);
/// The payload a `result` response splices in verbatim (empty if none).
std::string_view result_payload(std::string_view r);

}  // namespace perfbench
