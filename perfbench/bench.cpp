#include "bench.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "workload/pack.h"
#include "workload/synthetic.h"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (double s : samples) {
    total += s;
  }
  return total / static_cast<double>(samples.size());
}

namespace {

constexpr double kHistogramMinMs = 1e-3;
constexpr double kHistogramRatio = 1.01;
constexpr std::size_t kHistogramBuckets = 2400;  // 1 us .. ~24 min

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(kHistogramBuckets, 0), sums_(kHistogramBuckets, 0.0) {}

void LatencyHistogram::add(double ms) {
  const double position =
      ms <= kHistogramMinMs
          ? 0.0
          : std::log(ms / kHistogramMinMs) / std::log(kHistogramRatio);
  const std::size_t bucket = std::min(static_cast<std::size_t>(position),
                                      kHistogramBuckets - 1);
  ++counts_[bucket];
  sums_[bucket] += ms;
  ++count_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::ceil(q / 100.0 * static_cast<double>(count_));
  const std::uint64_t target = rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= target) {
      return sums_[b] / static_cast<double>(counts_[b]);
    }
  }
  return 0.0;
}

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. ru_maxrss would
  // also fold in the resident set of the process that spawned the driver
  // (Linux keeps it across fork and exec), which for a Python launcher is
  // larger than the driver's own on the cold workloads.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// ---------------------------------------------------------------------------

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::record(std::uint32_t name, std::uint32_t parent,
                             std::uint64_t request, std::int64_t start_ns,
                             std::int64_t end_ns) {
  if (!enabled_) {
    return kNoSpan;
  }
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::self_ns(std::uint32_t name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) {
      children[s.parent] += s.duration_ns();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(spans_[i].duration_ns() - children[i]);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tname\tparent\trequest\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << names_[s.name] << '\t'
        << (s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent))
        << '\t' << s.request << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void socket_error(const char* what) {
  throw std::runtime_error(std::string("perfbench: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Conn::Conn(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    socket_error("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    socket_error("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  // Sized up front so the buffers do not grow during a timed phase, whose
  // heap growth is charged to the service.
  in_.reserve(256 * 1024);
  out_.reserve(64 * 1024);
}

Conn::~Conn() { ::close(fd_); }

std::string Conn::request(const std::string& line) {
  queue(line);
  while (has_pending_output()) {
    flush();
  }
  std::string response;
  while (!next_line(&response)) {
    if (!read_available()) {
      throw std::runtime_error("perfbench: server closed the connection");
    }
  }
  return response;
}

void Conn::queue(const std::string& line) {
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  out_ += line;
  out_ += '\n';
}

void Conn::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      socket_error("send");
    }
    out_off_ += static_cast<std::size_t>(n);
  }
}

bool Conn::read_available() {
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) {
        return true;
      }
      continue;
    }
    if (n == 0) {
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    if (errno != EINTR) {
      socket_error("recv");
    }
  }
}

bool Conn::next_line(std::string* line) {
  const std::size_t nl = in_.find('\n', in_off_);
  if (nl == std::string::npos) {
    if (in_off_ > 0) {
      in_.erase(0, in_off_);
      in_off_ = 0;
    }
    return false;
  }
  line->assign(in_, in_off_, nl - in_off_);
  in_off_ = nl + 1;
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  }
  return true;
}

// ---------------------------------------------------------------------------

service::ScenarioRegistry make_registry(const std::string& pack_dir) {
  namespace workload = mobitherm::workload;
  auto packs = std::make_shared<workload::PackSet>();
  packs->add(workload::synthetic_stressor_pack());
  const workload::PackSet loaded = workload::load_pack_dir(pack_dir);
  for (const std::string& name : loaded.pack_names()) {
    packs->add(*loaded.find(name));
  }
  service::ScenarioRegistry registry = service::ScenarioRegistry::standard();
  registry.attach_packs(std::move(packs));
  return registry;
}

namespace {

service::ServiceConfig service_config(const StackShape& shape) {
  service::ServiceConfig config;
  config.workers = shape.workers;
  config.queue_capacity = shape.queue_capacity;
  config.cache_capacity = shape.cache_capacity;
  return config;
}

}  // namespace

Stack::Stack(const service::ScenarioRegistry& registry,
             const StackShape& shape)
    : service_(registry, service_config(shape), shape.shards),
      server_(service_),
      net_(server_),
      loop_([this] {
        try {
          net_.run();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: event loop failed: %s\n",
                       e.what());
        }
      }) {}

Stack::~Stack() {
  net_.stop();
  loop_.join();
}

// ---------------------------------------------------------------------------

bool read_u64(std::string_view r, std::string_view key, std::uint64_t* out) {
  std::string marker = "\"";
  marker += key;
  marker += "\":";
  const std::size_t at = r.find(marker);
  if (at == std::string_view::npos) {
    return false;
  }
  std::size_t i = at + marker.size();
  if (i >= r.size() || r[i] < '0' || r[i] > '9') {
    return false;
  }
  std::uint64_t value = 0;
  for (; i < r.size() && r[i] >= '0' && r[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(r[i] - '0');
  }
  *out = value;
  return true;
}

bool has_true(std::string_view r, std::string_view key) {
  std::string marker = "\"";
  marker += key;
  marker += "\":true";
  return r.find(marker) != std::string_view::npos;
}

std::string_view result_payload(std::string_view r) {
  constexpr std::string_view kMarker = ",\"result\":";
  const std::size_t at = r.find(kMarker);
  if (at == std::string_view::npos || r.empty() || r.back() != '}') {
    return {};
  }
  const std::size_t begin = at + kMarker.size();
  return r.substr(begin, r.size() - 1 - begin);
}

}  // namespace perfbench
