#include "obs/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/sync.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/workers.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SENIDS_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace senids::obs {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void append_format(std::string& out, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list measured;
  va_copy(measured, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measured);
  va_end(measured);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt, args);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      append_format(out, "\\u%04x", static_cast<unsigned>(c) & 0xff);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Value of the first gauge registered under `family` with exactly
/// `labels` ("" = unlabelled). 0 when absent — callers treat 0 as "not
/// configured" and skip the dependent check.
std::int64_t gauge_value(const std::vector<MetricView>& views, std::string_view family,
                         std::string_view labels = "") {
  for (const MetricView& m : views) {
    if (m.family == family && m.labels == labels && m.gauge) return m.gauge->value();
  }
  return 0;
}

std::uint64_t counter_value(const std::vector<MetricView>& views,
                            std::string_view family) {
  for (const MetricView& m : views) {
    if (m.family == family && m.counter) return m.counter->value();
  }
  return 0;
}

}  // namespace

// ------------------------------------------------------------------ health

HealthReport evaluate_health(const HealthThresholds& t) {
  const std::vector<MetricView> views = Registry::instance().metrics();
  HealthReport report;
  std::string checks;
  auto check = [&](std::string_view name, bool ok, const std::string& detail) {
    if (!ok) report.healthy = false;
    append_format(checks, "%s    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                  checks.empty() ? "" : ",\n", std::string(name).c_str(),
                  ok ? "true" : "false", json_escape(detail).c_str());
  };

  // Unit queue: saturated when depth reaches the configured fraction of
  // capacity. Capacity gauge unset => no engine ran a capture; nothing
  // to judge.
  const std::int64_t unit_cap = gauge_value(views, "senids_unit_queue_capacity");
  if (unit_cap > 0) {
    const std::int64_t depth = gauge_value(views, "senids_queue_depth");
    const bool ok =
        static_cast<double>(depth) < t.queue_saturation * static_cast<double>(unit_cap);
    std::string detail;
    append_format(detail, "depth %lld of %lld", static_cast<long long>(depth),
                  static_cast<long long>(unit_cap));
    check("unit_queue", ok, detail);
  }

  // Per-shard dispatch queues against the shared capacity gauge.
  const std::int64_t shard_cap = gauge_value(views, "senids_shard_packet_queue_capacity");
  if (shard_cap > 0) {
    for (const MetricView& m : views) {
      if (m.family != "senids_shard_packet_queue_depth" || !m.gauge) continue;
      const std::int64_t depth = m.gauge->value();
      const bool ok = static_cast<double>(depth) <
                      t.queue_saturation * static_cast<double>(shard_cap);
      std::string detail;
      append_format(detail, "%s depth %lld of %lld", std::string(m.labels).c_str(),
                    static_cast<long long>(depth), static_cast<long long>(shard_cap));
      check("shard_queue", ok, detail);
    }
  }

  // Flow-table occupancy against the configured cap (0 = uncapped).
  const std::int64_t max_flows = gauge_value(views, "senids_flow_table_max_flows");
  if (max_flows > 0) {
    const std::int64_t flows = gauge_value(views, "senids_flow_table_flows");
    const bool ok =
        static_cast<double>(flows) < t.flow_occupancy * static_cast<double>(max_flows);
    std::string detail;
    append_format(detail, "flows %lld of %lld", static_cast<long long>(flows),
                  static_cast<long long>(max_flows));
    check("flow_table", ok, detail);
  }

  // Heartbeats: an active loop that stopped stamping progress is stalled
  // (blocked consumer, livelocked shard), which no gauge shows directly.
  for (const WorkerSlot::Snapshot& w : WorkerTable::instance().snapshot()) {
    if (!w.active || w.seconds_since_heartbeat < 0) continue;
    if (w.seconds_since_heartbeat <= t.heartbeat_stale_seconds) continue;
    std::string detail;
    append_format(detail, "%s %zu last heartbeat %.1fs ago", w.kind.c_str(), w.index,
                  w.seconds_since_heartbeat);
    check("heartbeat", false, detail);
  }

  std::string out = "{\n";
  append_format(out, "  \"status\": \"%s\",\n  \"live\": true,\n",
                report.healthy ? "healthy" : "unhealthy");
  out += "  \"checks\": [\n" + checks + (checks.empty() ? "" : "\n") + "  ]\n}\n";
  report.json = std::move(out);
  return report;
}

// ------------------------------------------------------------------ statusz

namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Touched at static-init/first-use so uptime starts near process start.
const bool g_epoch_initialized = (process_epoch(), true);

}  // namespace

std::string status_json(const std::string& build_info) {
  (void)g_epoch_initialized;
  const std::vector<MetricView> views = Registry::instance().metrics();
  std::string out = "{\n";
  append_format(out, "  \"uptime_seconds\": %.3f,\n",
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              process_epoch())
                    .count());
  append_format(out, "  \"build_info\": \"%s\",\n", json_escape(build_info).c_str());

  append_format(out,
                "  \"pipeline\": {\"packets\": %llu, \"suspicious\": %llu, "
                "\"units\": %llu, \"frames\": %llu, \"alerts\": %llu, "
                "\"bytes_analyzed\": %llu},\n",
                static_cast<unsigned long long>(counter_value(views, "senids_packets_total")),
                static_cast<unsigned long long>(
                    counter_value(views, "senids_suspicious_packets_total")),
                static_cast<unsigned long long>(counter_value(views, "senids_units_total")),
                static_cast<unsigned long long>(counter_value(views, "senids_frames_total")),
                static_cast<unsigned long long>(counter_value(views, "senids_alerts_total")),
                static_cast<unsigned long long>(
                    counter_value(views, "senids_bytes_analyzed_total")));

  append_format(out,
                "  \"unit_queue\": {\"depth\": %lld, \"depth_peak\": %lld, "
                "\"capacity\": %lld, \"bytes\": %lld},\n",
                static_cast<long long>(gauge_value(views, "senids_queue_depth")),
                static_cast<long long>(gauge_value(views, "senids_unit_queue_depth_peak")),
                static_cast<long long>(gauge_value(views, "senids_unit_queue_capacity")),
                static_cast<long long>(gauge_value(views, "senids_queue_bytes")));

  // Per-shard series, keyed by the shard="<i>" label.
  out += "  \"shards\": [\n";
  bool first_shard = true;
  for (const MetricView& m : views) {
    if (m.family != "senids_shard_packet_queue_depth" || !m.gauge) continue;
    const std::string labels(m.labels);
    if (!first_shard) out += ",\n";
    first_shard = false;
    std::int64_t peak = 0;
    std::uint64_t packets = 0;
    std::uint64_t units = 0;
    std::int64_t flows = 0;
    for (const MetricView& v : views) {
      if (v.labels != m.labels) continue;
      if (v.family == "senids_shard_packet_queue_depth_peak" && v.gauge) {
        peak = v.gauge->value();
      } else if (v.family == "senids_shard_packets_total" && v.counter) {
        packets = v.counter->value();
      } else if (v.family == "senids_shard_units_total" && v.counter) {
        units = v.counter->value();
      } else if (v.family == "senids_shard_flows" && v.gauge) {
        flows = v.gauge->value();
      }
    }
    // labels is shard="<i>"; pull the quoted value back out.
    std::string shard_id = labels;
    const std::size_t eq = shard_id.find('=');
    if (eq != std::string::npos) {
      shard_id = shard_id.substr(eq + 1);
      std::erase(shard_id, '"');
    }
    append_format(out,
                  "    {\"shard\": %s, \"queue_depth\": %lld, "
                  "\"queue_depth_peak\": %lld, \"packets\": %llu, \"units\": %llu, "
                  "\"flows\": %lld}",
                  shard_id.c_str(), static_cast<long long>(m.gauge->value()),
                  static_cast<long long>(peak), static_cast<unsigned long long>(packets),
                  static_cast<unsigned long long>(units), static_cast<long long>(flows));
  }
  out += first_shard ? "  ],\n" : "\n  ],\n";

  // Worker attribution: the per-thread busy/idle split, plus utilization
  // = busy / (busy + idle) — "where is worker wall time going".
  out += "  \"workers\": [\n";
  const std::vector<WorkerSlot::Snapshot> workers = WorkerTable::instance().snapshot();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerSlot::Snapshot& w = workers[i];
    const double attributed = w.busy_seconds + w.idle_seconds;
    append_format(out,
                  "    {\"kind\": \"%s\", \"index\": %zu, \"active\": %s, "
                  "\"busy_seconds\": %.6f, \"idle_seconds\": %.6f, "
                  "\"utilization\": %.4f, \"units\": %llu, "
                  "\"seconds_since_heartbeat\": %.3f, \"run_seconds\": %.6f}%s\n",
                  json_escape(w.kind).c_str(), w.index, w.active ? "true" : "false",
                  w.busy_seconds, w.idle_seconds,
                  attributed > 0 ? w.busy_seconds / attributed : 0.0,
                  static_cast<unsigned long long>(w.units), w.seconds_since_heartbeat,
                  w.run_seconds, i + 1 < workers.size() ? "," : "");
  }
  out += "  ],\n";

  const std::uint64_t hits = counter_value(views, "senids_verdict_cache_hits_total");
  const std::uint64_t misses = counter_value(views, "senids_verdict_cache_misses_total");
  append_format(out,
                "  \"verdict_cache\": {\"hits\": %llu, \"misses\": %llu, "
                "\"bypass\": %llu, \"hit_rate\": %.4f, \"entries\": %lld, "
                "\"bytes\": %lld},\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(
                    counter_value(views, "senids_verdict_cache_bypass_total")),
                hits + misses > 0
                    ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                    : 0.0,
                static_cast<long long>(gauge_value(views, "senids_verdict_cache_entries")),
                static_cast<long long>(gauge_value(views, "senids_verdict_cache_bytes")));

  append_format(
      out,
      "  \"flows\": {\"live\": %lld, \"max\": %lld, \"created\": %llu, "
      "\"evicted_idle\": %llu, \"evicted_overflow\": %llu, \"truncated\": %llu},\n",
      static_cast<long long>(gauge_value(views, "senids_flow_table_flows")),
      static_cast<long long>(gauge_value(views, "senids_flow_table_max_flows")),
      static_cast<unsigned long long>(counter_value(views, "senids_flows_created_total")),
      static_cast<unsigned long long>(
          counter_value(views, "senids_flows_evicted_idle_total")),
      static_cast<unsigned long long>(
          counter_value(views, "senids_flows_evicted_overflow_total")),
      static_cast<unsigned long long>(
          counter_value(views, "senids_streams_truncated_total")));

  const Histogram::Snapshot unit = pipeline_metrics().unit_seconds->snapshot();
  append_format(out,
                "  \"unit_latency_seconds\": {\"count\": %llu, \"sum\": %.9g, "
                "\"p50\": %.9g, \"p95\": %.9g, \"p99\": %.9g},\n",
                static_cast<unsigned long long>(unit.count), unit.sum_seconds,
                unit.quantile(0.50), unit.quantile(0.95), unit.quantile(0.99));

  const FlightRecorder::Options fr = FlightRecorder::instance().options();
  append_format(out,
                "  \"flight_recorder\": {\"enabled\": %s, \"slots\": %zu, "
                "\"slow_threshold_us\": %.3f}\n",
                FlightRecorder::enabled() ? "true" : "false", fr.slots,
                FlightRecorder::instance().slow_threshold_seconds() * 1e6);
  out += "}\n";
  return out;
}

// ------------------------------------------------------------- HTTP server

#if SENIDS_HAVE_SOCKETS

struct TelemetryServer::Impl {
  TelemetryOptions options;
  // Written by start() before the accept thread exists, read by the
  // accept loop, closed exactly once by stop() after the join (the
  // lifecycle mutex orders that close; the loop itself never needs it).
  int listen_fd = -1;
  std::uint16_t port = 0;
  // Lock-order-checker finding: stop() used to gate on stop.exchange()
  // but both the destructor and an explicit stop() caller could still
  // reach join() concurrently — std::thread::join racing itself is UB.
  // The lifecycle mutex makes join-then-close a critical section;
  // joinable() flips under it, so the second caller no-ops.
  util::Mutex lifecycle_mu{"TelemetryServer.lifecycle"};
  std::thread accept_thread GUARDED_BY(lifecycle_mu);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> requests{0};

  void run();
  void handle_connection(int fd);
};

namespace {

void set_timeout(int fd, int optname, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof tv);
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;  // timeout, reset, or shutdown: give up
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void respond(int fd, int status, std::string_view reason, std::string_view content_type,
             std::string_view body) {
  std::string head;
  append_format(head,
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status, std::string(reason).c_str(), std::string(content_type).c_str(),
                body.size());
  if (send_all(fd, head)) send_all(fd, body);
}

constexpr std::string_view kIndexBody =
    "senids telemetry\n"
    "  /metrics  Prometheus exposition\n"
    "  /healthz  liveness + readiness\n"
    "  /statusz  JSON status snapshot\n"
    "  /tracez   unit flight-recorder dump\n";

}  // namespace

void TelemetryServer::Impl::handle_connection(int fd) {
  set_timeout(fd, SO_RCVTIMEO, options.handler_timeout_seconds);
  set_timeout(fd, SO_SNDTIMEO, options.handler_timeout_seconds);

  std::string request;
  char buf[1024];
  while (request.size() < options.max_request_bytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // timeout or close
    request.append(buf, static_cast<std::size_t>(n));
  }
  requests.fetch_add(1, std::memory_order_relaxed);

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t eol = request.find("\r\n");
  const std::string_view line =
      std::string_view(request).substr(0, eol == std::string::npos ? request.size() : eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    respond(fd, 400, "Bad Request", "text/plain; charset=utf-8", "bad request\n");
    return;
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);

  if (method != "GET" && method != "HEAD") {
    respond(fd, 405, "Method Not Allowed", "text/plain; charset=utf-8",
            "only GET is served here\n");
    return;
  }
  const bool head = method == "HEAD";
  auto reply = [&](std::string_view content_type, std::string_view body, int status = 200,
                   std::string_view reason = "OK") {
    respond(fd, status, reason, content_type, head ? std::string_view{} : body);
  };

  if (path == "/" || path == "/index.html") {
    reply("text/plain; charset=utf-8", kIndexBody);
  } else if (path == "/metrics") {
    reply("text/plain; version=0.0.4; charset=utf-8",
          Registry::instance().prometheus_text());
  } else if (path == "/healthz") {
    const HealthReport health = evaluate_health(options.health);
    reply("application/json", health.json, health.healthy ? 200 : 503,
          health.healthy ? "OK" : "Service Unavailable");
  } else if (path == "/statusz") {
    reply("application/json", status_json(options.build_info));
  } else if (path == "/tracez") {
    reply("application/json", FlightRecorder::instance().json());
  } else {
    reply("text/plain; charset=utf-8", "not found\n", 404, "Not Found");
  }
}

void TelemetryServer::Impl::run() {
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);  // 100ms stop-poll granularity
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

TelemetryServer::TelemetryServer() : impl_(std::make_unique<Impl>()) {}

std::unique_ptr<TelemetryServer> TelemetryServer::start(TelemetryOptions options) {
  auto server = std::unique_ptr<TelemetryServer>(new TelemetryServer());
  Impl& im = *server->impl_;
  im.options = std::move(options);

  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) {
    std::fprintf(stderr, "senids telemetry: socket() failed: %s\n",
                 std::strerror(errno));
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.options.port);
  if (::inet_pton(AF_INET, im.options.bind_address.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "senids telemetry: bad bind address %s\n",
                 im.options.bind_address.c_str());
    ::close(im.listen_fd);
    return nullptr;
  }
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(im.listen_fd, 16) != 0) {
    std::fprintf(stderr, "senids telemetry: cannot bind %s:%u: %s\n",
                 im.options.bind_address.c_str(), im.options.port,
                 std::strerror(errno));
    ::close(im.listen_fd);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    im.port = ntohs(bound.sin_port);
  }
  {
    util::MutexLock lock(im.lifecycle_mu);
    im.accept_thread = std::thread([&im] { im.run(); });
  }
  return server;
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
  Impl& im = *impl_;
  im.stop.store(true, std::memory_order_relaxed);
  util::MutexLock lock(im.lifecycle_mu);
  if (im.accept_thread.joinable()) im.accept_thread.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
}

std::uint16_t TelemetryServer::port() const noexcept { return impl_->port; }

std::uint64_t TelemetryServer::requests_served() const noexcept {
  return impl_->requests.load(std::memory_order_relaxed);
}

#else  // !SENIDS_HAVE_SOCKETS

struct TelemetryServer::Impl {};

TelemetryServer::TelemetryServer() = default;
TelemetryServer::~TelemetryServer() = default;

std::unique_ptr<TelemetryServer> TelemetryServer::start(TelemetryOptions) {
  std::fprintf(stderr, "senids telemetry: no socket support on this platform\n");
  return nullptr;
}

void TelemetryServer::stop() {}
std::uint16_t TelemetryServer::port() const noexcept { return 0; }
std::uint64_t TelemetryServer::requests_served() const noexcept { return 0; }

#endif

}  // namespace senids::obs
