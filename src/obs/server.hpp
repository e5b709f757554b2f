// Embedded HTTP/1.1 telemetry server: the runtime-visibility plane of
// the pipeline. Dependency-free (POSIX sockets only), one accept thread
// that handles connections sequentially with bounded read/write
// timeouts, bound to loopback by default. Endpoints:
//
//   /metrics  Prometheus text exposition of the whole metric registry.
//   /healthz  Liveness + readiness JSON. Readiness is derived from the
//             live gauges and the worker table: unit-queue saturation,
//             per-shard dispatch-queue saturation, flow-table occupancy
//             against its configured cap, and stale heartbeats from
//             active worker slots. 200 when ready, 503 with
//             the failing checks otherwise.
//   /statusz  JSON snapshot for humans and scripts: uptime, build/config
//             fingerprint, queue depths + high watermarks, per-shard
//             series, per-worker busy/idle attribution, verdict-cache
//             hit rate, unit-latency quantiles, flight-recorder state.
//   /tracez   Flight-recorder dump (recent rings + retained slow units).
//
// The server is pull-only and read-only: handlers snapshot the sharded
// registry exactly the way --metrics-out does, so scraping costs the
// pipeline nothing beyond the aggregation reads. It is started
// explicitly (senids_scan --telemetry-port, or embedders via start());
// the metric *content* honours the usual obs kill switches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace senids::obs {

/// Readiness thresholds for /healthz. A check only fires when its
/// inputs are meaningful (a capacity/cap gauge of 0 disables it).
struct HealthThresholds {
  /// Queue depth / capacity at or above this is "saturated".
  double queue_saturation = 0.90;
  /// Live flows / configured max_flows at or above this is "full".
  double flow_occupancy = 0.95;
  /// An *active* worker slot whose last heartbeat is older than this
  /// many seconds counts as stalled.
  double heartbeat_stale_seconds = 10.0;
};

struct TelemetryOptions {
  /// Bind address; loopback by default — exposing /metrics beyond the
  /// host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see TelemetryServer::port()).
  std::uint16_t port = 0;
  /// Per-connection socket read/write timeout: a stalled scraper cannot
  /// hold the accept thread longer than roughly this bound per side.
  double handler_timeout_seconds = 2.0;
  /// Request size cap (request line + headers).
  std::size_t max_request_bytes = 4096;
  HealthThresholds health;
  /// Opaque build/config identity echoed in /statusz (senids_scan passes
  /// its config fingerprint hex).
  std::string build_info;
};

struct HealthReport {
  bool healthy = true;
  std::string json;  // {"status": ..., "checks": [...]}
};

/// Evaluate readiness from the live registry + worker table. Exposed
/// separately from the server so tests and embedders can consult the
/// same logic the endpoint serves.
[[nodiscard]] HealthReport evaluate_health(const HealthThresholds& thresholds);

/// The /statusz JSON document (see file comment for contents).
[[nodiscard]] std::string status_json(const std::string& build_info);

class TelemetryServer {
 public:
  /// Bind, listen, and start the accept thread. Returns nullptr (after
  /// logging the reason) when the socket cannot be bound — callers treat
  /// telemetry as optional, not fatal.
  static std::unique_ptr<TelemetryServer> start(TelemetryOptions options);

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;
  ~TelemetryServer();

  /// The bound port (the resolved one when options.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Stop accepting and join the accept thread. Idempotent; the
  /// destructor calls it.
  void stop();

  /// Total requests answered (any status); for tests and /statusz.
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

 private:
  TelemetryServer();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace senids::obs
