// Telemetry-plane tests: loopback HTTP scrapes of every endpoint,
// readiness flipping unhealthy under forced queue saturation and
// recovering, /statusz carrying the documented keys, stale-heartbeat
// detection, and the engine-level attribution invariant (per-worker
// busy + idle seconds reconcile with the worker's own run wall).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <string>

#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/server.hpp"
#include "obs/workers.hpp"

namespace senids::obs {
namespace {

struct HttpResponse {
  int status = 0;
  std::string head;
  std::string body;
};

/// Minimal loopback HTTP client: one request, read to EOF (the server
/// always closes), split head/body.
HttpResponse http_raw(std::uint16_t port, const std::string& request) {
  HttpResponse resp;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return resp;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return resp;
  }
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) raw.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  const std::size_t split = raw.find("\r\n\r\n");
  resp.head = raw.substr(0, split);
  if (split != std::string::npos) resp.body = raw.substr(split + 4);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) resp.status = std::atoi(raw.c_str() + 9);
  return resp;
}

HttpResponse http_get(std::uint16_t port, const std::string& path) {
  return http_raw(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    (void)pipeline_metrics();  // registration is lazy; scrape needs the families
    TelemetryOptions opt;
    opt.build_info = "fingerprint-test";
    server_ = TelemetryServer::start(std::move(opt));
    ASSERT_NE(server_, nullptr);
    ASSERT_NE(server_->port(), 0);
  }
  void TearDown() override {
    // Return the health-relevant gauges to "not configured" so later
    // tests (and later binaries' assumptions) start from a clean slate.
    PipelineMetrics& pm = pipeline_metrics();
    pm.queue_depth->set(0);
    pm.queue_capacity->set(0);
    pm.flow_table_flows->set(0);
    pm.flow_table_max_flows->set(0);
    shard_queue_capacity_gauge().set(0);
    FlightRecorder::instance().configure({.slots = 0});
  }
  std::unique_ptr<TelemetryServer> server_;
};

TEST_F(TelemetryTest, MetricsEndpointServesPrometheusExposition) {
  const HttpResponse r = http_get(server_->port(), "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("text/plain"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE senids_packets_total counter"), std::string::npos);
  EXPECT_NE(r.body.find("senids_unit_seconds_bucket{le=\"+Inf\"}"), std::string::npos);
}

TEST_F(TelemetryTest, HealthFlipsUnhealthyUnderQueueSaturationAndRecovers) {
  PipelineMetrics& pm = pipeline_metrics();
  pm.queue_capacity->set(256);
  pm.queue_depth->set(10);
  HttpResponse r = http_get(server_->port(), "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\": \"healthy\""), std::string::npos);
  EXPECT_NE(r.body.find("\"live\": true"), std::string::npos);

  // Force saturation: depth at 98% of capacity, past the 90% threshold.
  pm.queue_depth->set(250);
  r = http_get(server_->port(), "/healthz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"status\": \"unhealthy\""), std::string::npos);
  EXPECT_NE(r.body.find("unit_queue"), std::string::npos);
  EXPECT_NE(r.body.find("\"ok\": false"), std::string::npos);

  // Drain the queue: readiness must recover.
  pm.queue_depth->set(0);
  r = http_get(server_->port(), "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\": \"healthy\""), std::string::npos);
}

TEST_F(TelemetryTest, HealthFlagsFlowTableOccupancy) {
  PipelineMetrics& pm = pipeline_metrics();
  pm.flow_table_max_flows->set(1000);
  pm.flow_table_flows->set(980);  // 98% > the 95% default threshold
  const HealthReport unhealthy = evaluate_health(HealthThresholds{});
  EXPECT_FALSE(unhealthy.healthy);
  EXPECT_NE(unhealthy.json.find("flow_table"), std::string::npos);
  pm.flow_table_flows->set(100);
  EXPECT_TRUE(evaluate_health(HealthThresholds{}).healthy);
  // A 0 cap disables the check entirely, whatever the occupancy gauge says.
  pm.flow_table_max_flows->set(0);
  pm.flow_table_flows->set(999999);
  EXPECT_TRUE(evaluate_health(HealthThresholds{}).healthy);
}

TEST_F(TelemetryTest, HealthFlagsStaleHeartbeatOnActiveSlotsOnly) {
  WorkerSlot& slot = WorkerTable::instance().slot("stall-test", 0);
  slot.begin_run();
  usleep(20000);  // 20 ms without a heartbeat
  HealthThresholds strict;
  strict.heartbeat_stale_seconds = 0.001;
  const HealthReport stalled = evaluate_health(strict);
  EXPECT_FALSE(stalled.healthy);
  EXPECT_NE(stalled.json.find("heartbeat"), std::string::npos);
  EXPECT_NE(stalled.json.find("stall-test"), std::string::npos);
  // A fresh heartbeat clears it; an inactive slot is never checked.
  slot.heartbeat();
  EXPECT_TRUE(evaluate_health(strict).healthy);
  slot.end_run();
  usleep(20000);
  EXPECT_TRUE(evaluate_health(strict).healthy);
}

TEST_F(TelemetryTest, StatuszCarriesDocumentedKeys) {
  const HttpResponse r = http_get(server_->port(), "/statusz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("application/json"), std::string::npos);
  for (const char* key :
       {"\"uptime_seconds\"", "\"build_info\": \"fingerprint-test\"", "\"pipeline\"",
        "\"unit_queue\"", "\"depth_peak\"", "\"shards\"", "\"workers\"",
        "\"verdict_cache\"", "\"hit_rate\"", "\"flows\"", "\"unit_latency_seconds\"",
        "\"flight_recorder\""}) {
    EXPECT_NE(r.body.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(TelemetryTest, TracezServesFlightRecorderDump) {
  FlightRecorder::instance().configure({.slots = 8});
  UnitRecord rec;
  rec.unit_id = 4242;
  rec.src = 0x0a000001;
  rec.payload_bytes = 77;
  rec.total_us = 5;
  FlightRecorder::instance().record(rec);
  const HttpResponse r = http_get(server_->port(), "/tracez");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"unit_id\": 4242"), std::string::npos);
  EXPECT_NE(r.body.find("\"src\": \"10.0.0.1\""), std::string::npos);
}

TEST_F(TelemetryTest, RoutingAndErrorResponses) {
  EXPECT_EQ(http_get(server_->port(), "/").status, 200);
  EXPECT_EQ(http_get(server_->port(), "/metrics?foo=bar").status, 200);  // query stripped
  EXPECT_EQ(http_get(server_->port(), "/no-such-endpoint").status, 404);
  EXPECT_EQ(http_raw(server_->port(),
                     "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .status,
            405);
  EXPECT_EQ(http_raw(server_->port(), "garbage\r\n\r\n").status, 400);
  const std::uint64_t served = server_->requests_served();
  EXPECT_GE(served, 5u);
  http_get(server_->port(), "/healthz");
  EXPECT_EQ(server_->requests_served(), served + 1);
}

TEST_F(TelemetryTest, StopIsIdempotentAndRefusesFurtherConnections) {
  const std::uint16_t port = server_->port();
  server_->stop();
  server_->stop();
  EXPECT_EQ(http_get(port, "/metrics").status, 0);  // connection refused
}

TEST_F(TelemetryTest, ConcurrentStopsJoinExactlyOnce) {
  // Regression for a thread-safety-audit finding: two threads calling
  // stop() concurrently used to race on the accept thread's handle —
  // joinable() could pass in both before either join() ran, and joining
  // the same std::thread twice is undefined behavior. The lifecycle
  // mutex serializes them; the TSan variant of this binary would flag
  // the old race.
  std::thread other([this] { server_->stop(); });
  server_->stop();
  other.join();
  EXPECT_EQ(http_get(server_->port(), "/metrics").status, 0);
}

// ------------------------------------------------- engine-level attribution

core::NidsOptions threaded_options() {
  core::NidsOptions o;
  o.classifier.analyze_everything = true;  // every payload becomes a unit
  o.threads = 2;
  o.verdict_cache_bytes = 0;
  return o;
}

pcap::Capture small_corpus() {
  gen::TraceBuilder tb(99);
  const net::Endpoint client{net::Ipv4Addr::from_octets(192, 0, 2, 7), 40000};
  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 0, 0, 9);
  for (int i = 0; i < 24; ++i) {
    tb.add_benign(client, server, gen::make_benign_payload(tb.prng()));
    tb.tick();
  }
  return tb.take();
}

TEST_F(TelemetryTest, WorkerBusyIdleSumsReconcileWithRunWall) {
  // process_capture starts `threads` threads with one shard and
  // max(threads, shards) with more, each with one "worker" slot.
  struct Case {
    std::size_t threads, shards, slots;
  };
  for (const Case c : {Case{2, 1, 2}, Case{2, 3, 3}, Case{4, 2, 4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << c.threads << " shards=" << c.shards);
    WorkerTable::instance().reset();
    core::NidsOptions o = threaded_options();
    o.threads = c.threads;
    o.shards = c.shards;
    core::NidsEngine engine(o);
    (void)engine.process_capture(small_corpus());

    std::size_t ran = 0;
    for (const WorkerSlot::Snapshot& w : WorkerTable::instance().snapshot()) {
      if (w.kind != "worker" || w.run_seconds == 0.0) continue;
      ++ran;
      EXPECT_FALSE(w.active) << "threads joined before process_capture returned";
      const double attributed = w.busy_seconds + w.idle_seconds;
      // Acceptance bound: attributed within 5% of the thread's own run
      // wall (plus a small absolute floor — these runs are only a few ms).
      EXPECT_NEAR(attributed, w.run_seconds, std::max(0.05 * w.run_seconds, 2e-3))
          << w.kind << " " << w.index;
    }
    EXPECT_EQ(ran, c.slots);
  }

  // The engine published the capacity gauges the readiness checks use:
  // the unit queue holds one unit per thread of the last capture.
  EXPECT_EQ(pipeline_metrics().queue_capacity->value(), 4);
}

TEST_F(TelemetryTest, UnitQueueHoldsAtMostOneUnitPerThread) {
  // Every unit producer (the caller with one shard, a shard thread with
  // more) analyzes a unit itself rather than queue more than one per
  // thread, so the queue's high watermark never passes the thread count.
  struct Case {
    std::size_t threads, shards;
  };
  for (const Case c : {Case{2, 1}, Case{4, 2}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << c.threads << " shards=" << c.shards);
    PipelineMetrics& pm = pipeline_metrics();
    pm.queue_depth_peak->set(0);
    core::NidsOptions o = threaded_options();
    o.threads = c.threads;
    o.shards = c.shards;
    core::NidsEngine engine(o);
    const core::Report report = engine.process_capture(small_corpus());
    ASSERT_GT(report.stats.units_analyzed, 2 * c.threads);
    EXPECT_EQ(pm.queue_capacity->value(), static_cast<std::int64_t>(c.threads));
    EXPECT_LE(pm.queue_depth_peak->value(), static_cast<std::int64_t>(c.threads));
  }

  // No threads, no queue: the caller analyzes every unit and the
  // readiness check is off.
  core::NidsOptions serial = threaded_options();
  serial.threads = 1;
  core::NidsEngine engine(serial);
  const std::uint64_t pushed_before = pipeline_metrics().queue_pushed->value();
  (void)engine.process_capture(small_corpus());
  EXPECT_EQ(pipeline_metrics().queue_pushed->value(), pushed_before);
  EXPECT_EQ(pipeline_metrics().queue_capacity->value(), 0);
}

}  // namespace
}  // namespace senids::obs
