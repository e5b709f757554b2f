#include "core/session.hpp"

#include "obs/pipeline.hpp"
#include "util/timer.hpp"

namespace senids::core {

LiveSession::LiveSession(NidsEngine& engine, AlertSink sink)
    : engine_(engine),
      ctx_(engine.make_analysis_context()),
      shard_(engine.options(), engine.classifier()),
      unit_sink_([this](util::Bytes payload, const Alert& meta, std::uint64_t unit_id) {
        for (const Alert& alert :
             engine_.analyze_payload(ctx_, payload, meta, &shard_.stats(), unit_id)) {
          ++alerts_emitted_;
          if (sink_) sink_(alert);
        }
      }),
      worker_slot_(obs::WorkerTable::instance().claim("session")),
      sink_(std::move(sink)) {
  shard_.begin_capture();
  obs::pipeline_metrics().flow_table_max_flows->set(
      static_cast<std::int64_t>(engine.options().max_flows));
  worker_slot_.begin_run();
}

LiveSession::~LiveSession() {
  worker_slot_.end_run();
  obs::WorkerTable::instance().release(worker_slot_);
}

void LiveSession::feed(util::ByteView frame, std::uint32_t ts_sec, std::uint32_t ts_usec) {
  // Attribution: the gap since the previous feed returned is the caller
  // thread waiting for traffic (idle); the body of feed() is busy.
  const std::uint64_t feed_start_ns = obs::WorkerTable::instance().now_ns();
  if (last_feed_end_ns_ != 0 && feed_start_ns > last_feed_end_ns_) {
    worker_slot_.add_idle(static_cast<double>(feed_start_ns - last_feed_end_ns_) * 1e-9);
  }
  worker_slot_.heartbeat();
  NidsStats& stats = shard_.stats();
  const std::size_t units_before = stats.units_analyzed;
  const double analysis_before = stats.analysis_seconds;
  shard_.process_record(frame, ts_sec, ts_usec, unit_sink_);
  last_feed_end_ns_ = obs::WorkerTable::instance().now_ns();
  const double busy =
      last_feed_end_ns_ > feed_start_ns
          ? static_cast<double>(last_feed_end_ns_ - feed_start_ns) * 1e-9
          : 0.0;
  worker_slot_.add_busy(busy);
  // Whole-feed caller wall minus the inline analysis it triggered: the
  // same stage-(a) definition the batch engine reports.
  stats.classify_seconds += busy - (stats.analysis_seconds - analysis_before);
  if (stats.units_analyzed > units_before) {
    worker_slot_.add_units(stats.units_analyzed - units_before);
  }
}

void LiveSession::finish() {
  util::WallTimer drain_timer;
  worker_slot_.heartbeat();
  shard_.finish_capture(unit_sink_);
  worker_slot_.add_busy(drain_timer.seconds());
  last_feed_end_ns_ = obs::WorkerTable::instance().now_ns();
}

}  // namespace senids::core
