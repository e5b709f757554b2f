#include "obs/pipeline.hpp"

namespace senids::obs {

namespace {

constexpr std::array<std::string_view, kStageCount> kStageNames = {
    "classify", "reassemble", "triage", "extract", "disasm", "lift", "match", "emulate",
};

PipelineMetrics register_all() {
  Registry& r = Registry::instance();
  PipelineMetrics m;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    m.stage_seconds[i] =
        &r.histogram("senids_stage_seconds", "Per-stage pipeline latency in seconds",
                     "stage", kStageNames[i]);
  }
  m.packets = &r.counter("senids_packets_total", "Captured frames fed to stage (a)");
  m.suspicious_packets =
      &r.counter("senids_suspicious_packets_total", "Packets the classifier flagged");
  m.units = &r.counter("senids_units_total",
                       "Analysis units (payloads/streams) entering stage (b)");
  m.frames =
      &r.counter("senids_frames_total", "Binary frames extracted from analysis units");
  m.bytes_analyzed =
      &r.counter("senids_bytes_analyzed_total", "Frame bytes reaching the disassembler");
  m.alerts = &r.counter("senids_alerts_total", "Alerts raised by all stages");

  m.queue_depth = &r.gauge("senids_queue_depth", "Analysis units waiting in the handoff queue");
  m.queue_depth_peak = &r.gauge("senids_unit_queue_depth_peak",
                                "High watermark of the handoff queue depth");
  m.queue_capacity =
      &r.gauge("senids_unit_queue_capacity",
               "Handoff queue capacity: one unit per executor thread (0 = serial)");
  m.queue_bytes = &r.gauge("senids_queue_bytes", "Payload bytes waiting in the handoff queue");
  m.queue_pushed = &r.counter("senids_queue_pushed_total", "Units admitted to the handoff queue");

  m.flow_table_flows = &r.gauge("senids_flow_table_flows", "Live flows in the flow table");
  m.flow_table_max_flows = &r.gauge("senids_flow_table_max_flows",
                                    "Configured live-flow cap (0 = uncapped)");
  m.flows_created = &r.counter("senids_flows_created_total", "Flows admitted to the flow table");
  m.flows_evicted_idle =
      &r.counter("senids_flows_evicted_idle_total", "Flows flushed by the idle timeout");
  m.flows_evicted_overflow = &r.counter("senids_flows_evicted_overflow_total",
                                        "Flows flushed to enforce the live-flow cap");
  m.streams_truncated = &r.counter("senids_streams_truncated_total",
                                   "Flows whose assembled stream hit max_stream_bytes");

  m.unit_seconds = &r.histogram("senids_unit_seconds",
                                "Whole-unit analysis latency (stages (b)-(e))");

  m.cache_hits = &r.counter("senids_verdict_cache_hits_total",
                            "Units served by replaying a cached verdict");
  m.cache_misses = &r.counter("senids_verdict_cache_misses_total",
                              "Cache lookups that fell through to full analysis");
  m.cache_bypass = &r.counter("senids_verdict_cache_bypass_total",
                              "Units that skipped the cache (over the unit size cap)");
  m.cache_insertions = &r.counter("senids_verdict_cache_insertions_total",
                                  "Verdicts admitted to the cache");
  m.cache_evictions = &r.counter("senids_verdict_cache_evictions_total",
                                 "Entries evicted to enforce the byte budget");
  m.cache_bytes_saved = &r.counter(
      "senids_verdict_cache_bytes_saved_total",
      "Frame bytes whose disassembly/lift/match was skipped via cache hits");
  m.cache_entries = &r.gauge("senids_verdict_cache_entries", "Live verdict-cache entries");
  m.cache_bytes =
      &r.gauge("senids_verdict_cache_bytes", "Resident bytes charged to the cache budget");

  m.defrag_dropped = &r.counter(
      "senids_defrag_dropped_total",
      "Pending datagrams dropped by the defragmenter to enforce its byte cap");

  m.triage_screened =
      &r.counter("senids_triage_screened_total", "Analysis units screened by stage-0 triage");
  m.triage_escalated = &r.counter("senids_triage_escalated_total",
                                  "Screened units escalated to the full pipeline");
  m.triage_rejected = &r.counter("senids_triage_rejected_total",
                                 "Screened units rejected without full analysis");
  m.triage_rejected_bytes =
      &r.counter("senids_triage_rejected_bytes_total",
                 "Payload bytes of rejected units (full-pipeline work avoided)");
  return m;
}

}  // namespace

ShardMetrics shard_metrics(std::size_t shard_index) {
  Registry& r = Registry::instance();
  const std::string label = std::to_string(shard_index);
  ShardMetrics m;
  m.queue_depth = &r.gauge(
      "senids_shard_packet_queue_depth",
      "Record batches (up to 64 frames each) waiting in a shard's dispatch queue",
      "shard", label);
  m.queue_depth_peak =
      &r.gauge("senids_shard_packet_queue_depth_peak",
               "High watermark of a shard's waiting record batches", "shard", label);
  m.packets = &r.counter("senids_shard_packets_total", "Frames classified per shard",
                         "shard", label);
  m.units = &r.counter("senids_shard_units_total", "Analysis units emitted per shard",
                       "shard", label);
  m.flows = &r.gauge("senids_shard_flows", "Live flows per shard", "shard", label);
  return m;
}

Gauge& shard_queue_capacity_gauge() {
  return Registry::instance().gauge(
      "senids_shard_packet_queue_capacity",
      "Configured per-shard dispatch queue capacity in record batches (0 = not sharded)");
}

std::string_view stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics = register_all();
  return metrics;
}

}  // namespace senids::obs
