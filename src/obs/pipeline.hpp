// Pipeline-wide metric names and handles. One struct of pre-registered
// registry handles covers everything the engine and live session record,
// so (a) hot paths never touch the registry map, and (b) every pipeline
// stage appears in an export even before its first sample (a scrape that
// omits the emulate stage because no frame was emulated yet would read
// as a broken deployment, not a quiet one).
//
// Metric naming scheme (see DESIGN.md "Observability"):
//   senids_<area>_<what>[_total|_seconds|_bytes]{label="..."}
// Counters end in _total, histograms of latency in _seconds; the one
// label in use is stage="classify|reassemble|triage|extract|disasm|lift|
// match|emulate" on the per-stage latency family.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "obs/metrics.hpp"

namespace senids::obs {

/// The analysis stages of Figure 3 (plus the deep-analysis extension),
/// in pipeline order.
enum class Stage : std::uint8_t {
  kClassify = 0,   // stage (a): parse + classifier verdict
  kReassemble,     // stage (a): TCP stream assembly for one flushed flow
  kTriage,         // stage 0: prefilter screen ahead of stages (b)-(e)
  kExtract,        // stage (b): binary detection & extraction
  kDisasm,         // stage (c): candidate scan + execution tracing
  kLift,           // stage (d): x86 -> IR
  kMatch,          // stage (e): semantic template matching
  kEmulate,        // deep analysis: sandboxed execution
};
inline constexpr std::size_t kStageCount = 8;

[[nodiscard]] std::string_view stage_name(Stage stage) noexcept;

/// Handles into the process-wide registry for every engine-level metric.
struct PipelineMetrics {
  // Per-stage wall-clock latency. Observations: classify per packet,
  // reassemble per flushed flow, triage per screened unit, extract per
  // unit that reaches the extractor, disasm/lift/match per analyzed
  // frame, emulate per sandbox run.
  std::array<Histogram*, kStageCount> stage_seconds{};

  // Pipeline volume counters.
  Counter* packets;
  Counter* suspicious_packets;
  Counter* units;
  Counter* frames;
  Counter* bytes_analyzed;
  Counter* alerts;

  // process_capture's unit queue (threads analyze from it).
  Gauge* queue_depth;
  Gauge* queue_depth_peak;  // high watermark over the process lifetime
  Gauge* queue_capacity;    // executor threads (0 = serial or never ran)
  Gauge* queue_bytes;
  Counter* queue_pushed;

  // Flow table occupancy / eviction.
  Gauge* flow_table_flows;
  Gauge* flow_table_max_flows;  // configured cap (0 = uncapped)
  Counter* flows_created;
  Counter* flows_evicted_idle;
  Counter* flows_evicted_overflow;
  Counter* streams_truncated;

  // Whole-unit analysis latency (stages (b)-(e) end to end, one
  // observation per unit; cache hits observe their replay cost, which is
  // the honest per-unit figure once the verdict cache is on).
  Histogram* unit_seconds;

  // Content-addressed verdict cache (src/cache). hits/misses/insertions/
  // evictions and the occupancy gauges are fed by the cache itself via
  // CacheMetrics; bypass and bytes_saved are engine-side decisions.
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* cache_bypass;
  Counter* cache_insertions;
  Counter* cache_evictions;
  Counter* cache_bytes_saved;
  Gauge* cache_entries;
  Gauge* cache_bytes;

  // IP defragmentation memory pressure.
  Counter* defrag_dropped;

  // Stage-0 triage tiers (src/triage): every screened unit is exactly one
  // of escalated / rejected. The triage stage-latency histogram is
  // stage_seconds[kTriage].
  Counter* triage_screened;
  Counter* triage_escalated;
  Counter* triage_rejected;
  Counter* triage_rejected_bytes;
};

/// Process-wide handles; registers every metric on first call.
PipelineMetrics& pipeline_metrics();

/// Per-shard handles (labelled shard="<index>") for the sharded stage-(a)
/// front end: dispatcher->shard queue depth plus shard-local volume. Kept
/// out of PipelineMetrics because the shard count is a runtime option.
struct ShardMetrics {
  Gauge* queue_depth;       // record batches waiting in this shard's dispatch queue
  Gauge* queue_depth_peak;  // high watermark of that depth
  Counter* packets;         // frames classified by this shard
  Counter* units;           // analysis units this shard emitted
  Gauge* flows;             // live flows in this shard's flow table
};

/// Configured per-shard dispatch-queue capacity, shared by every shard
/// (unlabelled; 0 until an engine runs sharded). /healthz compares the
/// per-shard depth gauges against it.
Gauge& shard_queue_capacity_gauge();

/// Handles for shard `shard_index`; registers the labelled series on
/// first call per index and returns the same handles afterwards.
ShardMetrics shard_metrics(std::size_t shard_index);

}  // namespace senids::obs
