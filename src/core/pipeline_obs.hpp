// Internal glue between the core pipeline containers and the
// process-wide observability handles. BoundedQueue and BoundedFlowTable
// deliberately take nullable metric-handle structs (util/ and net/ know
// nothing about which registry families exist); these helpers bind them
// to the families in obs::pipeline_metrics() exactly once, and every
// engine / live session shares the same bound structs. record_stage is
// the one writer of stage timings, for stage (a) and stages (b)-(e).
#pragma once

#include <chrono>

#include "cache/verdict_cache.hpp"
#include "core/engine.hpp"
#include "net/defrag.hpp"
#include "net/flow.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"
#include "util/queue.hpp"

namespace senids::core {

inline const util::QueueMetrics& queue_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const util::QueueMetrics m{pm.queue_depth,        pm.queue_depth_peak,
                                    pm.queue_bytes,        pm.queue_pushed,
                                    pm.queue_backpressure_waits,
                                    pm.queue_backpressure_wait_seconds};
  return m;
}

inline const net::FlowTableMetrics& flow_table_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const net::FlowTableMetrics m{pm.flow_table_flows, pm.flows_created,
                                       pm.flows_evicted_idle, pm.flows_evicted_overflow};
  return m;
}

inline const net::DefragMetrics& defrag_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const net::DefragMetrics m{pm.defrag_dropped};
  return m;
}

inline const cache::CacheMetrics& cache_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const cache::CacheMetrics m{pm.cache_hits,      pm.cache_misses,
                                     pm.cache_insertions, pm.cache_evictions,
                                     pm.cache_entries,    pm.cache_bytes};
  return m;
}

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Where a stage execution's tracer span goes. It is labelled with
/// `unit_id` and `bytes`, and starts at `*cursor_us` (which then advances
/// past it) when a unit lays its spans out back to back from its start
/// time, or ends now when `cursor_us` is null (the stage just finished).
struct StageSpan {
  std::uint64_t unit_id = 0;
  std::uint64_t bytes = 0;
  std::uint64_t* cursor_us = nullptr;
};

/// Record one stage execution: the stage's latency histogram, its
/// StageStat in `stats`, and — given a `span` — a tracer span.
inline void record_stage(NidsStats& stats, obs::Stage stage, double seconds,
                         const StageSpan* span = nullptr) {
  const auto idx = static_cast<std::size_t>(stage);
  obs::pipeline_metrics().stage_seconds[idx]->observe(seconds);
  StageStat& s = stats.stages[idx];
  ++s.count;
  s.seconds += seconds;
  if (seconds > s.max_seconds) s.max_seconds = seconds;
  if (!span) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  const auto dur = static_cast<std::uint64_t>(seconds * 1e6);
  std::uint64_t start = 0;
  if (span->cursor_us) {
    start = *span->cursor_us;
    *span->cursor_us += dur;
  } else {
    const std::uint64_t now = tracer.now_us();
    start = now >= dur ? now - dur : 0;
  }
  tracer.record({obs::stage_name(stage).data(), span->unit_id, start, dur, span->bytes, 0});
}

}  // namespace senids::core
