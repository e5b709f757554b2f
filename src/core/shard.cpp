#include "core/shard.hpp"

#include <chrono>
#include <utility>

#include "core/pipeline_obs.hpp"
#include "obs/trace.hpp"

namespace senids::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

PipelineShard::PipelineShard(const NidsOptions& options,
                             const classify::TrafficClassifier& config,
                             std::optional<std::size_t> label)
    : options_(options),
      classifier_(config.with_empty_state()),
      defrag_(options.defrag_max_buffered_bytes) {
  if (label) {
    // Labelled shard="<i>" series; the flow gauge is per shard, the
    // created/evicted counters stay process-wide families.
    shard_ = obs::shard_metrics(*label);
    obs::PipelineMetrics& pm = obs::pipeline_metrics();
    flow_metrics_ = net::FlowTableMetrics{shard_.flows, pm.flows_created,
                                          pm.flows_evicted_idle, pm.flows_evicted_overflow};
  }
}

void PipelineShard::begin_capture() {
  flows_ = net::BoundedFlowTable<FlowState>{};
  flows_.set_metrics(shard_.flows ? &flow_metrics_ : &flow_table_metrics());
  defrag_ = net::Defragmenter(options_.defrag_max_buffered_bytes);
  defrag_.set_metrics(&defrag_metrics());
  stats_ = NidsStats{};
  dark_evictions_base_ = classifier_.dark_space().evictions();
}

void PipelineShard::record_stage(obs::Stage stage, double seconds, std::uint64_t unit_id,
                                 std::uint64_t bytes, bool with_span) {
  const auto idx = static_cast<std::size_t>(stage);
  obs::pipeline_metrics().stage_seconds[idx]->observe(seconds);
  fold_stage(stats_.stages[idx], seconds);
  if (tracing_ && with_span) {
    obs::Tracer& tracer = obs::Tracer::instance();
    const auto dur = static_cast<std::uint64_t>(seconds * 1e6);
    const std::uint64_t now = tracer.now_us();
    tracer.record({obs::stage_name(stage).data(), unit_id, now >= dur ? now - dur : 0,
                   dur, bytes, 0});
  }
}

bool PipelineShard::stream_full(const FlowState& state) const {
  return state.reassembler.truncated() ||
         state.reassembler.stream().size() >= options_.max_stream_bytes;
}

void PipelineShard::flush_flow(FlowState& state, const UnitSink& sink) {
  if (stream_full(state)) {
    ++stats_.streams_truncated;
    obs::pipeline_metrics().streams_truncated->add();
  }
  double reassemble_seconds = state.reassemble_seconds;
  state.reassemble_seconds = 0.0;
  const SteadyClock::time_point t0 =
      clocked_ ? SteadyClock::now() : SteadyClock::time_point{};
  util::Bytes stream = state.reassembler.take_stream();
  if (clocked_) reassemble_seconds += seconds_since(t0);
  if (stream.empty()) return;
  const std::uint64_t unit_id = tracing_ ? obs::Tracer::instance().next_unit_id() : 0;
  record_stage(obs::Stage::kReassemble, reassemble_seconds, unit_id, stream.size(), true);
  if (shard_.units) shard_.units->add();
  sink(std::move(stream), state.meta, unit_id);
}

void PipelineShard::dispatch(net::ParsedPacket& pkt, const UnitSink& sink) {
  Alert meta;
  meta.ts_sec = pkt.ts_sec;
  meta.src = pkt.ip.src;
  meta.dst = pkt.ip.dst;
  meta.src_port = pkt.src_port();
  meta.dst_port = pkt.dst_port();

  if (pkt.transport == net::Transport::kTcp && options_.reassemble_tcp) {
    auto flush_sink = [this, &sink](const net::FlowKey&, FlowState& state) {
      flush_flow(state, sink);
    };
    if (options_.flow_idle_timeout_sec) {
      stats_.flows_evicted_idle +=
          flows_.evict_idle(pkt.ts_sec, options_.flow_idle_timeout_sec, flush_sink);
    }
    const net::FlowKey key = net::FlowKey::of(pkt);
    auto [state, created] = flows_.touch(key, pkt.ts_sec, options_.max_stream_bytes);
    if (created) {
      // The flow's alert metadata is pinned to its *first* suspicious
      // segment (timestamp of first contact, not of the last segment).
      state->meta = meta;
      if (options_.max_flows && flows_.size() > options_.max_flows &&
          flows_.evict_oldest(flush_sink)) {
        ++stats_.flows_evicted_overflow;
      }
    }
    const SteadyClock::time_point t0 =
        clocked_ ? SteadyClock::now() : SteadyClock::time_point{};
    state->reassembler.feed(pkt.tcp.seq, pkt.tcp.flags, pkt.payload);
    if (clocked_) state->reassemble_seconds += seconds_since(t0);
    if (state->reassembler.closed() || stream_full(*state)) {
      flush_flow(*state, sink);
      flows_.erase(key);
    }
  } else if (!pkt.payload.empty()) {
    if (shard_.units) shard_.units->add();
    sink(std::move(pkt.payload), meta,
         tracing_ ? obs::Tracer::instance().next_unit_id() : 0);
  }
}

std::optional<net::ParsedPacket> PipelineShard::classify_one(util::ByteView frame,
                                                              std::uint32_t ts_sec,
                                                              std::uint32_t ts_usec) {
  auto pkt = net::parse_frame(frame, ts_sec, ts_usec);
  if (!pkt) {
    ++stats_.non_ip;
    return std::nullopt;
  }
  const classify::Verdict verdict = classifier_.observe(*pkt);
  stats_.dark_sources_evicted = classifier_.dark_space().evictions() - dark_evictions_base_;

  if (pkt->transport == net::Transport::kFragment) {
    // Reassemble regardless of verdict: a tainted source's datagram may
    // complete with fragments that arrived before the taint.
    auto datagram = defrag_.feed(pkt->ip, pkt->payload);
    stats_.defrag_dropped = defrag_.dropped();
    if (!datagram) return std::nullopt;
    auto whole = net::parse_reassembled(datagram->header, datagram->payload, ts_sec, ts_usec);
    if (!whole) return std::nullopt;
    if (classifier_.check(*whole) != classify::Verdict::kAnalyze) return std::nullopt;
    return whole;
  }

  if (verdict != classify::Verdict::kAnalyze) return std::nullopt;
  return pkt;
}

void PipelineShard::process_record(util::ByteView frame, std::uint32_t ts_sec,
                                   std::uint32_t ts_usec, const UnitSink& sink) {
  tracing_ = obs::Tracer::enabled();
  clocked_ = obs::metrics_enabled() || tracing_;
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  ++stats_.packets;
  pm.packets->add();
  if (shard_.packets) shard_.packets->add();
  const SteadyClock::time_point pkt_start =
      clocked_ ? SteadyClock::now() : SteadyClock::time_point{};
  auto suspicious = classify_one(frame, ts_sec, ts_usec);
  // Per-packet classify latency; spans only for suspicious packets (a
  // span per ignored packet would swamp the trace with noise).
  record_stage(obs::Stage::kClassify, clocked_ ? seconds_since(pkt_start) : 0.0, 0,
               frame.size(), suspicious.has_value());
  if (suspicious) {
    ++stats_.suspicious_packets;
    pm.suspicious_packets->add();
    dispatch(*suspicious, sink);
  }
}

void PipelineShard::finish_capture(const UnitSink& sink) {
  flows_.drain(
      [this, &sink](const net::FlowKey&, FlowState& state) { flush_flow(state, sink); });
}

}  // namespace senids::core
