// One source-affine stage-(a) pipeline shard: parse, classify,
// defragment, reassemble, and hand each analysis unit to a sink. This is
// the only stage-(a) implementation — the engine runs N of them (one per
// NidsOptions::shards) and a LiveSession runs one. Each shard owns the
// classifier state, Defragmenter, and bounded flow table for the sources
// routed to it. Source affinity is the load-bearing design point:
// per-source dark-space probe counting and 5-tuple flow keys (which
// include the source) both stay correct inside a single shard, so the
// packet hot path needs no cross-shard synchronization — shards share
// only the process-wide metric registry and the internally synchronized
// verdict cache downstream.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/engine.hpp"
#include "net/defrag.hpp"
#include "net/flow.hpp"
#include "net/reassembly.hpp"
#include "obs/pipeline.hpp"

namespace senids::core {

/// Shard a source address over `shards` buckets (multiplicative hash;
/// well mixed even for adjacent addresses). All frames from one source
/// land in one shard — the invariant everything above relies on.
[[nodiscard]] inline std::size_t shard_index_for(net::Ipv4Addr src,
                                                 std::size_t shards) noexcept {
  return static_cast<std::size_t>((src.value * 0x9e3779b97f4a7c15ULL) >> 32) % shards;
}

class PipelineShard {
 public:
  /// Receives each analysis unit the shard forms (suspicious payload or
  /// flushed stream). The engine points this at the worker handoff queue
  /// or at inline analysis.
  using UnitSink =
      std::function<void(util::Bytes payload, const Alert& meta, std::uint64_t unit_id)>;

  /// `options` must outlive the shard. The shard classifies with its own
  /// `config.with_empty_state()`: the engine classifier's decoys, dark
  /// prefixes and options, and no taint or probe counts. With a `label`
  /// the shard also feeds the shard="<label>" series (the multi-shard
  /// engine); without one its flow gauge is the unlabelled pipeline one.
  PipelineShard(const NidsOptions& options, const classify::TrafficClassifier& config,
                std::optional<std::size_t> label = std::nullopt);
  // The flow table points at flow_metrics_.
  PipelineShard(const PipelineShard&) = delete;
  PipelineShard& operator=(const PipelineShard&) = delete;

  /// Reset per-capture state (flow table, defragmenter, stats). Taint and
  /// dark-space counts persist across captures.
  void begin_capture();
  /// Classify one captured frame and dispatch any unit it completes.
  void process_record(util::ByteView frame, std::uint32_t ts_sec, std::uint32_t ts_usec,
                      const UnitSink& sink);
  /// Flush flows that never closed, oldest first.
  void finish_capture(const UnitSink& sink);

  /// Stats since begin_capture, current after every record. Callers that
  /// analyze units inline fold their analysis stats and timings in here.
  [[nodiscard]] NidsStats& stats() noexcept { return stats_; }
  [[nodiscard]] const NidsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool is_tainted(net::Ipv4Addr src) const {
    return classifier_.is_tainted(src);
  }
  [[nodiscard]] std::size_t live_flows() const noexcept { return flows_.size(); }

 private:
  struct FlowState {
    net::TcpReassembler reassembler;
    Alert meta;
    double reassemble_seconds = 0.0;  // accrued per feed, emitted at flush
    explicit FlowState(std::size_t cap) : reassembler(cap, cap) {}
  };

  std::optional<net::ParsedPacket> classify_one(util::ByteView frame, std::uint32_t ts_sec,
                                               std::uint32_t ts_usec);
  void dispatch(net::ParsedPacket& pkt, const UnitSink& sink);
  [[nodiscard]] bool stream_full(const FlowState& state) const;
  void flush_flow(FlowState& state, const UnitSink& sink);

  const NidsOptions& options_;
  classify::TrafficClassifier classifier_;

  net::FlowTableMetrics flow_metrics_{};  // per-shard binding (labelled only)
  obs::ShardMetrics shard_{};             // null handles when unlabelled
  net::BoundedFlowTable<FlowState> flows_;
  net::Defragmenter defrag_;
  NidsStats stats_;
  std::size_t dark_evictions_base_ = 0;
  bool tracing_ = false;
  bool clocked_ = false;
};

}  // namespace senids::core
