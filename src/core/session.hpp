// Streaming analysis session: the deployment-shaped interface. Feed
// frames as they arrive; alerts come back incrementally. A session is one
// PipelineShard (classifier taint, IP defragmentation, TCP reassembly —
// the same stage (a) the batch engine runs) driven frame by frame, plus
// one AnalysisContext — working memory for the engine's extractor and
// analyzer — on which each unit is analyzed inline. Its flow table is
// bounded like the engine's: idle flows time out, the live-flow count is
// capped, and over-long streams are flushed truncated — a session pinned
// to live traffic can run indefinitely with bounded memory.
//
// Threading model (checked in the concurrency-safety audit, DESIGN.md
// "Concurrency safety"): a LiveSession is deliberately lock-free by
// being thread-confined — all state is owned by the one thread calling
// feed()/finish(), so there is nothing for GUARDED_BY to guard. Sharing
// one session across threads is a data race by contract. Several
// sessions may run on one engine from several threads: each owns its
// classifier state and shares only the engine's read-only configuration
// and internally synchronized verdict cache. Per-source classification
// (honeypot taint, dark-space probe counts) is only complete when every
// frame of a source reaches the same session, so route frames to
// sessions by shard_index_for(src, sessions) as the engine routes them
// to its shards.
#pragma once

#include <functional>

#include "core/engine.hpp"
#include "core/shard.hpp"
#include "obs/workers.hpp"

namespace senids::core {

class LiveSession {
 public:
  /// Called for every alert as soon as its analysis unit completes.
  using AlertSink = std::function<void(const Alert&)>;

  /// The engine must outlive the session, and its classifier
  /// configuration must be registered before the session is constructed.
  /// Analysis runs inline. Flow eviction follows the engine's
  /// flow_idle_timeout_sec / max_flows / max_stream_bytes options.
  LiveSession(NidsEngine& engine, AlertSink sink);
  ~LiveSession();
  // The unit sink captures `this`.
  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  /// Feed one captured Ethernet frame.
  void feed(util::ByteView frame, std::uint32_t ts_sec = 0, std::uint32_t ts_usec = 0);

  /// Flush flows that never closed (end of capture / shutdown).
  void finish();

  [[nodiscard]] const NidsStats& stats() const noexcept { return shard_.stats(); }

  /// Alerts delivered to the sink so far.
  [[nodiscard]] std::size_t alerts_emitted() const noexcept { return alerts_emitted_; }

 private:
  NidsEngine& engine_;
  /// The session's reusable working memory — a session is one logical
  /// worker, so it holds one context for its lifetime instead of paying
  /// fresh scratch allocations per unit.
  AnalysisContext ctx_;
  PipelineShard shard_;
  /// Analyzes each unit the shard forms, inline, into shard_.stats().
  PipelineShard::UnitSink unit_sink_;
  /// Worker-attribution slot ("session", N), N the lowest index no other
  /// live session holds, released at destruction: busy is the wall inside
  /// feed()/finish(), idle the gaps between feeds on the caller thread.
  obs::WorkerSlot& worker_slot_;
  std::uint64_t last_feed_end_ns_ = 0;
  AlertSink sink_;
  std::size_t alerts_emitted_ = 0;
};

}  // namespace senids::core
