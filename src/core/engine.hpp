// The semantics-aware NIDS (Figure 3): traffic classifier -> binary
// detection & extraction -> disassembler -> IR -> semantic analysis.
//
// Threading model: a sharded streaming pipeline. Stage (a)
// (classification, defragmentation, TCP reassembly) is stateful, so it
// is decomposed into N source-affine shards (NidsOptions::shards): the
// dispatcher (caller thread) peeks only each frame's IPv4 source and
// routes the record by source hash, and each shard owns the classifier
// scan-counting state, Defragmenter, and bounded flow table for the
// sources routed to it — per-source dark-space probe counting and
// 5-tuple flow reassembly (the flow key includes the source) stay
// correct within one shard with no cross-shard synchronization on the
// hot path. With shards == 1 (the default) the one shard runs directly
// on the calling thread. A LiveSession is the same stage (a): one shard
// driven frame by frame.
//
// Each suspicious payload or reassembled stream becomes an analysis
// unit for stages (b)-(e), pure functions of one unit, analyzed *while*
// classification continues. The engine holds the one extractor and the
// one analyzer; both are const and every thread and session calls them.
// process_capture runs one thread function on its executor threads:
// `threads` of them with shards == 1 (none at threads <= 1), and
// max(threads, shards) with shards > 1, thread i < shards owning shard i.
// Units are produced by the caller with one shard and by the shard
// threads with more, and every producer follows one hand-off rule: it
// offers a unit to one queue while that queue holds fewer units than
// there are threads, and analyzes the unit itself otherwise. So a
// producer with its own traffic analyzes it locally, a dominant source's
// units spill over to threads that run dry, and with no threads the
// caller analyzes every unit as it forms (the serial pipeline). Every
// thread analyzes queued units whenever it has no records.
// Each analyzing thread (the caller included) owns only an
// AnalysisContext — working memory, no analysis state — and its own stats
// and alert list, merged into the report after the threads join; the per-unit hot loop touches no cross-thread
// mutable state beyond the sharded obs counters and the internally
// synchronized verdict cache. Those counters have two writers: analyze()'s
// exit adds each frame's analyzer counts, and analyze_payload's exit
// (finish_unit) adds each unit's counts and its analysis_seconds. The
// queue holds at most one unit per thread, each at most max_stream_bytes,
// so a traffic burst slows the producer (it analyzes) instead of
// exhausting memory; flow tables are LRU-managed with an idle timeout and
// a live-flow cap, so long-lived or hostile flows cannot exhaust state
// either (evicted flows are flushed as units, not dropped). Alerts are
// merged and sorted on the full key at the end, so every thread and shard
// count produces byte-identical reports.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "classify/classifier.hpp"
#include "core/alert.hpp"
#include "emu/shellemu.hpp"
#include "extract/extractor.hpp"
#include "net/reassembly.hpp"
#include "obs/pipeline.hpp"
#include "pcap/pcap.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"
#include "triage/triage.hpp"

namespace senids::core {

class PipelineShard;

struct NidsOptions {
  /// Instruction-set architecture for stages (c)-(e): candidate scanning,
  /// disassembly, IR lifting, template matching, and sandbox emulation
  /// all run under this Arch's rules (see src/arch/arch.hpp). nullptr =
  /// arch::Arch::x86_32(), the classic pipeline. The engine normalizes
  /// this at construction and propagates it into analyzer.arch (leave
  /// that derived field alone); the sandbox runs in its mode. It is also
  /// part of the verdict-cache config fingerprint (the same bytes can carry a
  /// 32-bit payload and a 64-bit payload with different verdicts).
  const arch::Arch* arch = nullptr;
  classify::ClassifierOptions classifier;
  extract::ExtractorOptions extractor;
  semantic::SemanticAnalyzer::Options analyzer;
  /// Threads for the analysis stages (b)-(e). With shards == 1 the
  /// calling thread runs stage (a) and analyzes every unit it cannot hand
  /// to an idle thread: 0 and 1 start no thread (the serial pipeline),
  /// above 1 that many threads analyze the units it hands over. With
  /// shards > 1, max(threads, shards) threads run: the first `shards`
  /// also run stage (a) for a shard each, and every one analyzes units.
  std::size_t threads = 1;
  /// Stage-(a) pipeline shards. Records are routed to shards by a
  /// source-IP hash, and each shard owns its classifier state /
  /// defragmenter / flow table, so classification scales with cores
  /// while per-source semantics are preserved. 1 = classify on the
  /// calling thread (no dispatcher). Note: max_flows and
  /// classifier.dark_space_max_sources act per shard when shards > 1.
  std::size_t shards = 1;
  /// Byte cap on each defragmenter's pending-fragment buffer; oldest
  /// pending datagrams are dropped past it (anti-DoS; counted in
  /// NidsStats::defrag_dropped and senids_defrag_dropped_total).
  std::size_t defrag_max_buffered_bytes = 4u << 20;
  /// Reassemble suspicious TCP flows and analyze the byte stream (exploit
  /// payloads may span segments). Non-TCP payloads are analyzed directly.
  bool reassemble_tcp = true;
  /// Cap on reassembled stream bytes kept per flow: bounds both the
  /// out-of-order pending buffer and the assembled stream itself. A flow
  /// whose stream hits the cap is flushed truncated (alerts on the prefix
  /// still fire) and its state released.
  std::size_t max_stream_bytes = 1 << 20;
  /// Evict flows with no activity for this many seconds of capture time;
  /// the partial stream is flushed as an analysis unit. 0 = disabled.
  std::uint32_t flow_idle_timeout_sec = 0;
  /// Hard cap on live flows; past it the least-recently-active flow is
  /// flushed and evicted to make room. 0 = unlimited.
  std::size_t max_flows = 0;
  /// Deep analysis: emulate suspicious frames so decoders decrypt
  /// themselves, then statically re-analyze the decoded frame and alert
  /// on observed runtime behaviour (execve, port binding). Off by
  /// default — it is the expensive last line of the pipeline.
  bool enable_emulation = false;
  /// Require static decryption-loop detections to be confirmed by the
  /// sandbox: the frame must actually self-modify when run (a real
  /// decoder decodes; a coincidental code-shaped byte pattern almost
  /// never executes coherently). Trades the pure-static design of the
  /// paper for a measurably zero false-positive rate on corpora with
  /// large amounts of high-entropy data. Off by default.
  bool confirm_decoders_by_emulation = false;
  /// Byte budget for the content-addressed verdict cache (0 = disabled).
  /// Keyed on SHA-256(config fingerprint || unit bytes): a hit replays
  /// the stored verdict and skips stages (b)-(e) entirely. Behaviour-
  /// preserving by construction — see DESIGN.md "Verdict cache" and
  /// tests/cache_differential_test.cpp.
  std::size_t verdict_cache_bytes = 0;
  /// Units larger than this bypass the cache (hashing huge one-off
  /// streams buys nothing; recorded as cache_bypass).
  std::size_t cache_max_unit_bytes = 4u << 20;
  /// Stage-0 triage prefilter (src/triage): screens every analysis unit
  /// ahead of the verdict cache and rejects units that provably (or
  /// differential-tested empirically) cannot alert. Off by default in
  /// the library; senids_scan turns it on. Like the threading and cache
  /// knobs it is behaviour-preserving — alerts are byte-identical either
  /// way (tests/triage_differential_test.cpp) — so it is excluded from
  /// the cache config fingerprint.
  triage::TriageOptions triage;
};

/// Accumulated latency of one pipeline stage: execution count, summed
/// wall seconds, and the costliest single execution. Counts are always
/// maintained; the time fields are only accumulated while
/// obs::metrics_enabled() (zero when observability is off).
struct StageStat {
  std::size_t count = 0;
  double seconds = 0.0;
  double max_seconds = 0.0;
};

/// The count fields of NidsStats, declared once (see semantic::CountField):
/// each becomes a `std::size_t name = 0` member and an entry of
/// kNidsCountFields, which merging, stats_json and the parity tests loop
/// over.
#define SENIDS_NIDS_COUNT_FIELDS(X)                                            \
  X(packets)                                                                   \
  X(non_ip)                                                                    \
  X(suspicious_packets)                                                        \
  X(units_analyzed) /* payloads/streams sent to stage (b) */                   \
  /* Logical work counters: frames_extracted / frames_emulated /               \
     emulated_steps count the work each unit's verdict represents, so a        \
     verdict-cache hit folds the stored miss-path figures back in and          \
     cache-on and cache-off runs report identical values (pinned by            \
     tests/parallel_analysis_test.cpp). bytes_analyzed is the exception:       \
     it counts only bytes the disassembler actually read this run — the        \
     replayed remainder is in cache_bytes_saved, so bytes_analyzed +           \
     cache_bytes_saved equals the cache-off bytes_analyzed. */                 \
  X(frames_extracted)                                                          \
  X(bytes_analyzed) /* frame bytes reaching the disassembler */                \
  X(frames_emulated)                                                           \
  X(emulated_steps) /* instructions executed in the sandbox */                 \
  X(flows_evicted_idle)     /* flushed by flow_idle_timeout_sec */             \
  X(flows_evicted_overflow) /* flushed to enforce max_flows */                 \
  X(streams_truncated)      /* flows that hit max_stream_bytes */              \
  X(dark_sources_evicted)   /* dark-space counters LRU-evicted at the cap */   \
  X(defrag_dropped)         /* pending datagrams dropped at the defrag cap */  \
  /* Stage-0 triage tiers (zero when triage is off). Every unit is             \
     screened exactly once and is exactly one of escalated/rejected:           \
     triage_screened == triage_escalated + triage_rejected, and rejected       \
     units still count in units_analyzed (they entered the analysis            \
     plane; triage is what they got instead of stages (b)-(e)). */             \
  X(triage_screened)                                                           \
  X(triage_escalated)                                                          \
  X(triage_rejected)                                                           \
  X(triage_rejected_bytes) /* payload bytes of rejected units */               \
  /* Verdict cache (zero when the cache is disabled). Every unit that          \
     reaches the cache is exactly one of hit/miss/bypass; rejected units       \
     never reach it, so hits + misses + bypass ==                              \
     units_analyzed - triage_rejected. cache_bytes_saved is the                \
     bytes_analyzed the hit units' miss-path runs performed — the disasm       \
     work replay avoided (the one work counter hits do NOT fold back into      \
     its headline field; see the logical-work comment above). */               \
  X(cache_hits)                                                                \
  X(cache_misses)                                                              \
  X(cache_bypass)                                                              \
  X(cache_bytes_saved)

struct NidsStats {
  SENIDS_NIDS_COUNT_FIELDS(SENIDS_DECLARE_COUNT_FIELD)
  semantic::AnalyzerStats analyzer;
  /// Per-stage latency, indexed by obs::Stage. classify counts packets,
  /// reassemble counts flushed streams, extract counts units, disasm/
  /// lift/match count analyzed frames, emulate counts sandbox runs.
  std::array<StageStat, obs::kStageCount> stages{};
  /// Stage-(a) *producer* wall, summed across shards: for each shard,
  /// the wall time its producing thread spent parsing, classifying,
  /// defragmenting, reassembling, and handing units off. Excludes the
  /// analysis a producing thread ran itself. With shards == 1 this is exactly the caller thread's
  /// stage-(a) wall — the pre-shard definition. With shards > 1 it is a
  /// summed, CPU-time-style figure (elapsed stage-(a) wall is the max
  /// over shards, not this sum), and the caller thread's own cost moves
  /// to dispatch_seconds. Documented identities, regression-tested by
  /// tests/shard_differential_test.cpp: dispatch_seconds == 0 whenever
  /// shards <= 1, and stages[kClassify].count == packets at any shard
  /// count.
  double classify_seconds = 0.0;
  /// Wall time the caller thread spent routing records to shards by
  /// source-IP hash. Only nonzero with shards > 1; it overlaps
  /// classify_seconds while the shards stream, so the two must not be
  /// added together.
  double dispatch_seconds = 0.0;
  /// Summed per-unit wall time of the analysis stages (b)-(e) across all
  /// workers — a CPU-time-style total that is comparable across thread
  /// counts. With threads > 1 it exceeds elapsed wall time (that is the
  /// point: elapsed = max over workers, this = sum). It is NOT additive
  /// with classify_seconds into an end-to-end wall figure; the two
  /// overlap while the pipeline streams.
  double analysis_seconds = 0.0;
};

#define SENIDS_NIDS_COUNT_ENTRY(name) \
  semantic::CountField<NidsStats>{#name, &NidsStats::name},
inline constexpr std::array kNidsCountFields{
    SENIDS_NIDS_COUNT_FIELDS(SENIDS_NIDS_COUNT_ENTRY)};
#undef SENIDS_NIDS_COUNT_ENTRY

/// The count fields of `stats` as one JSON object, keyed by field name in
/// declaration order, with the analyzer's counters nested under
/// "analyzer" (what `senids_scan --json` prints as "stats"). Timings are
/// left out: they differ run to run.
[[nodiscard]] std::string stats_json(const NidsStats& stats);

struct Report {
  std::vector<Alert> alerts;
  NidsStats stats;

  [[nodiscard]] bool detected(semantic::ThreatClass threat) const;

  /// Multi-line human-readable rendering: pipeline statistics, alerts,
  /// and per-source / per-threat rollups (what trace_analysis and
  /// senids_scan print).
  [[nodiscard]] std::string str() const;
};

/// Per-worker working memory for the analysis stages (b)-(e): the
/// buffers the per-unit hot loop reuses (extraction frames, scanner
/// arrays, execution traces, lifted IR events, the per-unit emulation
/// memo and alert-dedup set). It holds no analysis state: the extractor
/// and analyzer are the engine's. One context per analyzing thread
/// keeps the loop free of cross-thread mutable state and, after
/// warm-up, free of per-frame heap churn. Construct via
/// NidsEngine::make_analysis_context(); movable, not thread-safe.
class AnalysisContext {
 public:
  AnalysisContext(AnalysisContext&&) = default;
  AnalysisContext& operator=(AnalysisContext&&) = default;

 private:
  friend class NidsEngine;
  AnalysisContext() = default;

  semantic::AnalyzerScratch scratch_;
  std::vector<extract::BinaryFrame> frames_;
  /// Per-frame emulation results, memoized within one unit so the
  /// decoder-confirmation pass and the deep-analysis pass never emulate
  /// the same frame twice.
  std::vector<std::optional<emu::EmulationResult>> emu_memo_;
  /// Names already alerted for the current unit (an emulated behaviour
  /// may show on several frames; it is reported once).
  std::unordered_set<std::string> fired_names_;
};

class NidsEngine {
 public:
  /// Constructs with the standard template library. Debug builds
  /// self-verify: the decoder/def-use cross-check runs once per process,
  /// and unless the caller installed one, analyzer.post_lift_hook is set
  /// to run senids::verify::verify_ir over every lifted unit (violations
  /// abort — see DESIGN.md "Static verification").
  explicit NidsEngine(NidsOptions options);
  NidsEngine(NidsOptions options, std::vector<semantic::Template> templates);
  NidsEngine(NidsEngine&&) noexcept;
  NidsEngine& operator=(NidsEngine&&) noexcept;
  ~NidsEngine();

  /// The classifier configuration every shard starts from: register
  /// honeypots and dark prefixes here before the first process_capture()
  /// or LiveSession. Each shard (and each session's shard) classifies
  /// with its own with_empty_state() copy, built when the shard is
  /// created, so registrations made later are not seen. The engine never
  /// feeds this instance; ask is_tainted() below for classification
  /// results.
  classify::TrafficClassifier& classifier() noexcept { return classifier_; }

  /// Whether any of process_capture()'s shards has tainted `src` — the
  /// shard-count-independent way to ask "did classification flag this
  /// source". Sessions keep their own taint.
  [[nodiscard]] bool is_tainted(net::Ipv4Addr src) const;

  /// Run the full pipeline over a capture (streaming: units are analyzed
  /// while classification is still forming more; see the threading model
  /// above).
  Report process_capture(const pcap::Capture& capture);

  /// Analyze one application payload directly (classification skipped):
  /// stage-0 triage, then a verdict-cache replay or stages (b)-(e). The
  /// worker hot path, and how benches and tests feed payloads
  /// end-to-end. `ctx` must come from this engine's
  /// make_analysis_context() and must not be used from two threads at
  /// once; the engine itself stays const and shareable. Whichever way
  /// the unit goes, its bookkeeping is written once on the way out: the
  /// unit's wall time as its analysis_seconds, the unit/frame/alert/
  /// triage/cache counters, the unit-latency histogram, one flight-
  /// recorder record, and — when `stats` is given — one merge of the
  /// unit's counts into it. `unit_id` correlates this unit's tracer
  /// spans (0 = unlabelled).
  std::vector<Alert> analyze_payload(AnalysisContext& ctx, util::ByteView payload,
                                     const Alert& meta_prototype, NidsStats* stats = nullptr,
                                     std::uint64_t unit_id = 0) const;

  /// Fresh per-worker working memory for analyze_payload.
  [[nodiscard]] AnalysisContext make_analysis_context() const;

  [[nodiscard]] const NidsOptions& options() const noexcept { return options_; }
  [[nodiscard]] const semantic::SemanticAnalyzer& analyzer() const noexcept {
    return analyzer_;
  }

  /// The verdict cache, or nullptr when verdict_cache_bytes == 0.
  /// Shared by every worker; internally synchronized.
  [[nodiscard]] cache::VerdictCache* verdict_cache() const noexcept {
    return verdict_cache_.get();
  }

  /// SHA-256 over the template set and every verdict-affecting option;
  /// the prefix of every cache key. Exposed for tests that prove
  /// config changes invalidate the cache.
  [[nodiscard]] const cache::Digest& config_fingerprint() const noexcept {
    return config_fingerprint_;
  }

  /// The stage-0 triage filter, or nullptr when triage is off. Shared by
  /// every worker; immutable after construction.
  [[nodiscard]] const triage::TriageFilter* triage_filter() const noexcept {
    return triage_.get();
  }

 private:
  /// Create the stage-(a) shards on first use (lazily, so honeypot /
  /// dark-prefix registration between construction and the first capture
  /// is copied into every shard's classifier).
  void ensure_shards();

  NidsOptions options_;
  classify::TrafficClassifier classifier_;
  /// Stages (b) and (c)-(e): the only instances, called by every worker,
  /// shard and session.
  extract::BinaryExtractor extractor_;
  semantic::SemanticAnalyzer analyzer_;
  cache::Digest config_fingerprint_{};
  std::unique_ptr<cache::VerdictCache> verdict_cache_;
  std::unique_ptr<triage::TriageFilter> triage_;
  /// Stage-(a) shards; persist across captures (taint state outlives a
  /// capture).
  std::vector<std::unique_ptr<PipelineShard>> shards_;
};

/// Strict-weak order over every alert field: workers finish in arbitrary
/// order, so reports are sorted on the full key to make output
/// deterministic (ts/src/dst alone tie for e.g. two frames of one flow).
[[nodiscard]] bool alert_less(const Alert& a, const Alert& b) noexcept;

}  // namespace senids::core
