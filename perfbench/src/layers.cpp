// The traced run. The pipeline is composed here from each layer's public
// calls, in the order NidsEngine::process_capture makes them (serial,
// one shard): pcap::parse, net::parse_frame, TrafficClassifier::observe,
// TcpReassembler, TriageFilter::screen, the verdict cache's key/lookup/
// insert, BinaryExtractor::extract and SemanticAnalyzer::analyze. Every
// call gets a span. The layers inside analyze() (candidate scan,
// execution trace, lift, match) cannot be wrapped from outside, so their
// per-operation cost comes from probe calls on the same frames, and
// their work counts from the program's own AnalyzerStats.
#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "arch/arch.hpp"
#include "cache/sha256.hpp"
#include "net/flow.hpp"
#include "net/reassembly.hpp"
#include "passes.hpp"
#include "summary.hpp"

namespace perfbench {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ----------------------------------------------------------------- spans

enum class Layer : std::uint8_t {
  kPass,
  kPcapParse,
  kNetParse,
  kClassify,
  kReassemble,
  kUnit,
  kTriage,
  kCacheKey,
  kCacheLookup,
  kCacheInsert,
  kExtract,
  kAnalyze,
  kProbe,
  kArchScan,
  kArchTrace,
  kIrLift,
  kMatch,
  kCount,
};

constexpr const char* kLayerNames[] = {
    "pass",         "pcap.parse",   "net.parse", "classify",        "net.reassemble",
    "unit",         "triage",       "cache.key", "cache.lookup",    "cache.insert",
    "extract",      "semantic.analyze", "probe", "arch.scan",       "arch.trace",
    "ir.lift",      "semantic.match",
};
static_assert(std::size(kLayerNames) == static_cast<std::size_t>(Layer::kCount));

/// Layers whose self time is the program's own work (the rest are the
/// benchmark's bookkeeping: pass/unit roots and the probes).
constexpr Layer kProgramLayers[] = {
    Layer::kPcapParse, Layer::kNetParse,    Layer::kClassify,    Layer::kReassemble,
    Layer::kTriage,    Layer::kCacheKey,    Layer::kCacheLookup, Layer::kCacheInsert,
    Layer::kExtract,   Layer::kAnalyze,
};

constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t unit = 0;
  Layer layer{};
  bool quiet = false;  // an ignored packet's span: kept for self time, not written
};

/// In-memory span store with a parent stack. Spans are written out once,
/// at the end of the run.
class SpanLog {
 public:
  std::uint32_t begin(Layer layer, std::uint32_t unit) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    // A span without its own unit id belongs to its parent's unit.
    if (unit == 0 && parent != kNoParent) unit = spans_[parent].unit;
    spans_.push_back({now_ns(), 0, parent, unit, layer, false});
    stack_.push_back(idx);
    return idx;
  }
  void end() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }
  void mark_quiet(std::uint32_t idx) { spans_[idx].quiet = true; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per layer over spans [from, size()): a span's duration
  /// minus what its children cover, less the measured cost of an empty
  /// span (the clock reads inside it), floored at zero.
  [[nodiscard]] std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns(
      std::size_t from, double empty_span_ns) const {
    std::vector<double> child(spans_.size() - from, 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent != kNoParent && s.parent >= from) {
        child[s.parent - from] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::array<double, static_cast<std::size_t>(Layer::kCount)> out{};
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self =
          static_cast<double>(s.end_ns - s.start_ns) - child[i - from] - empty_span_ns;
      out[static_cast<std::size_t>(s.layer)] += std::max(0.0, self);
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond times),
  /// the format senids_scan --trace-out writes. Quiet spans and spans
  /// past `max_events` are counted in the metadata, not written.
  bool write_chrome(const std::string& path, std::size_t max_events) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::size_t written = 0, omitted = 0;
    out << "{\"traceEvents\": [\n";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.quiet || written >= max_events) {
        ++omitted;
        continue;
      }
      std::snprintf(line, sizeof line,
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"unit\":%u,\"span\":%zu,"
                    "\"parent\":%lld}}",
                    written ? ",\n" : "", kLayerNames[static_cast<std::size_t>(s.layer)],
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.unit, i,
                    s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
      out << line;
      ++written;
    }
    out << "\n], \"displayTimeUnit\": \"ns\", \"otherData\": {\"spans\": " << spans_.size()
        << ", \"written\": " << written << ", \"omitted\": " << omitted << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, Layer layer, std::uint32_t unit = 0) : log_(log) {
    index_ = log.begin(layer, unit);
  }
  ~Scope() { log_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

 private:
  SpanLog& log_;
  std::uint32_t index_ = 0;
};

/// Median duration of an empty span: the clock-read cost every measured
/// span carries, subtracted when self times are derived.
double empty_span_ns() {
  SpanLog log;
  for (int i = 0; i < 4096; ++i) Scope s(log, Layer::kProbe);
  std::vector<double> d;
  d.reserve(log.size());
  for (const Span& s : log.spans()) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return median(std::move(d));
}

// ------------------------------------------------------ traced pipeline

/// Work counts of one traced pass, counted where the calls are made.
struct Counts {
  std::size_t records = 0;
  std::size_t packets = 0;           // parsed IP packets
  std::size_t reassembled_bytes = 0; // TCP payload bytes fed to reassembly
  std::size_t units = 0;
  std::size_t screened_bytes = 0;
  std::size_t escalated = 0;
  std::size_t escalated_alerting = 0;
  std::size_t key_bytes = 0;
  std::size_t lookups = 0;
  std::size_t inserts = 0;
  std::size_t extract_bytes = 0;
  std::size_t analyzed_bytes = 0;
};

struct TracedPass {
  double wall_s = 0;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns{};
  Counts counts;
  std::vector<core::Alert> alerts;
};

/// The serial batch pipeline, rebuilt from public layer calls on a fresh
/// engine's components (its classifier, triage filter, verdict cache,
/// analyzer and config fingerprint). `frames` collects the analyzed
/// frames for the probes, up to its capacity.
class TracedPipeline {
 public:
  TracedPipeline(const Workload& w, SpanLog& log, std::vector<util::Bytes>* frames,
                 std::size_t max_frames)
      : w_(w),
        log_(log),
        engine_(make_engine(w)),
        extractor_(engine_.options().extractor),
        frames_(frames),
        max_frames_(max_frames) {}

  TracedPass run(double empty_span_ns) {
    TracedPass out;
    const std::size_t first = log_.size();
    {
      Scope pass(log_, Layer::kPass);
      std::optional<pcap::Capture> capture;
      {
        Scope s(log_, Layer::kPcapParse);
        capture = pcap::parse(w_.wire);
      }
      if (capture) {
        for (const pcap::Record& rec : capture->records) record(rec);
      }
      for (auto& [key, flow] : flows_) flush(flow);
      flows_.clear();
    }
    const Span& pass = log_.spans()[first];
    out.wall_s = static_cast<double>(pass.end_ns - pass.start_ns) / 1e9;
    out.self_ns = log_.self_ns(first, empty_span_ns);
    out.counts = counts_;
    std::sort(alerts_.begin(), alerts_.end(), core::alert_less);
    out.alerts = std::move(alerts_);
    return out;
  }

 private:
  struct Flow {
    net::TcpReassembler reassembler;
    core::Alert meta;
    explicit Flow(std::size_t cap) : reassembler(cap, cap) {}
  };

  void record(const pcap::Record& rec) {
    ++counts_.records;
    std::optional<net::ParsedPacket> pkt;
    std::uint32_t parse_span = 0, classify_span = 0;
    {
      Scope s(log_, Layer::kNetParse);
      parse_span = s.index();
      pkt = net::parse_frame(rec.data, rec.ts_sec, rec.ts_usec);
    }
    if (!pkt) return;
    ++counts_.packets;
    classify::Verdict verdict{};
    {
      Scope s(log_, Layer::kClassify);
      classify_span = s.index();
      verdict = engine_.classifier().observe(*pkt);
    }
    // The workloads carry no IP fragments; a fragment is not analyzed here.
    if (verdict != classify::Verdict::kAnalyze ||
        pkt->transport == net::Transport::kFragment) {
      log_.mark_quiet(parse_span);
      log_.mark_quiet(classify_span);
      return;
    }
    core::Alert meta;
    meta.ts_sec = pkt->ts_sec;
    meta.src = pkt->ip.src;
    meta.dst = pkt->ip.dst;
    meta.src_port = pkt->src_port();
    meta.dst_port = pkt->dst_port();
    const core::NidsOptions& o = engine_.options();
    if (pkt->transport == net::Transport::kTcp && o.reassemble_tcp) {
      const net::FlowKey key = net::FlowKey::of(*pkt);
      auto it = flows_.find(key);
      if (it == flows_.end()) {
        it = flows_.emplace(key, Flow(o.max_stream_bytes)).first;
        it->second.meta = meta;
      }
      Flow& flow = it->second;
      bool done = false;
      {
        Scope s(log_, Layer::kReassemble);
        flow.reassembler.feed(pkt->tcp.seq, pkt->tcp.flags, pkt->payload);
        done = flow.reassembler.closed() || flow.reassembler.truncated() ||
               flow.reassembler.stream().size() >= o.max_stream_bytes;
      }
      counts_.reassembled_bytes += pkt->payload.size();
      if (done) {
        flush(flow);
        flows_.erase(it);
      }
    } else if (!pkt->payload.empty()) {
      unit(pkt->payload, meta);
    }
  }

  void flush(Flow& flow) {
    util::Bytes stream;
    {
      Scope s(log_, Layer::kReassemble);
      stream = flow.reassembler.take_stream();
    }
    if (!stream.empty()) unit(stream, flow.meta);
  }

  void unit(util::ByteView payload, const core::Alert& meta) {
    ++counts_.units;
    Scope u(log_, Layer::kUnit, static_cast<std::uint32_t>(counts_.units));
    if (const triage::TriageFilter* filter = engine_.triage_filter()) {
      counts_.screened_bytes += payload.size();
      triage::TriageDecision d;
      {
        Scope s(log_, Layer::kTriage);
        d = filter->screen(payload, meta.dst_port);
      }
      if (!d.escalate) return;
    }
    ++counts_.escalated;
    cache::VerdictCache* vcache = engine_.verdict_cache();
    const bool cacheable = vcache && payload.size() <= engine_.options().cache_max_unit_bytes;
    cache::Digest key{};
    if (cacheable) {
      const cache::Digest& fp = engine_.config_fingerprint();
      counts_.key_bytes += fp.size() + payload.size();
      {
        Scope s(log_, Layer::kCacheKey);
        cache::Sha256 ctx;
        ctx.update(fp.data(), fp.size());
        ctx.update(payload);
        key = ctx.finish();
      }
      ++counts_.lookups;
      std::optional<cache::Verdict> hit;
      {
        Scope s(log_, Layer::kCacheLookup);
        hit = vcache->lookup(key);
      }
      if (hit) {
        for (const cache::CachedAlert& ca : hit->alerts) {
          core::Alert a = meta;
          a.threat = ca.threat;
          a.template_name = ca.template_name;
          a.frame_reason = ca.frame_reason;
          a.frame_offset = ca.frame_offset;
          alerts_.push_back(std::move(a));
        }
        if (!hit->alerts.empty()) ++counts_.escalated_alerting;
        return;
      }
    }
    counts_.extract_bytes += payload.size();
    {
      Scope s(log_, Layer::kExtract);
      extractor_.extract(payload, frames_buf_);
    }
    const std::size_t alerts_before = alerts_.size();
    fired_.clear();
    cache::Verdict verdict;
    for (const extract::BinaryFrame& frame : frames_buf_) {
      counts_.analyzed_bytes += frame.data.size();
      verdict.bytes_analyzed += frame.data.size();
      if (frames_ && frames_->size() < max_frames_) frames_->push_back(frame.data);
      std::vector<semantic::Detection> found;
      {
        Scope s(log_, Layer::kAnalyze);
        found = engine_.analyzer().analyze(frame.data, &astats_, scratch_);
      }
      for (semantic::Detection& d : found) {
        if (!fired_.insert(d.template_name).second) continue;
        core::Alert a = meta;
        a.threat = d.threat;
        a.template_name = std::move(d.template_name);
        a.frame_reason = frame.reason;
        a.frame_offset = frame.src_offset;
        verdict.alerts.push_back({a.threat, a.template_name, a.frame_reason, a.frame_offset});
        alerts_.push_back(std::move(a));
      }
    }
    if (alerts_.size() > alerts_before) ++counts_.escalated_alerting;
    if (cacheable) {
      verdict.frames_extracted = frames_buf_.size();
      ++counts_.inserts;
      Scope s(log_, Layer::kCacheInsert);
      vcache->insert(key, std::move(verdict));
    }
  }

  const Workload& w_;
  SpanLog& log_;
  core::NidsEngine engine_;
  extract::BinaryExtractor extractor_;
  semantic::AnalyzerScratch scratch_;
  semantic::AnalyzerStats astats_;
  std::vector<extract::BinaryFrame> frames_buf_;
  std::unordered_set<std::string> fired_;
  net::FlowMap<Flow> flows_;
  std::vector<core::Alert> alerts_;
  Counts counts_;
  std::vector<util::Bytes>* frames_;
  std::size_t max_frames_;
};

// --------------------------------------------------------------- probes

struct ProbeCosts {
  double scan_ns_per_byte = 0;
  double trace_ns_per_insn = 0;
  double lift_ns_per_insn = 0;
  double match_ns_per_try = 0;
};

/// Per-operation cost of the layers inside SemanticAnalyzer::analyze,
/// from direct calls on the workload's own frames: the candidate scan
/// over each frame, then from each run start (longest runs first, as the
/// analyzer orders them) an execution trace, its lift, and one match try
/// per template.
ProbeCosts probe(const Workload& w, const std::vector<util::Bytes>& frames, SpanLog& log,
                 double empty_span_ns) {
  constexpr std::size_t kEntriesPerFrame = 64;
  const core::NidsEngine engine = make_engine(w);
  const semantic::SemanticAnalyzer::Options& ao = engine.analyzer().options();
  const arch::Arch& isa = ao.arch ? *ao.arch : arch::Arch::x86_32();
  const std::vector<semantic::Template>& templates = engine.analyzer().templates();
  arch::ScanScratch scratch;
  std::vector<arch::CodeRun> runs;
  std::vector<arch::Instruction> trace;
  ir::LiftResult lifted;
  std::size_t bytes = 0, traced = 0, lifted_insns = 0, tries = 0;

  const std::size_t first = log.size();
  {
    Scope root(log, Layer::kProbe);
    for (const util::Bytes& frame : frames) {
      bytes += frame.size();
      {
        Scope s(log, Layer::kArchScan);
        isa.find_code_runs(frame, ao.min_run_insns, runs, scratch);
      }
      std::stable_sort(runs.begin(), runs.end(), [](const arch::CodeRun& a,
                                                    const arch::CodeRun& b) {
        return a.insn_count > b.insn_count;
      });
      for (std::size_t r = 0; r < runs.size() && r < kEntriesPerFrame; ++r) {
        {
          Scope s(log, Layer::kArchTrace);
          isa.execution_trace(frame, runs[r].start, ao.max_trace_insns, trace, scratch);
        }
        traced += trace.size();
        if (trace.size() < ao.min_run_insns) continue;
        {
          Scope s(log, Layer::kIrLift);
          ir::lift(trace, lifted);
        }
        lifted_insns += trace.size();
        const semantic::LiftedCode code{&trace, &lifted.events, frame};
        for (const semantic::Template& t : templates) {
          ++tries;
          Scope s(log, Layer::kMatch);
          (void)semantic::match_template(t, code);
        }
      }
    }
  }
  const auto self = log.self_ns(first, empty_span_ns);
  auto per = [](double ns, std::size_t n) { return n ? ns / static_cast<double>(n) : 0.0; };
  ProbeCosts c;
  c.scan_ns_per_byte = per(self[static_cast<std::size_t>(Layer::kArchScan)], bytes);
  c.trace_ns_per_insn = per(self[static_cast<std::size_t>(Layer::kArchTrace)], traced);
  c.lift_ns_per_insn = per(self[static_cast<std::size_t>(Layer::kIrLift)], lifted_insns);
  c.match_ns_per_try = per(self[static_cast<std::size_t>(Layer::kMatch)], tries);
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double host_ref_ns_per_byte() {
  // 64-bit FNV-1a: a serial multiply chain the compiler cannot vectorize,
  // and code of the benchmark's own, so no change to the program moves it.
  static const util::Bytes buffer = [] {
    util::Bytes b(1 << 16);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return b;
  }();
  constexpr int kReps = 64;
  static volatile std::uint64_t sink = 0;  // keeps the loop observable
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t h = 14695981039346656037ULL;
  for (int r = 0; r < kReps; ++r) {
    for (std::uint8_t byte : buffer) h = (h ^ byte) * 1099511628211ULL;
  }
  sink = sink + h;
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kReps * buffer.size());
}

int run_traced(const Workload& w, double seconds, const std::string& trace_out) {
  constexpr std::size_t kMinRounds = 3;
  constexpr std::size_t kProbeFrames = 48;
  constexpr std::size_t kMaxWrittenSpans = 200000;
  const double span_cost = empty_span_ns();

  // Rounds of {untraced batch pass, traced pass}, alternating so both
  // see the same host; the span log keeps only the latest traced pass
  // (plus the probes below) for the trace file.
  std::vector<double> untraced_wall, traced_wall, host;
  std::vector<std::array<double, static_cast<std::size_t>(Layer::kCount)>> self;
  std::optional<BatchPass> program;  // the first untraced pass: counts + alerts
  std::optional<TracedPass> traced;
  std::vector<util::Bytes> frames;
  SpanLog log;
  std::size_t rounds = 0;
  const double deadline = now_s() + seconds;
  while (rounds < kMinRounds || now_s() < deadline) {
    host.push_back(host_ref_ns_per_byte());
    BatchPass batch = batch_pass(w);
    untraced_wall.push_back(batch.seconds);
    if (!program) program = std::move(batch);

    log = SpanLog{};
    TracedPipeline pipeline(w, log, rounds == 0 ? &frames : nullptr, kProbeFrames);
    TracedPass pass = pipeline.run(span_cost);
    traced_wall.push_back(pass.wall_s);
    self.push_back(pass.self_ns);
    if (!traced) traced = std::move(pass);
    ++rounds;
  }
  const ProbeCosts probes = probe(w, frames, log, span_cost);
  const bool wrote = trace_out.empty() || log.write_chrome(trace_out, kMaxWrittenSpans);

  // Correctness: the program's batch and streaming verdicts against
  // ground truth, and the traced composition against the program (a
  // traced pass that alerts differently is not measuring the same work).
  const StreamPass stream = stream_pass(w);
  const core::NidsStats st = program->report.stats;  // the program's own counters
  Verifier verifier(w, std::move(program->report.alerts));
  verifier.compare(stream.alerts);
  verifier.compare(traced->alerts);
  const std::size_t failed = verifier.failed();
  verifier.print_failures(5);

  auto layer_ns = [&](Layer l) {
    std::vector<double> v;
    for (const auto& s : self) v.push_back(s[static_cast<std::size_t>(l)]);
    return median(std::move(v));
  };
  const semantic::AnalyzerStats& an = st.analyzer;
  const Counts& c = traced->counts;
  const double wall_ns = median(untraced_wall) * 1e9;
  double attributed_ns = 0;
  for (Layer l : kProgramLayers) attributed_ns += layer_ns(l);
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  const std::size_t extracted_units =
      (st.triage_screened ? st.triage_escalated : st.units_analyzed) - st.cache_hits;

  Metrics m;
  m.set("pcap.parse_ns_per_byte", ratio(layer_ns(Layer::kPcapParse), n(w.wire.size())),
        "ns/B");
  m.set("net.parse_ns_per_pkt", ratio(layer_ns(Layer::kNetParse), n(c.records)), "ns/pkt");
  m.set("net.reassemble_ns_per_byte",
        ratio(layer_ns(Layer::kReassemble), n(c.reassembled_bytes)), "ns/B");
  m.set("classify.ns_per_pkt", ratio(layer_ns(Layer::kClassify), n(c.packets)), "ns/pkt");
  m.set("classify.analyzed_pkt_share", ratio(n(st.suspicious_packets), n(st.packets)),
        "ratio");
  m.set("triage.ns_per_byte", ratio(layer_ns(Layer::kTriage), n(c.screened_bytes)), "ns/B");
  m.set("triage.escalated_share", ratio(n(st.triage_escalated), n(st.triage_screened)),
        "ratio");
  m.set("triage.escalated_alerting_share", ratio(n(c.escalated_alerting), n(c.escalated)),
        "ratio");
  m.set("cache.key_ns_per_byte", ratio(layer_ns(Layer::kCacheKey), n(c.key_bytes)), "ns/B");
  m.set("cache.lookup_ns", ratio(layer_ns(Layer::kCacheLookup), n(c.lookups)), "ns");
  m.set("cache.insert_ns", ratio(layer_ns(Layer::kCacheInsert), n(c.inserts)), "ns");
  m.set("cache.hit_ratio", ratio(n(st.cache_hits), n(st.cache_hits + st.cache_misses)),
        "ratio");
  m.set("extract.ns_per_byte", ratio(layer_ns(Layer::kExtract), n(c.extract_bytes)), "ns/B");
  m.set("extract.frames_per_unit", ratio(n(an.frames), n(extracted_units)), "count");
  m.set("arch.scan_ns_per_byte", probes.scan_ns_per_byte, "ns/B");
  m.set("arch.trace_ns_per_insn", probes.trace_ns_per_insn, "ns/insn");
  m.set("arch.traces_per_kb", ratio(n(an.traces), n(st.bytes_analyzed) / 1024.0), "count/KB");
  m.set("ir.lift_ns_per_insn", probes.lift_ns_per_insn, "ns/insn");
  m.set("ir.lifted_insns_per_byte", ratio(n(an.instructions_lifted), n(st.bytes_analyzed)),
        "count/B");
  m.set("semantic.analyze_ns_per_byte",
        ratio(layer_ns(Layer::kAnalyze), n(c.analyzed_bytes)), "ns/B");
  m.set("semantic.match_ns_per_try", probes.match_ns_per_try, "ns");
  m.set("semantic.tries_per_trace", ratio(n(an.template_matches_tried), n(an.traces)),
        "count");
  m.set("semantic.budget_exhausted_units",
        n(an.entry_budget_exhausted + an.insn_budget_exhausted), "count");
  m.set("core.unattributed_share", ratio(wall_ns - attributed_ns, wall_ns), "ratio");
  m.set("trace.overhead_share",
        ratio(median(traced_wall) - median(untraced_wall), median(untraced_wall)), "ratio");
  m.set("host.ref_ns_per_byte", median(host), "ns/B");

  std::printf("workload %s: traced run, %zu rounds; untraced pass %.4f s, traced pass "
              "%.4f s; empty span %.1f ns\n",
              w.name.c_str(), rounds, median(untraced_wall), median(traced_wall), span_cost);
  std::printf("self time per layer (median ns per traced pass; share of untraced wall):\n");
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    const double ns = layer_ns(static_cast<Layer>(l));
    if (ns > 0) {
      std::printf("  %-18s %14.0f  %6.2f%%\n", kLayerNames[l], ns, 100.0 * ratio(ns, wall_ns));
    }
  }
  std::printf("counts: units %zu, escalated %zu, alerting %zu, frames probed %zu, "
              "spans %zu\n",
              c.units, c.escalated, c.escalated_alerting, frames.size(), log.size());
  if (!trace_out.empty()) {
    std::printf("trace: %s %s\n", wrote ? "wrote" : "FAILED to write", trace_out.c_str());
  }
  std::printf("failed_share: %zu / %zu flows\n", failed, w.flows.size());
  m.print_result(verifier.correct() && wrote, w.flows.size(), failed);
  return wrote ? 0 : 1;
}

}  // namespace perfbench
