// senids_scan: command-line NIDS. Reads a pcap capture, runs the full
// Figure-3 pipeline (plus optional emulation deep analysis), and prints
// alerts as text or JSON.
//
//   senids_scan [options] <capture.pcap>
//     --honeypot <ip>         register a decoy address (repeatable)
//     --dark <a.b.c.d/nn>     register unused address space (repeatable)
//     --dark-threshold <n>    scan count before a source is tainted (default 5)
//     --arch <name>           instruction set for analysis/emulation:
//                             x86_32 (default) or x86_64
//     --analyze-all           disable classification (analyze every payload)
//     --templates <file>      load the template set from a DSL file
//                             instead of the built-in one; a file the
//                             template linter finds errors in is refused
//     --extended              use the extended template library (not
//                             with --templates)
//     --emulate               enable emulation-backed deep analysis
//     --threads <n>           analysis threads (default 1). With one
//                             shard, 0 and 1 analyze on the calling
//                             thread and n > 1 adds n analysis threads;
//                             with --shards s > 1, max(n, s) threads
//                             run, the first s running a shard each
//     --shards <n>            source-affine stage-(a) shards (default 1)
//     --verdict-cache-mb <n>  verdict cache byte budget in MB (default 64)
//     --no-verdict-cache      disable the content-addressed verdict cache
//     --no-triage             disable the stage-0 triage prefilter (every
//                             unit goes through full stage (b)-(e) analysis)
//     --flow-timeout <sec>    evict flows idle for this long (default off)
//     --max-flows <n>         cap on live flows, LRU eviction (default off)
//     --json                  machine-readable output
//     --quiet                 alerts only, no statistics
//     --metrics-out <file>    write pipeline metrics after the run
//                             (.json -> JSON, else Prometheus text);
//                             written atomically (temp file + rename)
//     --metrics-interval <s>  also rewrite --metrics-out every s seconds
//                             while the capture runs (default 5 once
//                             --metrics-out is set; 0 disables)
//     --trace-out <file>      record per-unit stage spans and write them
//                             (.jsonl -> JSONL, else Chrome trace JSON
//                             loadable in ui.perfetto.dev)
//     --telemetry-port <p>    serve /metrics /healthz /statusz /tracez
//                             over HTTP on 127.0.0.1:<p> (0 = ephemeral;
//                             the bound port is printed to stderr)
//     --telemetry-linger <s>  keep the telemetry server up s seconds
//                             after the run so scrapers can collect
//     --flight-recorder-slots <n>  per-worker flight-recorder ring size
//                             (default 256 with --telemetry-port, else 0)
//
//   Numeric values (and the --dark prefix length) must be whole decimal
//   numbers within the flag's range; anything else exits 2, like a
//   missing value or an unknown flag.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch.hpp"
#include "core/senids.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/server.hpp"
#include "obs/trace.hpp"
#include "sig/ruleparse.hpp"
#include "verify/lint.hpp"

using namespace senids;

namespace {

/// Upper bound for --threads and --shards.
constexpr std::uint64_t kMaxThreads = 1024;
/// Upper bound for the seconds flags (--metrics-interval,
/// --telemetry-linger): one day.
constexpr std::uint64_t kMaxSeconds = 86'400;

struct CliOptions {
  const arch::Arch* arch = nullptr;  // nullptr = x86_32
  std::vector<net::Ipv4Addr> honeypots;
  std::vector<classify::Prefix> dark;
  std::size_t dark_threshold = 5;
  bool analyze_all = false;
  std::string templates_file;
  std::string sig_rules_file;
  bool extended = false;
  bool emulate = false;
  std::size_t verdict_cache_mb = 64;  // 0 = disabled (--no-verdict-cache)
  bool triage = true;                 // false = --no-triage
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::uint32_t flow_timeout = 0;
  std::size_t max_flows = 0;
  bool json = false;
  bool quiet = false;
  bool summary = false;
  std::string metrics_out;
  double metrics_interval = -1.0;  // <0 = default (5s when --metrics-out set)
  std::string trace_out;
  int telemetry_port = -1;  // <0 = no telemetry server; 0 = ephemeral
  double telemetry_linger = 0.0;
  std::size_t flight_slots = static_cast<std::size_t>(-1);  // -1 = default
  std::string pcap_path;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <capture.pcap>\n"
               "  --honeypot <ip>       register a decoy address (repeatable)\n"
               "  --dark <a.b.c.d/nn>   register unused address space (repeatable)\n"
               "  --dark-threshold <n>  scans before a source is tainted (default 5)\n"
               "  --arch <name>         analysis ISA: x86_32 (default) | x86_64\n"
               "  --analyze-all         disable classification\n"
               "  --templates <file>    template set from a DSL file (replaces the built-in one)\n"
               "  --sig-rules <file>    also run Snort-style content rules\n"
               "  --extended            use the extended template library (not with --templates)\n"
               "  --emulate             enable emulation deep analysis\n"
               "  --threads <n>         analysis threads (0, 1: on the caller or the shard threads)\n"
               "  --shards <n>          source-affine stage-(a) shards, each on its own thread\n"
               "  --verdict-cache-mb <n>  verdict cache byte budget (default 64)\n"
               "  --no-verdict-cache    disable the verdict cache\n"
               "  --no-triage           disable the stage-0 triage prefilter\n"
               "  --flow-timeout <sec>  evict flows idle this many seconds\n"
               "  --max-flows <n>       cap live flows (oldest-first eviction)\n"
               "  --json                JSON output\n"
               "  --summary             full report rendering\n"
               "  --quiet               alerts only\n"
               "  --metrics-out <file>  write pipeline metrics after the run\n"
               "                        (.json -> JSON, else Prometheus text)\n"
               "  --metrics-interval <s>  rewrite --metrics-out every s seconds\n"
               "                        during the run (default 5; 0 = off)\n"
               "  --trace-out <file>    record stage spans, write Chrome trace\n"
               "                        JSON (.jsonl -> one span per line)\n"
               "  --telemetry-port <p>  serve /metrics /healthz /statusz /tracez\n"
               "                        on 127.0.0.1:<p> (0 = ephemeral port)\n"
               "  --telemetry-linger <s>  keep the server up s seconds after\n"
               "                        the run finishes\n"
               "  --flight-recorder-slots <n>  per-worker unit flight-recorder\n"
               "                        ring size (default 256 with telemetry)\n",
               argv0);
}

/// The value of a numeric flag: a whole decimal number in [min, max],
/// nothing else (no sign, fraction, exponent or trailing text). Anything
/// else is a bad flag: print why and exit 2.
std::uint64_t parse_number(std::string_view flag, std::string_view text, std::uint64_t min,
                           std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min || v > max) {
    std::fprintf(stderr, "bad %.*s value '%.*s': want a whole number from %llu to %llu\n",
                 static_cast<int>(flag.size()), flag.data(), static_cast<int>(text.size()),
                 text.data(), static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

std::optional<classify::Prefix> parse_prefix(std::string_view text) {
  const std::size_t slash = text.find('/');
  std::string addr_part(text.substr(0, slash));
  auto addr = net::Ipv4Addr::parse(addr_part);
  if (!addr) return std::nullopt;
  std::uint8_t bits = 32;
  if (slash != std::string_view::npos) {
    bits = static_cast<std::uint8_t>(
        parse_number("--dark prefix length", text.substr(slash + 1), 0, 32));
  }
  return classify::Prefix{*addr, bits};
}

/// Atomic write: stream into a sibling temp file, then rename over the
/// destination. A scraper tailing --metrics-out during the periodic
/// rewrites never observes a half-written file.
bool write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void write_metrics_snapshot(const std::string& path) {
  const auto& registry = obs::Registry::instance();
  const bool as_json = path.ends_with(".json");
  if (!write_file(path, as_json ? registry.json() : registry.prometheus_text())) {
    std::fprintf(stderr, "cannot write metrics file: %s\n", path.c_str());
  }
}

/// Rewrites --metrics-out every `interval` seconds until stopped: a
/// long capture becomes scrapeable from the filesystem mid-run, not
/// only after it finishes.
class PeriodicMetricsWriter {
 public:
  PeriodicMetricsWriter(std::string path, double interval)
      : path_(std::move(path)),
        thread_([this, interval] {
          const auto step = std::chrono::milliseconds(100);
          auto next = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(interval));
          while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(step);
            if (std::chrono::steady_clock::now() < next) continue;
            write_metrics_snapshot(path_);
            next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(interval));
          }
        }) {}

  ~PeriodicMetricsWriter() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::string path_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string fingerprint_hex(const cache::Digest& digest) {
  std::string out;
  out.reserve(digest.size() * 2);
  for (std::uint8_t b : digest) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](std::uint64_t min, std::uint64_t max) -> std::size_t {
      const char* flag = argv[i];
      return parse_number(flag, next(), min, max);
    };
    if (arg == "--honeypot") {
      auto ip = net::Ipv4Addr::parse(next());
      if (!ip) {
        std::fprintf(stderr, "bad --honeypot address\n");
        return 2;
      }
      cli.honeypots.push_back(*ip);
    } else if (arg == "--dark") {
      auto prefix = parse_prefix(next());
      if (!prefix) {
        std::fprintf(stderr, "bad --dark prefix\n");
        return 2;
      }
      cli.dark.push_back(*prefix);
    } else if (arg == "--dark-threshold") {
      cli.dark_threshold = number(1, 1'000'000);
    } else if (arg == "--arch") {
      const char* name = next();
      cli.arch = arch::Arch::by_name(name);
      if (!cli.arch) {
        std::fprintf(stderr, "unknown --arch: %s (known:", name);
        for (const arch::Arch* a : arch::Arch::all()) {
          std::fprintf(stderr, " %s", std::string(a->name()).c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    } else if (arg == "--analyze-all") {
      cli.analyze_all = true;
    } else if (arg == "--templates") {
      cli.templates_file = next();
    } else if (arg == "--sig-rules") {
      cli.sig_rules_file = next();
    } else if (arg == "--extended") {
      cli.extended = true;
    } else if (arg == "--emulate") {
      cli.emulate = true;
    } else if (arg == "--threads") {
      cli.threads = number(0, kMaxThreads);
    } else if (arg == "--shards") {
      cli.shards = number(1, kMaxThreads);
    } else if (arg == "--verdict-cache-mb") {
      cli.verdict_cache_mb = number(0, 1u << 20);
    } else if (arg == "--no-verdict-cache") {
      cli.verdict_cache_mb = 0;
    } else if (arg == "--no-triage") {
      cli.triage = false;
    } else if (arg == "--flow-timeout") {
      cli.flow_timeout = static_cast<std::uint32_t>(number(0, UINT32_MAX));
    } else if (arg == "--max-flows") {
      cli.max_flows = number(0, UINT32_MAX);
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--metrics-out") {
      cli.metrics_out = next();
    } else if (arg == "--metrics-interval") {
      cli.metrics_interval = static_cast<double>(number(0, kMaxSeconds));
    } else if (arg == "--trace-out") {
      cli.trace_out = next();
    } else if (arg == "--telemetry-port") {
      cli.telemetry_port = static_cast<int>(number(0, 65535));
    } else if (arg == "--telemetry-linger") {
      cli.telemetry_linger = static_cast<double>(number(0, kMaxSeconds));
    } else if (arg == "--flight-recorder-slots") {
      cli.flight_slots = number(0, 1u << 20);
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--summary") {
      cli.summary = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    } else {
      cli.pcap_path = std::string(arg);
    }
  }
  if (cli.pcap_path.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (cli.extended && !cli.templates_file.empty()) {
    std::fprintf(stderr, "--extended and --templates each choose the template set; give one\n");
    usage(argv[0]);
    return 2;
  }

  auto capture = pcap::read_file(cli.pcap_path);
  if (!capture) {
    std::fprintf(stderr, "cannot read pcap file: %s\n", cli.pcap_path.c_str());
    return 1;
  }

  // Template set: standard, extended, or a DSL file in their place. A
  // file must pass the checks senids_lint runs (a repeated name is one).
  std::vector<semantic::Template> templates;
  if (cli.templates_file.empty()) {
    templates =
        cli.extended ? semantic::make_extended_library() : semantic::make_standard_library();
  } else {
    std::ifstream in(cli.templates_file);
    if (!in) {
      std::fprintf(stderr, "cannot open templates file: %s\n", cli.templates_file.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = semantic::parse_templates(buf.str());
    if (auto* err = std::get_if<semantic::ParseError>(&parsed)) {
      std::fprintf(stderr, "%s:%zu: %s\n", cli.templates_file.c_str(), err->line,
                   err->message.c_str());
      return 1;
    }
    templates = std::move(std::get<std::vector<semantic::Template>>(parsed));
    const verify::Report lint = verify::lint_templates(templates);
    if (!lint.ok()) {
      std::fprintf(stderr, "%s: refused, the template linter reports:\n%s",
                   cli.templates_file.c_str(), lint.str().c_str());
      return 1;
    }
  }

  core::NidsOptions options;
  options.arch = cli.arch;
  options.classifier.analyze_everything = cli.analyze_all;
  options.classifier.dark_space_threshold = cli.dark_threshold;
  options.threads = cli.threads;
  options.shards = cli.shards;
  options.verdict_cache_bytes = cli.verdict_cache_mb << 20;
  options.triage.mode =
      cli.triage ? triage::TriageMode::kOn : triage::TriageMode::kOff;
  options.flow_idle_timeout_sec = cli.flow_timeout;
  options.max_flows = cli.max_flows;
  options.enable_emulation = cli.emulate;
  core::NidsEngine nids(options, std::move(templates));
  for (auto ip : cli.honeypots) nids.classifier().honeypots().add_decoy(ip);
  for (auto p : cli.dark) nids.classifier().dark_space().add_unused_prefix(p);

  // Span recording is off by default (it buffers one record per stage per
  // unit); --trace-out is the opt-in.
  if (!cli.trace_out.empty()) obs::Tracer::set_enabled(true);

  // Flight recorder: on by default when telemetry is served (a /tracez
  // endpoint with nothing behind it is useless), opt-in otherwise.
  std::size_t flight_slots = cli.flight_slots;
  if (flight_slots == static_cast<std::size_t>(-1)) {
    flight_slots = cli.telemetry_port >= 0 ? 256 : 0;
  }
  if (flight_slots > 0) {
    obs::FlightRecorder::instance().configure({.slots = flight_slots});
  }

  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (cli.telemetry_port >= 0) {
    obs::TelemetryOptions topt;
    topt.port = static_cast<std::uint16_t>(cli.telemetry_port);
    topt.build_info = fingerprint_hex(nids.config_fingerprint());
    telemetry = obs::TelemetryServer::start(std::move(topt));
    if (!telemetry) return 1;
    std::fprintf(stderr, "telemetry: http://127.0.0.1:%u/ (metrics healthz statusz tracez)\n",
                 telemetry->port());
  }

  core::Report report;
  {
    // Periodic on-disk metrics flush while the capture runs.
    double interval = cli.metrics_interval;
    if (interval < 0) interval = cli.metrics_out.empty() ? 0.0 : 5.0;
    std::unique_ptr<PeriodicMetricsWriter> flusher;
    if (!cli.metrics_out.empty() && interval > 0) {
      flusher = std::make_unique<PeriodicMetricsWriter>(cli.metrics_out, interval);
    }
    report = nids.process_capture(*capture);
  }

  // Optional syntactic side-channel: run Snort-style content rules over
  // every payload and report their hits alongside the semantic alerts.
  if (!cli.sig_rules_file.empty()) {
    std::ifstream in(cli.sig_rules_file);
    if (!in) {
      std::fprintf(stderr, "cannot open rules file: %s\n", cli.sig_rules_file.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = sig::parse_snort_rules(buf.str());
    if (auto* err = std::get_if<sig::RuleParseError>(&parsed)) {
      std::fprintf(stderr, "%s:%zu: %s\n", cli.sig_rules_file.c_str(), err->line,
                   err->message.c_str());
      return 1;
    }
    sig::SignatureEngine engine(std::move(std::get<std::vector<sig::Rule>>(parsed)));
    for (const auto& rec : capture->records) {
      auto pkt = net::parse_frame(rec.data, rec.ts_sec, rec.ts_usec);
      if (!pkt || pkt->payload.empty()) continue;
      for (const auto& hit : engine.scan(pkt->payload, pkt->dst_port())) {
        core::Alert a;
        a.ts_sec = pkt->ts_sec;
        a.src = pkt->ip.src;
        a.dst = pkt->ip.dst;
        a.src_port = pkt->src_port();
        a.dst_port = pkt->dst_port();
        a.threat = semantic::ThreatClass::kCustom;
        a.template_name = "sig:" + hit.rule_name;
        a.frame_reason = extract::FrameReason::kWholePayload;  // raw payload scan
        a.frame_offset = hit.offset;
        report.alerts.push_back(std::move(a));
      }
    }
  }

  if (!cli.metrics_out.empty()) {
    const auto& registry = obs::Registry::instance();
    const bool as_json = cli.metrics_out.ends_with(".json");
    if (!write_file(cli.metrics_out,
                    as_json ? registry.json() : registry.prometheus_text())) {
      std::fprintf(stderr, "cannot write metrics file: %s\n", cli.metrics_out.c_str());
      return 1;
    }
  }
  if (!cli.trace_out.empty()) {
    const auto& tracer = obs::Tracer::instance();
    const bool as_jsonl = cli.trace_out.ends_with(".jsonl");
    if (!write_file(cli.trace_out,
                    as_jsonl ? tracer.jsonl() : tracer.chrome_trace_json())) {
      std::fprintf(stderr, "cannot write trace file: %s\n", cli.trace_out.c_str());
      return 1;
    }
  }

  if (cli.json) {
    std::printf("{\n  \"alerts\": [\n");
    for (std::size_t i = 0; i < report.alerts.size(); ++i) {
      const core::Alert& a = report.alerts[i];
      std::printf("    {\"ts\": %u, \"src\": \"%s\", \"src_port\": %u, "
                  "\"dst\": \"%s\", \"dst_port\": %u, \"threat\": \"%s\", "
                  "\"template\": \"%s\", \"frame\": \"%s\", \"offset\": %zu}%s\n",
                  a.ts_sec, a.src.str().c_str(), a.src_port, a.dst.str().c_str(),
                  a.dst_port,
                  std::string(semantic::threat_class_name(a.threat)).c_str(),
                  json_escape(a.template_name).c_str(),
                  std::string(extract::frame_reason_name(a.frame_reason)).c_str(),
                  a.frame_offset, i + 1 < report.alerts.size() ? "," : "");
    }
    std::printf("  ],\n  \"stats\": %s\n}\n", core::stats_json(report.stats).c_str());
  } else if (cli.summary) {
    std::printf("%s", report.str().c_str());
  } else {
    for (const core::Alert& a : report.alerts) {
      std::printf("%s\n", a.str().c_str());
    }
    if (!cli.quiet) {
      std::printf("--\n%zu packets, %zu suspicious, %zu units analyzed, "
                  "%zu frames, %zu alerts (%.3fs classify, %.3fs analyze)\n",
                  report.stats.packets, report.stats.suspicious_packets,
                  report.stats.units_analyzed, report.stats.frames_extracted,
                  report.alerts.size(), report.stats.classify_seconds,
                  report.stats.analysis_seconds);
      if (report.stats.cache_hits || report.stats.cache_misses ||
          report.stats.cache_bypass) {
        std::printf("verdict cache: %zu hits, %zu misses, %zu bypassed, "
                    "%zu bytes saved\n",
                    report.stats.cache_hits, report.stats.cache_misses,
                    report.stats.cache_bypass, report.stats.cache_bytes_saved);
      }
      if (report.stats.triage_screened) {
        std::printf("triage: %zu screened, %zu escalated, %zu rejected "
                    "(%zu bytes skipped)\n",
                    report.stats.triage_screened, report.stats.triage_escalated,
                    report.stats.triage_rejected, report.stats.triage_rejected_bytes);
      }
    }
  }
  // Keep the endpoints scrapeable after a short capture (CI smoke tests
  // and humans pointing curl at a finished run).
  if (telemetry && cli.telemetry_linger > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(cli.telemetry_linger));
  }
  return report.alerts.empty() ? 0 : 3;  // 3 = threats found (grep-able)
}
