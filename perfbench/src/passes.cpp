#include "passes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "core/session.hpp"
#include "heap.hpp"

namespace perfbench {

namespace {

std::pair<std::uint64_t, std::uint32_t> key_of(net::Ipv4Addr src, net::Ipv4Addr dst,
                                               std::uint16_t sport, std::uint16_t dport) {
  return {(std::uint64_t{src.value} << 32) | dst.value,
          (std::uint32_t{sport} << 16) | dport};
}

bool same_alert(const core::Alert& a, const core::Alert& b) {
  return !core::alert_less(a, b) && !core::alert_less(b, a);
}

}  // namespace

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double time_setup(const Workload& w) {
  const double t0 = now_s();
  core::NidsEngine engine = make_engine(w);
  core::AnalysisContext ctx = engine.make_analysis_context();
  return now_s() - t0;
}

BatchPass batch_pass(const Workload& w) {
  BatchPass out;
  core::NidsEngine engine = make_engine(w);
  const std::size_t base = heap_live();
  heap_reset_peak();
  const double t0 = now_s();
  {
    const std::optional<pcap::Capture> capture = pcap::parse(w.wire);
    if (capture) out.report = engine.process_capture(*capture);
  }
  out.seconds = now_s() - t0;
  out.heap_peak_bytes = heap_peak() - base;
  return out;
}

StreamPass stream_pass(const Workload& w) {
  StreamPass out;
  // The records are what a capture front end would hand over; parsing
  // them is not part of the streaming pass.
  const std::optional<pcap::Capture> capture = pcap::parse(w.wire);
  if (!capture) return out;
  core::NidsEngine engine = make_engine(w);
  // Sized up front so the sample buffers do not grow inside the pass.
  out.records.reserve(w.flows.size() + 16);
  out.seconds.reserve(w.flows.size() + 16);
  out.alerts.reserve(w.flows.size() + 16);
  const std::size_t base = heap_live();
  heap_reset_peak();
  {
    core::LiveSession session(engine,
                              [&out](const core::Alert& a) { out.alerts.push_back(a); });
    const std::vector<pcap::Record>& records = capture->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const pcap::Record& rec = records[i];
      const std::size_t units_before = session.stats().units_analyzed;
      const auto t0 = std::chrono::steady_clock::now();
      session.feed(rec.data, rec.ts_sec, rec.ts_usec);
      const auto t1 = std::chrono::steady_clock::now();
      if (session.stats().units_analyzed > units_before) {
        out.records.push_back(static_cast<std::uint32_t>(i));
        out.seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
      }
    }
    session.finish();
  }
  out.heap_peak_bytes = heap_peak() - base;
  std::sort(out.alerts.begin(), out.alerts.end(), core::alert_less);
  return out;
}

Verifier::Verifier(const Workload& w, std::vector<core::Alert> reference)
    : flows_(w.flows), reference_(std::move(reference)), fault_(w.flows.size(), 0) {
  index_.reserve(w.flows.size());
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    const FlowTruth& f = w.flows[i];
    index_.emplace(key_of(f.src, f.dst, f.src_port, f.dst_port), i);
  }
  ref_ = group(reference_);
  stray_ = ref_.stray;
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    const auto& got = ref_.flows[i];
    const auto& expect = w.flows[i].expect;
    if (!expect) {
      if (!got.empty()) fault_[i] |= kFalsePositive;
    } else if (std::none_of(got.begin(), got.end(), [&](const core::Alert* a) {
                 return a->threat == *expect;
               })) {
      fault_[i] |= kMissed;
    }
  }
}

Verifier::ByFlow Verifier::group(const std::vector<core::Alert>& alerts) const {
  ByFlow g;
  g.flows.resize(fault_.size());
  for (const core::Alert& a : alerts) {
    auto it = index_.find(key_of(a.src, a.dst, a.src_port, a.dst_port));
    if (it == index_.end()) {
      ++g.stray;
    } else {
      g.flows[it->second].push_back(&a);
    }
  }
  return g;
}

void Verifier::compare(const std::vector<core::Alert>& alerts) {
  // Identical lists (the expected case) need no per-flow grouping.
  if (std::equal(alerts.begin(), alerts.end(), reference_.begin(), reference_.end(),
                 same_alert)) {
    return;
  }
  const ByFlow g = group(alerts);
  stray_ += g.stray;
  for (std::size_t i = 0; i < fault_.size(); ++i) {
    const auto& a = ref_.flows[i];
    const auto& b = g.flows[i];
    const bool same = std::equal(a.begin(), a.end(), b.begin(), b.end(),
                                 [](const core::Alert* x, const core::Alert* y) {
                                   return same_alert(*x, *y);
                                 });
    if (!same) fault_[i] |= kInconsistent;
  }
}

std::size_t Verifier::count(std::uint8_t kind) const {
  return static_cast<std::size_t>(
      std::count_if(fault_.begin(), fault_.end(), [kind](std::uint8_t f) { return f & kind; }));
}

std::size_t Verifier::failed() const {
  return stray_ + static_cast<std::size_t>(std::count_if(
                      fault_.begin(), fault_.end(), [](std::uint8_t f) { return f != 0; }));
}

bool Verifier::correct() const {
  return stray_ == 0 && count(kMissed) == 0 && count(kInconsistent) == 0;
}

void Verifier::print_failures(std::size_t max) const {
  std::printf("verdicts: %zu missed attacks, %zu false positives, %zu flows differing "
              "between passes, %zu alerts on no offered flow\n",
              count(kMissed), count(kFalsePositive), count(kInconsistent), stray_);
  std::size_t shown = 0;
  for (std::size_t i = 0; i < fault_.size() && shown < max; ++i) {
    if (!fault_[i]) continue;
    ++shown;
    const FlowTruth& f = flows_[i];
    std::printf("failure: flow %s:%u -> %s:%u expects %s; reference alerts:",
                f.src.str().c_str(), f.src_port, f.dst.str().c_str(), f.dst_port,
                f.expect ? std::string(semantic::threat_class_name(*f.expect)).c_str()
                         : "none");
    for (const core::Alert* a : ref_.flows[i]) std::printf(" %s", a->template_name.c_str());
    std::printf("%s\n", fault_[i] & kInconsistent ? " (differs between passes)" : "");
  }
}

}  // namespace perfbench
