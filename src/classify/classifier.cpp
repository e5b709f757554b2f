#include "classify/classifier.hpp"

#include "obs/metrics.hpp"

namespace senids::classify {

namespace {

/// Process-wide classifier counters: how traffic gets routed into (or
/// pruned from) the expensive pipeline stages, why sources became
/// tainted, and pressure on the bounded dark-space counter table.
struct ClassifierMetrics {
  obs::Counter& ignored;
  obs::Counter& analyzed;
  obs::Counter& honeypot_taints;
  obs::Counter& dark_space_taints;
  obs::Counter& dark_sources_evicted;
};

ClassifierMetrics& classifier_metrics() {
  auto& r = obs::Registry::instance();
  static ClassifierMetrics m{
      r.counter("senids_classify_verdicts_total", "Classifier verdicts by outcome",
                "verdict", "ignore"),
      r.counter("senids_classify_verdicts_total", "Classifier verdicts by outcome",
                "verdict", "analyze"),
      r.counter("senids_classify_taints_total", "Sources tainted, by scheme", "scheme",
                "honeypot"),
      r.counter("senids_classify_taints_total", "Sources tainted, by scheme", "scheme",
                "dark_space"),
      r.counter("senids_dark_sources_evicted_total",
                "Dark-space probe counters LRU-evicted at the per-source cap"),
  };
  return m;
}

}  // namespace

std::size_t DarkSpaceCounters::increment(std::uint32_t src) {
  auto it = counts_.find(src);
  if (it != counts_.end()) {
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);
    return ++it->second.count;
  }
  if (max_sources_ && counts_.size() >= max_sources_ && !lru_.empty()) {
    // Table full: forget the least-recently-probed source to admit this
    // one. Its count restarts from zero if it ever probes again.
    counts_.erase(lru_.front());
    lru_.pop_front();
    ++evictions_;
    classifier_metrics().dark_sources_evicted.add();
  }
  auto pos = lru_.insert(lru_.end(), src);
  counts_.emplace(src, Entry{1, pos});
  return 1;
}

TrafficClassifier::TrafficClassifier(ClassifierOptions options)
    : options_(options),
      dark_space_(options.dark_space_threshold, options.dark_space_max_sources) {}

TrafficClassifier TrafficClassifier::with_empty_state() const {
  TrafficClassifier fresh(options_);
  fresh.honeypots_ = honeypots_;
  for (const Prefix& p : dark_space_.prefixes()) fresh.dark_space_.add_unused_prefix(p);
  return fresh;
}

Verdict TrafficClassifier::observe(const net::ParsedPacket& pkt) {
  ClassifierMetrics& metrics = classifier_metrics();
  if (options_.analyze_everything) {
    metrics.analyzed.add();
    return Verdict::kAnalyze;
  }

  const net::Ipv4Addr src = pkt.ip.src;

  if (honeypots_.is_decoy(pkt.ip.dst)) {
    // "Any sending host emitting traffic destined for a honeypot address
    // is considered suspicious; and any packets sent by such a host will
    // be analyzed."
    if (tainted_.insert(src.value).second) metrics.honeypot_taints.add();
  }

  if (dark_space_.is_unused(pkt.ip.dst)) {
    if (dark_space_.record_probe(src) >= dark_space_.threshold()) {
      if (tainted_.insert(src.value).second) metrics.dark_space_taints.add();
    }
  }

  const bool analyze = tainted_.contains(src.value);
  (analyze ? metrics.analyzed : metrics.ignored).add();
  return analyze ? Verdict::kAnalyze : Verdict::kIgnore;
}

}  // namespace senids::classify
